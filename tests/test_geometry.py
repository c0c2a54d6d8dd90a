import hashlib
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from plapx import geometry
from plapx.geometry import (LOCATE_TOL, ConvexDomain, GeometryError,
                            ParameterError, TriMesh, lattice_points,
                            load_mesh, refine_uniform, round_corners,
                            save_mesh, triangulate_convex)


def test_unit_square_area():
    assert ConvexDomain.unit_square().area == 1.0


def test_regular_polygon_area():
    hexagon = ConvexDomain.regular_polygon(6)
    assert hexagon.area == pytest.approx(3.0 * math.sqrt(3.0) / 2.0,
                                         rel=1e-14)


def test_disk_area():
    dom = ConvexDomain.disk(2.0)
    # inscribed 64-gon: area = n/2 * R^2 * sin(2 pi / n)
    assert dom.area == pytest.approx(64 / 2 * 4.0 * math.sin(2 * math.pi / 64),
                                     rel=1e-14)
    assert dom.area == pytest.approx(math.pi * 4.0, rel=2e-3)


def test_disk_segments_lie_on_the_circle():
    dom = ConvexDomain.disk(0.5, segments=12)
    assert len(dom.vertices) == 12
    np.testing.assert_allclose(np.hypot(dom.vertices[:, 0], dom.vertices[:, 1]),
                               0.5, rtol=1e-14)
    assert dom.corner_radius == 0.0


def test_rounded_square_area_deficit():
    r = 0.2
    dom = round_corners(ConvexDomain.unit_square(), r)
    deficit = 1.0 - dom.area
    # the polyline inscribes the arcs, so the computed deficit is slightly
    # above the exact (4 - pi) r^2
    exact = (4.0 - math.pi) * r * r
    assert deficit >= exact
    assert deficit == pytest.approx(exact, rel=1e-2)


def test_rounding_preserves_containment():
    dom = ConvexDomain.unit_square()
    rounded = round_corners(dom, 0.3)
    assert np.all(dom.contains(rounded.polyline, margin=-1e-12))


@pytest.mark.parametrize("bad", [
    [(0, 0), (1, 0)],                      # too few
    [(0, 0), (1, 0), (1, 0)],              # repeated
    [(0, 0), (0, 1), (1, 0), (1, 1)],      # not convex CCW
])
def test_bad_vertices_rejected(bad):
    with pytest.raises((GeometryError, ParameterError)):
        ConvexDomain(bad)


def test_corner_radius_limits():
    square = ConvexDomain.unit_square()
    for bad in (0.6, -0.1, math.nan):
        with pytest.raises(ParameterError):
            round_corners(square, bad)
    # a NaN radius is not the plain polygon, whose curvature would then
    # read zero instead of raising
    with pytest.raises(ParameterError):
        ConvexDomain(square.vertices, corner_radius=math.nan)


def test_rounded_corner_polyline_size():
    # 16 segments per arc: 17 polyline vertices per corner
    rounded = round_corners(ConvexDomain.unit_square(), 0.1)
    assert rounded.polyline.shape == (4 * 17, 2)


def test_line_distance_and_contains():
    dom = ConvexDomain.unit_square()
    pts = np.array([[0.5, 0.5], [0.1, 0.5], [1.2, 0.5], [0.0, 0.0]])
    d = dom.line_distance(pts)
    np.testing.assert_allclose(d, [0.5, 0.1, -0.2, 0.0], atol=1e-15)
    np.testing.assert_array_equal(dom.contains(pts),
                                  [True, True, False, True])
    assert not dom.contains(np.array([[0.05, 0.5]]), margin=0.1)[0]


def test_projection_onto_square():
    dom = ConvexDomain.unit_square()
    pts = np.array([[2.0, 0.5], [-1.0, -1.0], [0.3, 0.4], [0.5, 7.0]])
    proj = dom.project(pts)
    np.testing.assert_allclose(
        proj, [[1.0, 0.5], [0.0, 0.0], [0.3, 0.4], [0.5, 1.0]], atol=1e-14)
    # projection is 1-Lipschitz: pairwise distances cannot grow
    a, b = np.array([[2.0, 3.0]]), np.array([[4.0, -1.0]])
    pa, pb = dom.project(a), dom.project(b)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-14


def reference_line_distance(dom, pts):
    """Point-major ``line_distance``: (N, E) arrays, reduced over edges."""
    a = dom.polyline
    e = np.roll(a, -1, axis=0) - a
    elen = np.hypot(e[:, 0], e[:, 1])
    dx = pts[:, None, 0] - a[None, :, 0]
    dy = pts[:, None, 1] - a[None, :, 1]
    cross = e[None, :, 0] * dy - e[None, :, 1] * dx
    return np.min(cross / elen[None, :], axis=1)


def reference_nearest(dom, pts):
    """Point-major nearest point of the boundary polyline."""
    a = dom.polyline
    e = np.roll(a, -1, axis=0) - a
    ee = np.einsum("ij,ij->i", e, e)
    dx = pts[:, None, 0] - a[None, :, 0]
    dy = pts[:, None, 1] - a[None, :, 1]
    t = np.clip((dx * e[None, :, 0] + dy * e[None, :, 1]) / ee[None, :],
                0.0, 1.0)
    cx = a[None, :, 0] + t * e[None, :, 0]
    cy = a[None, :, 1] + t * e[None, :, 1]
    d2 = (pts[:, None, 0] - cx) ** 2 + (pts[:, None, 1] - cy) ** 2
    best = np.argmin(d2, axis=1)
    rows = np.arange(len(pts))
    return np.column_stack([cx[rows, best], cy[rows, best]])


KERNEL_DOMAINS = {
    "square": ConvexDomain.unit_square(),
    "disk": ConvexDomain.disk(1.0),
    "rounded": round_corners(ConvexDomain.unit_square(), 0.2),
    "heptagon": ConvexDomain.regular_polygon(7),
    "triangle": ConvexDomain([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)]),
}


def kernel_probes(dom):
    """Random points inside and outside, polyline vertices, edge midpoints,
    and points with NaN or infinite coordinates."""
    lo, hi = dom.bounding_box()
    rand = np.random.default_rng(15).uniform(lo - 0.5, hi + 0.5, (600, 2))
    poly = dom.polyline
    mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
    special = [(v, w) for v in (np.nan, np.inf, -np.inf, 0.5)
               for w in (np.nan, np.inf, -np.inf, 0.5)]
    return np.vstack([rand, poly, mids, special])


def assert_same_values(got, want, pts):
    """Equal values, with NaN where the reference is NaN.  The bits match
    too, except the sign of a zero (at a polyline vertex two edges give 0.0
    and -0.0, and the reduction order picks one) and the sign of a NaN from
    an infinite input coordinate."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    differ = got.view(np.uint64) != want.view(np.uint64)
    nan_sign = differ & np.isnan(want)
    assert np.array_equal(differ, nan_sign | (differ & (want == 0.0)))
    rows = nan_sign.reshape(len(pts), -1).any(axis=1)
    assert np.all(np.isinf(pts[rows]).any(axis=1))


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_boundary_kernels_match_point_major_reference(name):
    dom = KERNEL_DOMAINS[name]
    pts = kernel_probes(dom)
    with np.errstate(invalid="ignore"):
        depth = reference_line_distance(dom, pts)
        nearest = reference_nearest(dom, pts)
        assert_same_values(dom.line_distance(pts), depth, pts)
        assert_same_values(dom._nearest_boundary_point(pts), nearest, pts)
        outside = ~(depth >= 0.0)
        proj = pts.copy()
        proj[outside] = reference_nearest(dom, pts[outside])
        assert_same_values(dom.project(pts), proj, pts)
    # the sample covers points inside, outside and on the boundary
    assert np.any(depth > 0) and np.any(depth < 0)
    assert np.any(np.abs(depth) <= 1e-15) and np.any(np.isnan(depth))


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_boundary_edge_arrays_cached_read_only(name):
    dom = KERNEL_DOMAINS[name]
    edges = dom._edges
    assert len(edges) == 6
    for col in edges:
        assert col.shape == (len(dom.polyline), 1)
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0, 0] = 0.0


def test_boundary_anchors():
    dom = round_corners(ConvexDomain.unit_square(), 0.2)
    anchors = dom.boundary_anchors
    assert len(anchors) == 8  # two junctions per corner
    # the anchors are the arc ends: the tangent points on the square's edges
    np.testing.assert_allclose(
        dom.polyline[anchors],
        [(0, 0.2), (0.2, 0), (0.8, 0), (1, 0.2), (1, 0.8), (0.8, 1),
         (0.2, 1), (0, 0.8)], rtol=0, atol=1e-15)
    assert len(ConvexDomain.unit_square().boundary_anchors) == 0


# --- triangulation ---------------------------------------------------------


@pytest.mark.parametrize("dom,h", [
    (ConvexDomain.unit_square(), 0.2),
    (ConvexDomain.unit_square(), 0.07),
    (ConvexDomain.regular_polygon(6), 0.15),
    (ConvexDomain.disk(1.0), 0.2),
    (round_corners(ConvexDomain.unit_square(), 0.25), 0.12),
    (ConvexDomain([(0, 0), (2, 0), (0.7, 1.4)]), 0.12),
    # Qhull on every sweep could not reach the angle floor here
    (ConvexDomain.regular_polygon(12), 0.1),
])
def test_triangulation_quality(dom, h):
    mesh = triangulate_convex(dom, h)
    assert mesh.min_angle() >= 20.0
    assert mesh.h <= h
    assert np.all(mesh.areas > 0)
    # no orphan points
    assert np.array_equal(np.unique(mesh.triangles),
                          np.arange(mesh.n_points))
    # boundary vertices on the boundary (in a closed convex polygon the
    # nearest edge line is as near as the boundary), interior strictly inside
    bd = dom.line_distance(mesh.points[mesh.is_boundary])
    assert np.max(np.abs(bd)) <= 1e-12
    assert np.all(dom.line_distance(mesh.points[~mesh.is_boundary]) > 0)


def test_heptagon_boundary_sliver_dropped():
    # Delaunay returns a sliver of three nearly collinear boundary points
    # here; its area is not zero in Delaunay's corner order but rounds to
    # zero once the corners are rotated into the mesh's order
    dom = ConvexDomain.regular_polygon(7)
    mesh = triangulate_convex(dom, 0.1)
    assert mesh.min_angle() >= 20.0
    assert mesh.h <= 0.1
    assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.n_points))
    assert float(np.sum(mesh.areas)) == pytest.approx(dom.area, rel=1e-12)


def test_triangulation_is_deterministic():
    dom = ConvexDomain.regular_polygon(5)
    a = triangulate_convex(dom, 0.11)
    b = triangulate_convex(dom, 0.11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.is_boundary, b.is_boundary)


def test_triangulation_covers_area():
    dom = ConvexDomain.unit_square()
    mesh = triangulate_convex(dom, 0.1)
    assert float(np.sum(mesh.areas)) == pytest.approx(1.0, rel=1e-12)


def test_square_corners_are_mesh_vertices():
    mesh = triangulate_convex(ConvexDomain.unit_square(), 0.23)
    for corner in [(0, 0), (1, 0), (1, 1), (0, 1)]:
        d = np.min(np.hypot(mesh.points[:, 0] - corner[0],
                            mesh.points[:, 1] - corner[1]))
        assert d == 0.0


def test_absurd_h_rejected():
    with pytest.raises(ParameterError):
        triangulate_convex(ConvexDomain.unit_square(), 1e-4)
    with pytest.raises(ParameterError):
        triangulate_convex(ConvexDomain.unit_square(), 0.0)


def mesh_digest(mesh):
    h = hashlib.sha256()
    for arr in (mesh.points, mesh.triangles, mesh.is_boundary):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


SQUARE = ConvexDomain.unit_square()
DOMAINS = {
    "square": SQUARE,
    "disk": ConvexDomain.disk(1.0),
    "triangle": ConvexDomain([(0, 0), (2, 0), (0.7, 1.4)]),
    **{f"polygon{n}": ConvexDomain.regular_polygon(n)
       for n in (3, 5, 6, 7, 8, 9, 11)},
    **{f"rounded{r}": round_corners(SQUARE, r)
       for r in (0.025, 0.05, 0.1, 0.2, 0.4)},
}

# sha256 of the points, triangles and boundary-flag bytes; all but the last
# group are also what Qhull over all the points on every sweep gives.  The
# comments name the path each mesh takes
MESH_DIGESTS = {
    # one Qhull call per attempt, flips repair every sweep
    ("square", 0.3): "d7137cbf9165152e0e6bc9688411fd6bba946fa41c492916dfd44a419ec5fc7c",
    ("square", 0.2): "50a835d52c9e69008fe86d0d555b20d0f54ad5f7915b275daf616a709e55d261",
    ("square", 0.1): "1728fa144e0fc6bca267c88db7cf89828754f39b10033a9e0c819a67ee05c156",
    ("disk", 0.2): "5b1ae3091f0b9f9a35464a58681649008a38b050eaacc5d1291f466f830f3ce3",
    ("rounded0.2", 0.12): "2a9a8902e883a51085dc6fe0d504da1d0ba8b4a487a19e7f669e9a33f7c9527c",
    ("square", 0.04): "aa73eced496c9f15ad9aa39e0b323661dc20f63453e8928204446cdb0cf29e07",
    ("disk", 0.08): "38ce53f7ba5c6befa35bc10bceb0904dfba11e8616d1fd82f87ea9b9cb252edd",
    ("rounded0.1", 0.04): "2cc61c586622878499d0094708b2bedd7b807d5ddeca207369d4b9f4f28cb3e3",
    ("rounded0.2", 0.04): "63730e2ff1645874fd2e02d28a22fd4309602d1c23e7a6ab96b03230df2a7354",
    ("rounded0.4", 0.04): "31405ab713d077bd6f2a838afb96b9c29839a656defb074822b51ff0514bcfc4",
    # the other meshes the benchmark workloads build
    ("square", 0.01): "bf16697180f2e87f2dda851651d56a5f58f8ea314a9eb3a6826886ed64c50574",
    ("rounded0.4", 0.12): "5dd3212f4b4cd0070b7e347db5e00d2a228e0c3991b63837e4b9fe0c7e127102",
    ("rounded0.1", 0.12): "53311ae14498a2509a94a5b594174449e408283fb4238f2169756ab8528ecefe",
    ("rounded0.05", 0.12): "0ede1c1a93ac392bc78671c4bb79f7e129d32d61e39fc8dd44e6c31d2b6abba1",
    ("rounded0.025", 0.12): "fd034b818089ae1237d62eed4b35190ac8c8e1617f905a60655ee05d5a4096eb",
    # quality loop and retried spacings
    ("rounded0.05", 0.3): "ef1ee87e4c5a37e1c03c2e010bfdcb1150d8ac19451cf1d8d52d7a4e2abffbd8",
    ("rounded0.4", 0.15): "e59f87ae82f8513f26c665633beafbe01fef9b0bee7556f596599684935830b6",
    ("polygon11", 0.3): "9b8c704e0c0275f1f72b24b901f8be04912ad32c27ce0b74e5bd710397cc9290",
    # slanted edges: nearly collinear boundary samples, flips repair every
    # sweep
    ("triangle", 0.12): "a13ee254053b2b9df9ab560ac9273fcf725dfb927a05e1d203cf50dbe54e2f42",
    ("polygon3", 0.08): "500aaeeb7ca231afcd0bd5f45e529a55153c67c2982e491ee5f9959860e2da97",
    ("polygon5", 0.1): "f9d4e2b73ec4c62144be29af86533a8223851a7afe3d2f1f8b74df56b8b53f79",
    ("polygon6", 0.1): "9c32feeaf975fe2a8007544a049152c1ad9d871ff7f0226ca1c49715f00c68b7",
    ("polygon8", 0.2): "68d29cc9ebd5813b5b29e02f7fd4b8effe9a87b10c68c97b2663adce410fb732",
    # the heptagon sliver; its first spacing fails the quality loop
    ("polygon7", 0.1): "14b2a220562780947e4be8f61020c923fcb8e2ffd0c78a7497fdde973212db9b",
    # slanted edges where Qhull on a later sweep adds slivers of area about
    # 1e-18 along nearly collinear boundary samples; the flips keep the first
    # Qhull call's outer edges and have none, so the quality loop takes
    # another path
    ("polygon9", 0.12): "2951bd5a4ad0fbd8e2ab0923c0f7f2254fa3bc411acfdddf2b809da8f052e9b6",
    ("polygon11", 0.1): "fe053788b16005462f7d59f6a1db0cb2011a3063f69c8fe5d66e51c096fe8256",
}


@pytest.mark.parametrize("name,h", MESH_DIGESTS, ids=lambda v: str(v))
def test_mesh_bytes_pinned(name, h):
    mesh = triangulate_convex(DOMAINS[name], h)
    assert mesh_digest(mesh) == MESH_DIGESTS[name, h]


SQUARE_002 = "ca71367acb23cda7dccfbc55acb7722534d92495a34f410df5fb6f1c676a52e8"


def delaunay_sizes(monkeypatch):
    """Point counts of every Delaunay call made from here on."""
    sizes = []
    real = geometry.Delaunay

    def counting(points, *args, **kwargs):
        sizes.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(geometry, "Delaunay", counting)
    return sizes


@pytest.mark.parametrize("name,h,digest", [
    ("square", 0.02, SQUARE_002),
    # slanted edges
    ("triangle", 0.12, MESH_DIGESTS["triangle", 0.12]),
], ids=["square-0.02", "triangle-0.12"])
def test_one_qhull_call_per_attempt(monkeypatch, name, h, digest):
    sizes = delaunay_sizes(monkeypatch)
    mesh = triangulate_convex(DOMAINS[name], h)
    # two attempts, each triangulated once before smoothing; flips repair
    # every sweep, and the point count grows from one attempt to the next
    assert len(sizes) == 2 and sizes[0] < sizes[1] == mesh.n_points
    assert mesh_digest(mesh) == digest


def test_refused_repairs_give_the_same_mesh(monkeypatch):
    monkeypatch.setattr(geometry, "_flip_to_delaunay", lambda *a: None)
    sizes = delaunay_sizes(monkeypatch)
    mesh = triangulate_convex(SQUARE, 0.02)
    # Qhull on every sweep: 2 attempts of 1 + 4 triangulations
    assert len(sizes) == 10
    assert mesh_digest(mesh) == SQUARE_002


def test_grid_tie_is_left_to_qhull(monkeypatch):
    # on a square grid every cell's corners are cocircular, so either
    # diagonal is Delaunay and only Qhull fixes which one it takes
    k = np.arange(41) / 40.0
    gx, gy = np.meshgrid(k, k, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    on_edge = (np.min(grid, axis=1) == 0) | (np.max(grid, axis=1) == 1)
    pts = np.vstack([grid[on_edge], grid[~on_edge]])
    movable = np.zeros(len(pts), dtype=bool)
    movable[on_edge.sum():] = SQUARE.line_distance(grid[~on_edge]) < 0.055
    base = geometry._delaunay_triangles(pts)
    moved = geometry._smooth_round(pts, base, movable)
    signs = []
    real = geometry._incircle
    monkeypatch.setattr(geometry, "_incircle",
                        lambda *a: signs.append(real(*a)) or signs[-1])
    assert geometry._flip_to_delaunay(moved, base) is None
    assert len(signs) == 1 and np.count_nonzero(signs[0] == 0) > 1000


def test_incircle_tie_is_relative():
    for scale in (1e-3, 1.0, 1e3):
        a, b, c, d = (np.array([p]) * scale
                      for p in ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]))
        assert geometry._incircle(a, b, c, d).tolist() == [0]
        out, inside = d * [1.0, 1.0 + 1e-6], d * [1.0, 1.0 - 1e-6]
        assert geometry._incircle(a, b, c, out).tolist() == [-1]
        assert geometry._incircle(a, b, c, inside).tolist() == [1]
        # below the relative tie bound the sign is not trusted
        assert geometry._incircle(a, b, c, d * [1.0, 1.0 + 1e-12]).tolist() \
            == [0]


def jittered_square(seed, amplitude, n=60):
    """Boundary samples of the unit square, ``n`` interior points, their
    Delaunay triangulation, and the interior points moved by up to
    ``amplitude`` (kept inside)."""
    rng = np.random.Generator(np.random.Philox(seed))
    s = np.arange(8) / 8.0
    bnd = np.vstack([np.column_stack([s, 0 * s]),
                     np.column_stack([1 + 0 * s, s]),
                     np.column_stack([1 - s, 1 + 0 * s]),
                     np.column_stack([0 * s, 1 - s])])
    pts = np.vstack([bnd, rng.uniform(0.05, 0.95, size=(n, 2))])
    moved = pts.copy()
    moved[len(bnd):] = np.clip(
        pts[len(bnd):] + amplitude * rng.uniform(-1.0, 1.0, size=(n, 2)),
        0.01, 0.99)
    return pts, geometry._delaunay_triangles(pts), moved


@hypothesis.seed(20261019)
@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 0.03))
def test_flip_repair_is_qhull_or_none(seed, amplitude):
    _, tri, moved = jittered_square(seed, amplitude)
    got = geometry._flip_to_delaunay(moved, tri)
    if got is not None:
        np.testing.assert_array_equal(got,
                                      geometry._delaunay_triangles(moved))


def test_flips_reach_the_delaunay_triangulation(monkeypatch):
    rounds = []
    real = geometry._incircle
    monkeypatch.setattr(geometry, "_incircle",
                        lambda *a: rounds.append(real(*a)) or rounds[-1])
    _, tri, moved = jittered_square(5, 0.01)
    got = geometry._flip_to_delaunay(moved, tri)
    # 16 illegal edges, then 5, then 1: three rounds of flips
    assert [np.count_nonzero(s > 0) for s in rounds] == [16, 5, 1, 0]
    np.testing.assert_array_equal(got, geometry._delaunay_triangles(moved))


def test_repair_refuses_an_unused_point():
    _, tri, moved = jittered_square(3, 0.0)
    assert geometry._flip_to_delaunay(moved, tri) is not None
    # a point that is no corner of ``tri``: only Qhull can place it
    extra = np.vstack([moved, [[0.5, 0.5 + 1e-3]]])
    assert geometry._flip_to_delaunay(extra, tri) is None


def test_flip_repair_refuses_an_inverted_triangle():
    pts, tri, _ = jittered_square(5, 0.0)
    moved = pts.copy()
    moved[40] = np.clip(pts[40] + [0.3, 0.0], 0.01, 0.99)  # out of its star
    assert np.any(geometry._signed_areas(moved, tri) <= 0)
    assert geometry._flip_to_delaunay(moved, tri) is None


def reference_smooth_round(points, tri, movable):
    """The per-edge ``np.add.at`` sweep that ``_smooth_round`` replaced."""
    pts = points.copy()
    nbr_sum = np.zeros_like(pts)
    nbr_cnt = np.zeros(len(pts))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(nbr_sum, tri[:, a], pts[tri[:, b]])
        np.add.at(nbr_cnt, tri[:, a], 1.0)
        np.add.at(nbr_sum, tri[:, b], pts[tri[:, a]])
        np.add.at(nbr_cnt, tri[:, b], 1.0)
    ok = movable & (nbr_cnt > 0)
    pts[ok] = nbr_sum[ok] / nbr_cnt[ok, None]
    return pts


def test_smooth_round_matches_reference_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(11))
    pts = rng.uniform(-1.0, 1.0, size=(300, 2)) * 10.0 ** rng.integers(
        -8, 8, size=(300, 1))
    tri = rng.integers(0, 280, size=(2000, 3))
    movable = rng.uniform(size=300) < 0.7
    got = geometry._smooth_round(pts, tri, movable)
    want = reference_smooth_round(pts, tri, movable)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_boundary_edges_point_outward():
    dom = ConvexDomain.regular_polygon(6)
    mesh = triangulate_convex(dom, 0.25)
    edges, normals = mesh.boundary_edges()
    mids = 0.5 * (mesh.points[edges[:, 0]] + mesh.points[edges[:, 1]])
    outside = mids + 1e-6 * normals
    inside = mids - 1e-6 * normals
    assert not np.any(dom.contains(outside, margin=1e-9))
    assert np.all(dom.contains(inside, margin=-1e-12))
    np.testing.assert_allclose(np.hypot(normals[:, 0], normals[:, 1]), 1.0,
                               rtol=1e-14)


def test_locate_barycentric():
    mesh = triangulate_convex(ConvexDomain.unit_square(), 0.2)
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.uniform(0.02, 0.98, size=(200, 2))
    tri, bary = mesh.locate(pts)
    assert np.all(tri >= 0)
    assert np.all(bary >= -1e-12)
    recon = np.einsum("kj,kjd->kd", bary, mesh.points[mesh.triangles[tri]])
    np.testing.assert_allclose(recon, pts, atol=1e-12)
    far, _ = mesh.locate(np.array([[13.0, -4.0]]))
    assert far[0] == -1


def reference_locate(mesh, pts, tol):
    """Per-point uniform-bin locator that ``TriMesh.locate`` replaced.

    Bins hold the triangles whose bounding box meets them, in ascending
    order; a point takes the first triangle of its bin containing it, else
    the first with the largest smallest barycentric coordinate.
    """
    tris = mesh.points[mesh.triangles]
    lo = mesh.points.min(axis=0)
    n = max(1, int(math.sqrt(mesh.n_triangles)))
    cell = np.maximum(mesh.points.max(axis=0) - lo, 1e-300) / n
    i0 = np.clip(((tris.min(axis=1) - lo) / cell).astype(int), 0, n - 1)
    i1 = np.clip(((tris.max(axis=1) - lo) / cell).astype(int), 0, n - 1)
    bins = {}
    for t in range(mesh.n_triangles):
        for ix in range(i0[t, 0], i1[t, 0] + 1):
            for iy in range(i0[t, 1], i1[t, 1] + 1):
                bins.setdefault((ix, iy), []).append(t)
    out_t = np.full(len(pts), -1, dtype=np.int64)
    out_b = np.zeros((len(pts), 3))
    cells = np.clip(((pts - lo) / cell).astype(int), 0, n - 1)
    for k, (pt, c_ij) in enumerate(zip(pts, cells)):
        best_t, best_b, best_m = -1, None, -np.inf
        for t in bins.get((c_ij[0], c_ij[1]), ()):
            a, b, c = tris[t]
            det = 2.0 * mesh.areas[t]
            l0 = ((b[1] - c[1]) * (pt[0] - c[0])
                  + (c[0] - b[0]) * (pt[1] - c[1])) / det
            l1 = ((c[1] - a[1]) * (pt[0] - c[0])
                  + (a[0] - c[0]) * (pt[1] - c[1])) / det
            l2 = 1.0 - l0 - l1
            m = min(l0, l1, l2)
            if m > best_m:
                best_t, best_b, best_m = t, (l0, l1, l2), m
            if m >= 0:
                break
        if best_t >= 0 and best_m >= -tol:
            out_t[k] = best_t
            out_b[k] = best_b
    return out_t, out_b


def locator_probes(mesh, seed):
    """Vertices, points on edges, points just outside the boundary (within
    and beyond the tolerance) and random points in the bounding box."""
    rng = np.random.Generator(np.random.Philox(seed))
    t = mesh.triangles
    p = mesh.points
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    frac = rng.uniform(0.0, 1.0, size=(len(edges), 1))
    on_edges = p[edges[:, 0]] + frac * (p[edges[:, 1]] - p[edges[:, 0]])
    bedges, normals = mesh.boundary_edges()
    mids = 0.5 * (p[bedges[:, 0]] + p[bedges[:, 1]])
    outside = [mids + d * normals for d in (1e-13, 1e-11, 1e-9, 1e-7, 0.05)]
    lo, hi = p.min(axis=0), p.max(axis=0)
    inside = rng.uniform(lo, hi, size=(2000, 2))
    return np.vstack([p, on_edges, 0.5 * (p[edges[:, 0]] + p[edges[:, 1]]),
                      *outside, inside, [[13.0, -4.0]]])


@pytest.mark.parametrize("dom,h", [
    (ConvexDomain.unit_square(), 0.1),
    (round_corners(ConvexDomain.unit_square(), 0.25), 0.09),
])
def test_locate_matches_reference_bit_for_bit(dom, h):
    mesh = triangulate_convex(dom, h)
    pts = locator_probes(mesh, seed=5)
    tri, bary = mesh.locate(pts)
    want_t, want_b = reference_locate(mesh, pts, LOCATE_TOL)
    np.testing.assert_array_equal(tri, want_t)
    np.testing.assert_array_equal(bary.view(np.int64), want_b.view(np.int64))
    # the probes reach every branch: contained, outside within tol, missed
    assert np.any(tri < 0) and np.any((tri >= 0) & (bary.min(axis=1) < 0))


def test_locate_lattice_cached_per_window():
    mesh = triangulate_convex(ConvexDomain.unit_square(), 0.2)
    window = ((0.1, 0.15), 0.07, 11, 9)
    tri, bary = mesh.locate_lattice(window)
    assert mesh.locate_lattice(window)[0] is tri
    assert not tri.flags.writeable and not bary.flags.writeable
    gx, gy = lattice_points(window)
    want_t, want_b = mesh.locate(np.column_stack([gx.ravel(), gy.ravel()]))
    np.testing.assert_array_equal(tri, want_t)
    np.testing.assert_array_equal(bary, want_b)
    other = mesh.locate_lattice(((0.1, 0.15), 0.07, 11, 8))[0]
    assert other is not tri and len(other) == 88


def test_cw_triangle_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError) as info:
        TriMesh(pts, np.array([[0, 2, 1]]), np.array([True, True, True]))
    assert "0" in str(info.value)


# --- refinement ------------------------------------------------------------


def test_refinement_counts_and_h():
    base = triangulate_convex(ConvexDomain.unit_square(), 0.3)
    fine = refine_uniform(base)
    assert fine.n_triangles == 4 * base.n_triangles
    assert fine.h == pytest.approx(0.5 * base.h, rel=1e-12)
    assert fine.min_angle() == pytest.approx(base.min_angle(), abs=1e-9)
    assert float(np.sum(fine.areas)) == pytest.approx(
        float(np.sum(base.areas)), rel=1e-13)


def test_refinement_boundary_flags():
    base = triangulate_convex(ConvexDomain.unit_square(), 0.3)
    fine = refine_uniform(base)
    n_bnd_edges = len(base.boundary_edges()[0])
    assert int(np.sum(fine.is_boundary)) == int(np.sum(base.is_boundary)) \
        + n_bnd_edges
    # boundary midpoints stay on the boundary of the square
    dom = ConvexDomain.unit_square()
    assert np.max(np.abs(dom.line_distance(fine.points[fine.is_boundary]))) \
        <= 1e-12


def test_double_refinement_nests():
    base = triangulate_convex(ConvexDomain.regular_polygon(8), 0.4)
    fine = refine_uniform(refine_uniform(base))
    # original vertices are preserved verbatim at the front
    assert np.array_equal(fine.points[:base.n_points], base.points)


# --- mesh file format ------------------------------------------------------


def test_mesh_file_round_trip(tmp_path):
    mesh = triangulate_convex(round_corners(ConvexDomain.unit_square(), 0.2),
                              0.17)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.points, mesh.points)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.is_boundary, mesh.is_boundary)


def test_mesh_file_layout(tmp_path):
    mesh = triangulate_convex(ConvexDomain.unit_square(), 0.5)
    path = tmp_path / "m.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"$vertices {mesh.n_points}"
    assert lines[1 + mesh.n_points] == f"$triangles {mesh.n_triangles}"
    first = lines[1].split()
    assert len(first) == 3 and first[2] in ("0", "1")


def test_load_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("$vertices 1\n0 0 1\n")
    with pytest.raises((GeometryError, ValueError, IndexError)):
        load_mesh(path)


def test_load_mesh_rejects_non_finite_vertex(tmp_path):
    # a NaN coordinate makes the triangle's area NaN, which no area <= 0
    # check catches
    path = tmp_path / "nan.txt"
    path.write_text("$vertices 3\nnan 1 1\n1 0 1\n0 1 1\n"
                    "$triangles 1\n0 1 2\n")
    with pytest.raises(GeometryError, match="finite"):
        load_mesh(path)
