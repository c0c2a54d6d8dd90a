"""Convex domains and conforming P1 triangulations.

Domains are convex polygons, optionally with corners replaced by inscribed
circular arcs (``ARC_SEGMENTS`` polyline segments per corner).  Meshing is
deterministic: boundary resampling at roughly uniform arclength, a hexagonal
interior lattice, Delaunay connectivity of the combined point set (exact for
points in convex position), then 4 to 10 Laplacian smoothing sweeps of the
points near the boundary, until the 20 degree minimum-angle floor holds.  Each
attempt runs Qhull once, on the points before smoothing.  After a sweep,
Lawson edge flips repair the previous triangulation (``_flip_to_delaunay``)
until every interior edge is locally Delaunay by a clear margin (repairing
a repair's own result, only edges next to a moved point or a flip are
tested), which
certifies the unique Delaunay triangulation of the region bounded by the
outer edges of the last Qhull call.  Where boundary samples are exactly or
clearly non-collinear, that is the triangulation Qhull returns on all the
points; on nearly collinear samples (slanted straight edges) the two can
differ by slivers along those samples.  Where the certificate fails (a near
tie, an inverted triangle, too many flip rounds), Qhull triangulates all the
points.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# scipy.spatial first: importing scipy.sparse ahead of it makes importing
# plapx about 20 ms slower
from scipy.spatial import Delaunay
import scipy.sparse as sp

__all__ = [
    "ConvexDomain",
    "TriMesh",
    "P1Pattern",
    "triangulate_convex",
    "lattice_points",
    "refine_uniform",
    "round_corners",
    "save_mesh",
    "load_mesh",
    "GeometryError",
    "ParameterError",
]

MIN_ANGLE_DEG = 20.0
# most triangles a mesh may have, checked before meshing or refining
MAX_TRIANGLES = 4e5
# barycentric tolerance of point location: points within it of a triangle
# count as inside it
LOCATE_TOL = 1e-8
# polyline segments per rounded corner
ARC_SEGMENTS = 16
# relative in-circle determinant of a near tie between two triangles
TIE = 1e-9
# most Lawson flip rounds that repair one smoothing sweep
FLIP_ROUNDS = 32


class GeometryError(RuntimeError):
    pass


class ParameterError(ValueError):
    pass


def _polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _turns(poly):
    """Unit directions of the edges into and out of each vertex of a closed
    polyline, and the turn angle between them."""
    e = np.roll(poly, -1, axis=0) - poly
    u_out = e / np.hypot(e[:, 0], e[:, 1])[:, None]
    u_in = np.roll(u_out, 1, axis=0)
    turn = np.arccos(np.clip(np.einsum("ij,ij->i", u_in, u_out), -1.0, 1.0))
    return u_in, u_out, turn


class ConvexDomain:
    """Convex polygon, optionally with rounded corners.

    ``vertices`` are the corner points in counterclockwise order.  With
    ``corner_radius > 0`` every corner is replaced by an inscribed circular
    arc sampled with ``ARC_SEGMENTS`` polyline segments; the effective
    boundary is then the rounded polyline and ``area`` means its area.

    The polyline's edge arrays are built once, read-only, as (E, 1)
    columns.  The boundary kernels (``line_distance``, ``project``,
    ``boundary_distance``) work edge-major on (E, N) arrays and reduce over
    the edges, with the same per-element formulas as point by point.
    """

    def __init__(self, vertices, corner_radius=0.0):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ParameterError("vertices must be an (n, 2) array, n >= 3")
        if not np.all(np.isfinite(v)):
            raise ParameterError("vertices must be finite")
        if not corner_radius >= 0:
            raise ParameterError("corner_radius must be >= 0")

        e = np.roll(v, -1, axis=0) - v
        elen = np.hypot(e[:, 0], e[:, 1])
        if np.any(elen == 0):
            raise ParameterError("repeated vertices")
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        scale = elen.max()
        if np.any(cross < -1e-12 * scale * scale):
            raise GeometryError("vertices are not in convex CCW position")
        if _polygon_area(v) <= 0:
            raise GeometryError("polygon has nonpositive area")

        self.vertices = v
        self.vertices.setflags(write=False)
        self.corner_radius = float(corner_radius)

        if corner_radius > 0:
            if corner_radius >= 0.5 * elen.min():
                raise ParameterError(
                    "corner_radius must be below half the shortest edge")
            self._polyline, self._anchors = self._build_rounded(elen)
        else:
            self._polyline = v
            self._anchors = np.empty(0, dtype=np.int64)
        self._polyline.setflags(write=False)
        self._anchors.setflags(write=False)
        # the polyline's edges as read-only (E, 1) columns: start x and y,
        # edge x and y, length and squared length
        a = self._polyline
        e = np.roll(a, -1, axis=0) - a
        self._edges = tuple(
            np.ascontiguousarray(c)[:, None]
            for c in (a[:, 0], a[:, 1], e[:, 0], e[:, 1],
                      np.hypot(e[:, 0], e[:, 1]), np.einsum("ij,ij->i", e, e)))
        for c in self._edges:
            c.setflags(write=False)

    @classmethod
    def unit_square(cls):
        return cls([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

    @classmethod
    def regular_polygon(cls, n, radius=1.0):
        th = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([radius * np.cos(th), radius * np.sin(th)])
        return cls(pts)

    @classmethod
    def disk(cls, radius=1.0, segments=64):
        """Disk of given radius, realized as an inscribed regular polygon
        with ``segments`` sides."""
        return cls.regular_polygon(segments, radius=radius)

    def _build_rounded(self, elen):
        v = self.vertices
        n = len(v)
        r = self.corner_radius
        # turn angle at each corner; tangent offset d = r*tan(turn/2)
        u_in, u_out, phi = _turns(v)
        d = r * np.tan(0.5 * phi)
        for k in range(n):
            if d[k] + d[(k + 1) % n] > elen[k] + 1e-12 * elen[k]:
                raise ParameterError(
                    f"corner radius {r} too large for edge {k}")

        pieces = []
        anchors = []
        offset = 0
        for k in range(n):
            if phi[k] < 1e-12:
                pieces.append(v[k][None, :])
                anchors.append(offset)
                offset += 1
                continue
            t1 = v[k] - d[k] * u_in[k]
            t2 = v[k] + d[k] * u_out[k]
            # center sits on the interior bisector at distance r/sin(theta/2),
            # theta = pi - phi the interior angle
            bis = u_out[k] - u_in[k]
            bis /= np.hypot(*bis)
            center = v[k] + (r / np.cos(0.5 * phi[k])) * bis
            a1 = math.atan2(t1[1] - center[1], t1[0] - center[0])
            a2 = math.atan2(t2[1] - center[1], t2[0] - center[0])
            sweep = (a2 - a1) % (2.0 * np.pi)
            if sweep > np.pi:
                sweep -= 2.0 * np.pi
            ang = a1 + sweep * np.linspace(0.0, 1.0, ARC_SEGMENTS + 1)
            arc = center + r * np.column_stack([np.cos(ang), np.sin(ang)])
            pieces.append(arc)
            # arc endpoints are kept as mesh anchors so boundary resampling
            # stays aligned across different rounding radii
            anchors.extend([offset, offset + ARC_SEGMENTS])
            offset += ARC_SEGMENTS + 1
        return np.vstack(pieces), np.asarray(anchors, dtype=np.int64)

    @property
    def polyline(self):
        """Effective boundary polygon, counterclockwise, one row per vertex."""
        return self._polyline

    @property
    def boundary_anchors(self):
        """Polyline indices always kept as mesh vertices (arc junctions)."""
        return self._anchors

    @property
    def area(self):
        return _polygon_area(self._polyline)

    def line_distance(self, pts):
        """Conservative interior clearance at points.

        Minimum over boundary edges of the signed distance to the edge line;
        positive inside, and a lower bound for the true distance to the
        boundary, which makes it safe for margin checks.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ax, ay, ex, ey, elen, _ = self._edges
        cross = ex * (pts[:, 1] - ay) - ey * (pts[:, 0] - ax)
        return np.min(cross / elen, axis=0)

    def contains(self, pts, margin=0.0):
        return self.line_distance(pts) >= margin

    def _nearest_boundary_point(self, pts):
        """The point of the boundary polyline closest to each of ``pts``."""
        ax, ay, ex, ey, _, ee = self._edges
        px, py = pts[:, 0], pts[:, 1]
        t = np.clip(((px - ax) * ex + (py - ay) * ey) / ee, 0.0, 1.0)
        cx = ax + t * ex
        cy = ay + t * ey
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        best = np.argmin(d2, axis=0)
        cols = np.arange(len(pts))
        return np.column_stack([cx[best, cols], cy[best, cols]])

    def boundary_distance(self, pts):
        """Exact unsigned distance from points to the boundary polyline."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        gap = pts - self._nearest_boundary_point(pts)
        return np.hypot(gap[:, 0], gap[:, 1])

    def project(self, pts):
        """Nearest-point projection onto the closed domain.

        Points inside map to themselves, points outside to the closest
        boundary point.  For a convex domain this map is 1-Lipschitz, which
        is what the constant (along rays) extension of exponent fields
        relies on.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = pts.copy()
        outside = ~self.contains(pts)
        if np.any(outside):
            out[outside] = self._nearest_boundary_point(pts[outside])
        return out

    def bounding_box(self):
        p = self._polyline
        return p.min(axis=0), p.max(axis=0)

    def __repr__(self):
        return (f"ConvexDomain({len(self.vertices)} corners, "
                f"r={self.corner_radius})")


def round_corners(dom: ConvexDomain, radius: float) -> ConvexDomain:
    """Inscribed-arc rounding of every corner; the result stays convex and
    is contained in the original domain."""
    if not radius > 0:
        raise ParameterError("radius must be positive")
    return ConvexDomain(dom.vertices, corner_radius=radius)


class TriMesh:
    """Conforming triangle mesh: points, CCW triangles, boundary flags."""

    def __init__(self, points, triangles, is_boundary):
        self.points = np.asarray(points, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.is_boundary = np.asarray(is_boundary, dtype=bool)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise GeometryError("points must be (n, 2)")
        if not np.all(np.isfinite(self.points)):
            raise GeometryError("points must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise GeometryError("triangles must be (m, 3)")
        if len(self.is_boundary) != len(self.points):
            raise GeometryError("boundary flag length mismatch")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.points)):
            raise GeometryError("triangle index out of range")
        self.areas = _signed_areas(self.points, self.triangles)
        if np.any(self.areas <= 0):
            bad = int(np.argmin(self.areas))
            raise GeometryError(
                f"triangle {bad} is not positively oriented (area "
                f"{self.areas[bad]:.3e})")
        for arr in (self.points, self.triangles, self.is_boundary, self.areas):
            arr.setflags(write=False)
        # built on first use, then read-only; pool threads sharing a mesh
        # may race to build one, but a build is pure, so a race costs only
        # duplicate work
        self._locator = None
        # (gradient operator, basis gradients), set in one assignment
        self._gradients = None
        self._basis_products = None
        self._p1_pattern = None
        self._lattices = {}

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @functools.cached_property
    def h(self):
        """Mesh size: longest triangle edge (computed once)."""
        p = self.points[self.triangles]
        d01 = np.hypot(*(p[:, 1] - p[:, 0]).T)
        d12 = np.hypot(*(p[:, 2] - p[:, 1]).T)
        d20 = np.hypot(*(p[:, 0] - p[:, 2]).T)
        return float(np.max([d01, d12, d20]))

    def min_angle(self):
        """Smallest interior angle over all triangles, in degrees."""
        p = self.points[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            na = np.hypot(a[:, 0], a[:, 1])
            nb = np.hypot(b[:, 0], b[:, 1])
            cosang = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1, 1)
            angles.append(np.arccos(cosang))
        return float(np.degrees(np.min(angles)))

    def boundary_edges(self):
        """Boundary edges oriented CCW with outward unit normals.

        Returns (edges, normals); edges[k] = (i, j) traversed so the interior
        lies on the left.
        """
        raw, _, inv, counts = _edge_table(self.triangles)
        edges = raw[counts[inv] == 1]
        e = self.points[edges[:, 1]] - self.points[edges[:, 0]]
        n = np.column_stack([e[:, 1], -e[:, 0]])
        n /= np.hypot(n[:, 0], n[:, 1])[:, None]
        return edges, n

    def basis_gradients(self):
        """Gradients of the three P1 basis functions per triangle, (m, 3, 2):
        a read-only view of the data of :meth:`gradient_operator`, the only
        stored copy.

        Both are computed on first use and cached on the mesh.
        """
        if self._gradients is None:
            m = len(self.triangles)
            p = self.points[self.triangles]
            v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
            # g[t, d, i]: derivative d of corner i's basis function
            g = np.empty((m, 2, 3))
            g[:, 0, 0] = v1[:, 1] - v2[:, 1]
            g[:, 1, 0] = v2[:, 0] - v1[:, 0]
            g[:, 0, 1] = v2[:, 1] - v0[:, 1]
            g[:, 1, 1] = v0[:, 0] - v2[:, 0]
            g[:, 0, 2] = v0[:, 1] - v1[:, 1]
            g[:, 1, 2] = v1[:, 0] - v0[:, 0]
            g /= 2.0 * self.areas[:, None, None]
            corners = np.repeat(self.triangles.astype(np.int32)[:, None], 2,
                                axis=1)
            op = sp.csr_matrix(
                (g.reshape(-1), corners.reshape(-1),
                 np.arange(0, 6 * m + 1, 3, dtype=np.int32)),
                shape=(2 * m, self.n_points))
            for arr in (g, op.data, op.indices, op.indptr):
                arr.setflags(write=False)
            self._gradients = (op, g.transpose(0, 2, 1))
        return self._gradients[1]

    def gradient_operator(self):
        """The P1 gradient as a read-only CSR matrix G, (2m, n): row 2 t + d
        holds derivative d of the basis functions of triangle t's corners,
        in corner order, so ``G @ c`` stacks the triangle gradients of the
        P1 function with coefficients c.  Cached with
        :meth:`basis_gradients`, whose values are its data."""
        if self._gradients is None:
            self.basis_gradients()
        return self._gradients[0]

    def basis_products(self):
        """grad phi_i . grad phi_j per triangle, (m, 3, 3): the element
        stiffness matrices over unit area.

        Computed on first use and cached read-only on the mesh.
        """
        if self._basis_products is None:
            gb = self.basis_gradients()
            k = np.einsum("tid,tjd->tij", gb, gb)
            k.setflags(write=False)
            self._basis_products = k
        return self._basis_products

    def p1_pattern(self):
        """CSR pattern of P1 matrices on this mesh (cached, read-only)."""
        if self._p1_pattern is None:
            self._p1_pattern = P1Pattern(self)
        return self._p1_pattern

    def locate(self, pts):
        """Containing triangle and barycentric coordinates for query points.

        Returns (tri_index, bary); tri_index is -1 for points outside the
        mesh (beyond :data:`LOCATE_TOL`).
        """
        if self._locator is None:
            self._locator = _Locator(self)
        return self._locator.query(np.atleast_2d(np.asarray(pts, float)))

    def locate_lattice(self, window):
        """:meth:`locate` of the points of a lattice window.

        ``window`` is (origin, spacing, nx, ny); the points come in the
        row-major order of their (nx, ny) grid, see :func:`lattice_points`.
        The result is cached read-only on the mesh per window.
        """
        origin, spacing, nx, ny = window
        key = (float(origin[0]), float(origin[1]), float(spacing), int(nx),
               int(ny))
        found = self._lattices.get(key)
        if found is None:
            gx, gy = lattice_points(window)
            found = self.locate(np.column_stack([gx.ravel(), gy.ravel()]))
            for arr in found:
                arr.setflags(write=False)
            self._lattices[key] = found
        return found

    def __repr__(self):
        return (f"TriMesh({self.n_points} points, {self.n_triangles} "
                f"triangles, h={self.h:.4g})")


def _edge_table(t):
    """Edges (0, 1), (1, 2), (2, 0) of the triangles ``t``, one block per
    corner pair, and the table of unique sorted edges: ``uniq``, each raw
    edge's row ``inv`` in it and each unique edge's triangle ``counts``.
    ``t`` is int64, as a :class:`TriMesh` holds it; the edge (lo, hi) is
    keyed lo n + hi, which sorts as the pair does."""
    raw = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    lo, hi = raw.min(axis=1), raw.max(axis=1)
    n = int(hi.max(initial=0)) + 1
    keys, inv, counts = np.unique(lo * n + hi, return_inverse=True,
                                  return_counts=True)
    return raw, np.column_stack([keys // n, keys % n]), inv, counts


def _signed_areas(points, triangles):
    """Signed triangle areas, positive for counterclockwise corners."""
    p = points[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def lattice_points(window):
    """Coordinates (x, y) of a lattice window (origin, spacing, nx, ny):
    two (nx, ny) arrays, point (ix, iy) at origin + (ix, iy) * spacing."""
    origin, spacing, nx, ny = window
    xs = origin[0] + spacing * np.arange(nx)
    ys = origin[1] + spacing * np.arange(ny)
    return np.meshgrid(xs, ys, indexing="ij")


def _csr_index(rows, cols, n):
    """CSR indptr and indices (int32) of sorted (row, col) pairs."""
    return (np.searchsorted(rows, np.arange(n + 1)).astype(np.int32),
            cols.astype(np.int32))


class P1Pattern:
    """Sparsity of P1 matrices on a mesh: the vertex graph and the diagonal.

    Entry (i, j) of triangle t's local matrix lands in data slot
    ``scatter[9 t + 3 i + j]`` of the sorted CSR pattern (``indptr``,
    ``indices``).  ``interior_slots`` picks, in CSR order, the slots of the
    principal submatrix on the ``interior`` vertices, whose own pattern is
    (``interior_indptr``, ``interior_indices``).  Index arrays are int32,
    which scipy matrices share without a copy.
    """

    def __init__(self, mesh):
        n = mesh.n_points
        t = mesh.triangles
        keys, scatter = np.unique(
            (np.repeat(t, 3, axis=1) * n + np.tile(t, (1, 3))).ravel(),
            return_inverse=True)
        self.scatter = scatter.astype(np.int32)
        rows, cols = np.divmod(keys, n)
        inside = ~mesh.is_boundary
        self.interior = np.flatnonzero(inside)
        self.interior_slots = np.flatnonzero(inside[rows] & inside[cols])
        renumber = np.cumsum(inside) - 1
        sub = self.interior_slots
        self.indptr, self.indices = _csr_index(rows, cols, n)
        self.interior_indptr, self.interior_indices = _csr_index(
            renumber[rows[sub]], renumber[cols[sub]], len(self.interior))
        for arr in vars(self).values():
            arr.setflags(write=False)


def _segments(counts):
    """Expand segment lengths: each entry's segment index and its offset
    within the segment, segments in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


class _Locator:
    """Point location by uniform bins over triangle bounding boxes.

    The bins are an n x n grid over the mesh's bounding box, n = floor(sqrt
    of the triangle count).  ``indptr``/``candidates`` list, in CSR form,
    the triangles whose bounding box meets each bin (bin id ix * n + iy),
    in ascending triangle order.
    """

    # query points per batch, which bounds the candidate arrays
    BATCH = 1 << 13

    def __init__(self, mesh):
        self.mesh = mesh
        p = mesh.points[mesh.triangles]
        lo = mesh.points.min(axis=0)
        hi = mesh.points.max(axis=0)
        span = np.maximum(hi - lo, 1e-300)
        n = max(1, int(math.sqrt(mesh.n_triangles)))
        self.lo, self.n = lo, n
        self.cell = span / n
        i0 = self._cells(p.min(axis=1))
        nx, ny = (self._cells(p.max(axis=1)) - i0 + 1).T
        tri, k = _segments(nx * ny)
        bins = (i0[tri, 0] + k // ny[tri]) * n + i0[tri, 1] + k % ny[tri]
        order = np.argsort(bins, kind="stable")
        self.candidates = tri[order]
        self.indptr = np.searchsorted(bins[order], np.arange(n * n + 1))

    def _cells(self, pts):
        return np.clip(((pts - self.lo) / self.cell).astype(int), 0,
                       self.n - 1)

    def query(self, pts):
        """For each point, the first candidate of its bin that contains it
        (all barycentric coordinates >= 0), else the first one whose
        smallest coordinate is largest, kept if that is >= -LOCATE_TOL."""
        out_t = np.full(len(pts), -1, dtype=np.int64)
        out_b = np.zeros((len(pts), 3))
        for start in range(0, len(pts), self.BATCH):
            sl = slice(start, start + self.BATCH)
            self._query(pts[sl], out_t[sl], out_b[sl])
        return out_t, out_b

    def _query(self, pts, out_t, out_b):
        mesh = self.mesh
        cells = self._cells(pts)
        bin_id = cells[:, 0] * self.n + cells[:, 1]
        first = self.indptr[bin_id]
        count = self.indptr[bin_id + 1] - first
        # (point, candidate) pairs, grouped by point in bin order
        pt, j = _segments(count)
        t = self.candidates[first[pt] + j]
        a, b, c = (mesh.points[mesh.triangles[t, i]] for i in range(3))
        det = 2.0 * mesh.areas[t]
        px, py = pts[pt, 0], pts[pt, 1]
        l0 = ((b[:, 1] - c[:, 1]) * (px - c[:, 0])
              + (c[:, 0] - b[:, 0]) * (py - c[:, 1])) / det
        l1 = ((c[:, 1] - a[:, 1]) * (px - c[:, 0])
              + (a[:, 0] - c[:, 0]) * (py - c[:, 1])) / det
        l2 = 1.0 - l0 - l1
        m = np.minimum(np.minimum(l0, l1), l2)
        # containing candidates tie at the top, so the first candidate with
        # the largest key is the first containing one if there is one
        key = np.where(m >= 0, np.inf, np.where(np.isnan(m), -np.inf, m))
        order = np.lexsort((np.arange(len(pt)), -key, pt))
        rows = np.flatnonzero(count)
        best = order[(np.cumsum(count) - count)[rows]]
        keep = m[best] >= -LOCATE_TOL
        sel = best[keep]
        out_t[rows[keep]] = t[sel]
        out_b[rows[keep]] = np.column_stack([l0[sel], l1[sel], l2[sel]])


def _resample_boundary(dom: ConvexDomain, spacing: float):
    """Boundary sample points at roughly uniform arclength spacing.

    Polyline vertices with a sharp turn (above the minimum-angle floor) are
    always kept; everything between sharp corners is resampled along the
    polyline, so all samples lie exactly on the boundary.
    """
    poly = dom.polyline
    turn = _turns(poly)[2]
    sharp = np.flatnonzero(turn > np.radians(MIN_ANGLE_DEG))
    anchors = np.union1d(sharp, dom.boundary_anchors)

    def resample_run(run_pts, closed=False):
        seg = np.diff(run_pts, axis=0)
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        arclen = np.concatenate([[0.0], np.cumsum(seglen)])
        total = arclen[-1]
        nseg = max(1, int(round(total / spacing)))
        if closed:
            nseg = max(3, nseg)
            s = total * np.arange(nseg) / nseg
        else:
            s = total * np.arange(nseg + 1)[1:-1] / nseg
        if len(s) == 0:
            return np.empty((0, 2))
        idx = np.clip(np.searchsorted(arclen, s, side="right") - 1, 0,
                      len(seglen) - 1)
        frac = (s - arclen[idx]) / seglen[idx]
        return run_pts[idx] + frac[:, None] * seg[idx]

    if len(anchors) == 0:
        return resample_run(np.vstack([poly, poly[:1]]), closed=True)
    pieces = []
    for a, b in zip(anchors, np.roll(anchors, -1)):
        if b > a:
            run = poly[a:b + 1]
        else:
            run = np.vstack([poly[a:], poly[:b + 1]])
        pieces.append(poly[a][None, :])
        pieces.append(resample_run(run))
    return np.vstack(pieces)


def _hex_lattice(dom: ConvexDomain, spacing: float, clearance: float):
    lo, hi = dom.bounding_box()
    dy = spacing * math.sqrt(3.0) / 2.0
    ny = int(math.floor((hi[1] - lo[1]) / dy)) + 1
    rows = []
    for j in range(ny):
        y = lo[1] + j * dy
        off = 0.5 * spacing if j % 2 else 0.0
        nx = int(math.floor((hi[0] - lo[0] - off) / spacing)) + 1
        x = lo[0] + off + spacing * np.arange(nx)
        rows.append(np.column_stack([x, np.full(nx, y)]))
    pts = np.vstack(rows) if rows else np.empty((0, 2))
    if len(pts) == 0:
        return pts
    keep = dom.line_distance(pts) >= clearance
    return pts[keep]


def _delaunay_triangles(points):
    t = Delaunay(points).simplices.astype(np.int64)
    area = _signed_areas(points, t)
    t[area < 0] = t[area < 0][:, [0, 2, 1]]
    t = _canonical_order(t[area != 0])
    # a sliver of nearly collinear points can have a tiny area in Delaunay's
    # corner order that rounds to zero or below in the final order, which
    # is the order TriMesh checks
    return t[_signed_areas(points, t) > 0]


def _canonical_order(t):
    """Rotate each triangle's smallest index first (orientation preserved),
    then sort rows lexicographically, for bit-stable output."""
    rot = np.argmin(t, axis=1)
    for r in (1, 2):
        m = rot == r
        t[m] = np.roll(t[m], -r, axis=1)
    return t[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))]


def _any_corner(mask, tri):
    """Whether each triangle of ``tri`` has a corner in the point ``mask``."""
    return mask[tri[:, 0]] | mask[tri[:, 1]] | mask[tri[:, 2]]


def _smooth_round(points, tri, movable):
    """One Laplacian sweep: each ``movable`` point that has a neighbour in
    ``tri`` moves to the mean of its neighbours, an edge counting once per
    triangle that has it.  Freezing the far interior keeps the hexagonal
    lattice bit-identical across domains that differ only near the boundary.
    Only triangles with a movable corner add terms, and only to movable
    points, so the others are left out.
    """
    a, b, c = tri[_any_corner(movable, tri)].T
    # per target, the terms are summed in the order of six passes over the
    # triangles, ascending in each: (a <- b), (b <- a), (b <- c), (c <- b),
    # (c <- a), (a <- c)
    targets = np.concatenate([a, b, b, c, c, a])
    sources = np.concatenate([b, a, c, b, a, c])
    count = np.bincount(targets, minlength=len(points))
    ok = movable & (count > 0)
    out = points.copy()
    for d in (0, 1):
        total = np.bincount(targets, weights=points[sources, d],
                            minlength=len(points))
        out[ok, d] = total[ok] / count[ok]
    return out


def _incircle(a, b, c, d):
    """Sign of the in-circle determinant of rows ``a``, ``b``, ``c`` (in
    counterclockwise order) and ``d``: 1 where ``d`` is inside the circle
    through the other three, -1 where it is outside, and 0 where the
    determinant is within a relative ``TIE`` of zero against its
    absolute-value sum (Qhull could break the tie either way)."""
    p = [q - d for q in (a, b, c)]
    det = perm = 0.0
    for i in range(3):
        (xi, yi), (xj, yj), (xk, yk) = (p[(i + r) % 3].T for r in range(3))
        lift = xi * xi + yi * yi
        u = xj * yk
        v = xk * yj
        det = det + lift * (u - v)
        perm = perm + lift * (np.abs(u) + np.abs(v))
    return np.where(np.abs(det) <= TIE * perm, 0, np.sign(det))


def _uses_all(tri, n):
    """Whether every one of the ``n`` points is a corner of ``tri``."""
    return bool(np.all(np.bincount(tri.ravel(), minlength=n)))


def _flip_to_delaunay(points, tri, moved=None):
    """The Delaunay triangulation of ``points`` by Lawson flips from
    ``tri``, or None.

    ``tri`` triangulates the points before they moved, in canonical order
    (as this function and ``_delaunay_triangles`` return it), and the
    points on its outer edges did not move.  Each round pairs the
    half-edges by a sorted key, takes the in-circle sign of the interior
    edges it must test and flips an independent set of the illegal edges
    (each triangle in at most one flip).  Flips keep the outer edges, so
    once every interior edge is clearly legal the result is the unique
    Delaunay triangulation of the region they bound (the Delaunay lemma):
    what Qhull returns on ``points``, unless nearly collinear outer points
    let the two differ by slivers along them.  None means the certificate
    fails: a point is no corner of ``tri``, a triangle of ``tri`` or of the
    result in canonical order has area <= 0, an edge is within ``TIE`` of
    cocircular, or ``FLIP_ROUNDS`` rounds did not suffice.

    With ``moved`` None every triangle and interior edge is tested.  Given
    ``moved``, a mask of the points that moved, ``tri`` must be what this
    function returned for the points before they moved: its edges were
    certified then, and an edge keeps its sign while its two triangles and
    their points stay.  The first round then tests the triangles with a
    moved corner and the edges of those triangles, and each later round
    the edges of the triangles in an illegal edge of the round before.
    Every illegal edge is among them, so each round flips what a round
    that tests every edge flips.
    """
    m, n = len(tri), len(points)
    dirty = (np.ones(m, dtype=bool) if moved is None
             else _any_corner(moved, tri))
    if (not _uses_all(tri, n)
            or np.any(_signed_areas(points, tri[dirty]) <= 0)):
        return None
    t = tri.copy()
    for rounds in range(FLIP_ROUNDS):
        # the triangles that may share an edge with a dirty one: those with
        # a corner in a dirty triangle
        corner = np.zeros(n, dtype=bool)
        corner[t[dirty]] = True
        near = np.flatnonzero(_any_corner(corner, t))
        # half-edge k len(near) + j runs from corner k of triangle
        # owner = near[j] to corner k + 1, and the third corner is opposite
        sub = t[near].T
        start = sub.ravel()
        end = sub[[1, 2, 0]].ravel()
        opposite = sub[[2, 0, 1]].ravel()
        owner = np.tile(near, 3)
        key = np.minimum(start, end) * n + np.maximum(start, end)
        order = np.argsort(key)
        pair = np.flatnonzero(key[order[1:]] == key[order[:-1]])
        first, second = order[pair], order[pair + 1]
        test = dirty[owner[first]] | dirty[owner[second]]
        first, second = first[test], second[test]
        sign = _incircle(points[start[first]], points[end[first]],
                         points[opposite[first]], points[opposite[second]])
        if not np.all(sign):
            return None
        bad = np.flatnonzero(sign > 0)
        if len(bad) == 0:
            if rounds == 0:  # still ``tri``: canonical, areas checked
                return t
            t = _canonical_order(t)
            return t if np.all(_signed_areas(points, t) > 0) else None
        # flip each illegal edge that is the lowest illegal edge of both
        # its triangles: (a, b, c) and (b, a, d) become (a, d, c), (d, b, c)
        first, second = first[bad], second[bad]
        one, two = owner[first], owner[second]
        dirty = np.zeros(m, dtype=bool)
        dirty[one] = dirty[two] = True
        rank = np.arange(len(bad))
        claim = np.full(m, len(bad))
        np.minimum.at(claim, one, rank)
        np.minimum.at(claim, two, rank)
        take = (claim[one] == rank) & (claim[two] == rank)
        a, b = start[first[take]], end[first[take]]
        c, d = opposite[first[take]], opposite[second[take]]
        t[one[take]] = np.column_stack([a, d, c])
        t[two[take]] = np.column_stack([d, b, c])
    return None


def triangulate_convex(dom: ConvexDomain, h_target: float) -> TriMesh:
    """Conforming triangulation with mesh size at most ``h_target``.

    Boundary vertices lie exactly on the domain boundary; the minimum angle
    is at least 20 degrees.  Identical inputs produce identical meshes.
    """
    if not isinstance(dom, ConvexDomain):
        raise ParameterError("dom must be a ConvexDomain")
    if not (h_target > 0):
        raise ParameterError("h_target must be positive")
    est_triangles = 4.0 * dom.area / (h_target * h_target * math.sqrt(3.0) / 4)
    if est_triangles > MAX_TRIANGLES:
        raise ParameterError(
            f"h_target {h_target} absurdly small: about {est_triangles:.0f} "
            "triangles")

    spacing = h_target / 1.45
    for _attempt in range(6):
        bnd = _resample_boundary(dom, spacing)
        interior = _hex_lattice(dom, spacing, clearance=0.72 * spacing)
        pts = np.vstack([bnd, interior])
        # relax only the ring near the boundary; deep lattice points stay put
        movable = np.zeros(len(pts), dtype=bool)
        movable[len(bnd):] = dom.line_distance(interior) < 2.2 * spacing
        tri = _delaunay_triangles(pts)
        flags = np.arange(len(pts)) < len(bnd)
        # 4 sweeps, then up to 6 more while below the angle floor; a repair
        # of flips' own result tests only what the sweep moved
        certified = False
        for sweep in range(10):
            pts = _smooth_round(pts, tri, movable)
            tri = _flip_to_delaunay(pts, tri, movable if certified else None)
            certified = tri is not None
            if not certified:
                tri = _delaunay_triangles(pts)
            if sweep >= 3:
                mesh = TriMesh(pts, tri, flags)
                angle = mesh.min_angle()
                if angle >= MIN_ANGLE_DEG:
                    break
        if angle < MIN_ANGLE_DEG:
            spacing *= 0.8
            continue
        if mesh.h <= h_target:
            if not _uses_all(tri, len(pts)):
                raise GeometryError("triangulation dropped input points")
            return mesh
        spacing *= 0.95 * h_target / mesh.h
    raise GeometryError(
        f"could not reach min angle {MIN_ANGLE_DEG} deg and h <= {h_target}")


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Split every triangle into 4 congruent children.

    Midpoints of boundary edges are boundary vertices of the child mesh and
    lie on the parent boundary; the mesh size halves exactly and angles are
    preserved.
    """
    t = mesh.triangles
    _, uniq, inv, counts = _edge_table(t)
    mid = 0.5 * (mesh.points[uniq[:, 0]] + mesh.points[uniq[:, 1]])
    mid_idx = mesh.n_points + np.arange(len(uniq))
    points = np.vstack([mesh.points, mid])

    m = len(t)
    m01 = mid_idx[inv[0:m]]
    m12 = mid_idx[inv[m:2 * m]]
    m20 = mid_idx[inv[2 * m:3 * m]]
    children = np.vstack([
        np.column_stack([t[:, 0], m01, m20]),
        np.column_stack([m01, t[:, 1], m12]),
        np.column_stack([m20, m12, t[:, 2]]),
        np.column_stack([m01, m12, m20]),
    ])

    on_boundary_edge = counts == 1
    flags = np.concatenate([mesh.is_boundary, on_boundary_edge])
    return TriMesh(points, _canonical_order(children), flags)


def save_mesh(mesh: TriMesh, path):
    """Write the plain-text mesh format.

    ``$vertices N`` then N lines ``x y flag`` (17 significant digits, flag 1
    for boundary), ``$triangles M`` then M lines of zero-based CCW indices.
    """
    lines = [f"$vertices {mesh.n_points}"]
    for (x, y), b in zip(mesh.points, mesh.is_boundary):
        lines.append(f"{x:.17g} {y:.17g} {1 if b else 0}")
    lines.append(f"$triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> TriMesh:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise GeometryError(f"{path}: truncated mesh file")
        tok = tokens[pos]
        pos += 1
        return tok

    if take() != "$vertices":
        raise GeometryError(f"{path}: expected $vertices header")
    n = int(take())
    pts = np.empty((n, 2))
    flags = np.empty(n, dtype=bool)
    for i in range(n):
        pts[i, 0] = float(take())
        pts[i, 1] = float(take())
        f = take()
        if f not in ("0", "1"):
            raise GeometryError(f"{path}: bad boundary flag {f!r}")
        flags[i] = f == "1"
    if take() != "$triangles":
        raise GeometryError(f"{path}: expected $triangles header")
    m = int(take())
    tri = np.empty((m, 3), dtype=np.int64)
    for i in range(m):
        tri[i] = (int(take()), int(take()), int(take()))
    if pos != len(tokens):
        raise GeometryError(f"{path}: trailing data")
    return TriMesh(pts, tri, flags)
