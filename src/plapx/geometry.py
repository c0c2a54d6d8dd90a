"""Convex domains and conforming P1 triangulations.

Domains are convex polygons, optionally with corners replaced by inscribed
circular arcs (polyline resolution ``arc_segments`` per corner).  Meshing is
deterministic: boundary resampling at roughly uniform arclength, a hexagonal
interior lattice, Delaunay connectivity of the combined point set (exact for
points in convex position), then a few Laplacian smoothing sweeps to enforce
the 20 degree minimum-angle floor.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial import Delaunay

__all__ = [
    "ConvexDomain",
    "TriMesh",
    "P1Pattern",
    "triangulate_convex",
    "lattice_points",
    "refine_uniform",
    "round_corners",
    "boundary_curvature",
    "save_mesh",
    "load_mesh",
    "GeometryError",
    "ParameterError",
]

MIN_ANGLE_DEG = 20.0


class GeometryError(RuntimeError):
    pass


class ParameterError(ValueError):
    pass


def _polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class ConvexDomain:
    """Convex polygon, optionally with rounded corners.

    ``vertices`` are the corner points in counterclockwise order.  With
    ``corner_radius > 0`` every corner is replaced by an inscribed circular
    arc sampled with ``arc_segments`` polyline segments; the effective
    boundary is then the rounded polyline and ``area`` means its area.
    """

    def __init__(self, vertices, corner_radius=0.0, arc_segments=16,
                 _disk_radius=None):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ParameterError("vertices must be an (n, 2) array, n >= 3")
        if not np.all(np.isfinite(v)):
            raise ParameterError("vertices must be finite")
        if corner_radius < 0:
            raise ParameterError("corner_radius must be >= 0")
        if arc_segments < 4:
            raise ParameterError("arc_segments must be >= 4")

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
        self.arc_segments = int(arc_segments)
        self._disk_radius = _disk_radius

        if corner_radius > 0:
            if corner_radius >= 0.5 * elen.min():
                raise ParameterError(
                    "corner_radius must be below half the shortest edge")
            self._polyline, self._arc_id, self._anchors = self._build_rounded()
        else:
            self._polyline = v
            self._arc_id = np.full(len(v), -1, dtype=np.int64)
            self._anchors = np.empty(0, dtype=np.int64)
        self._polyline.setflags(write=False)
        self._arc_id.setflags(write=False)
        self._anchors.setflags(write=False)

    @classmethod
    def unit_square(cls):
        return cls([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

    @classmethod
    def regular_polygon(cls, n, radius=1.0, center=(0.0, 0.0)):
        th = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([center[0] + radius * np.cos(th),
                               center[1] + radius * np.sin(th)])
        return cls(pts)

    @classmethod
    def disk(cls, radius=1.0, segments=64):
        """Disk of given radius, realized as an inscribed regular polygon.

        The polygon is tagged so that sampled boundary curvature reports the
        exact 1/radius instead of the polygonal zero-or-undefined values.
        """
        dom = cls.regular_polygon(segments, radius=radius)
        return cls(dom.vertices, _disk_radius=float(radius))

    def _build_rounded(self):
        v = self.vertices
        n = len(v)
        r = self.corner_radius
        prev_dir = v - np.roll(v, 1, axis=0)
        prev_len = np.hypot(prev_dir[:, 0], prev_dir[:, 1])
        u_in = prev_dir / prev_len[:, None]
        next_dir = np.roll(v, -1, axis=0) - v
        next_len = np.hypot(next_dir[:, 0], next_dir[:, 1])
        u_out = next_dir / next_len[:, None]

        # turn angle at each corner; tangent offset d = r*tan(turn/2)
        cosphi = np.clip(np.einsum("ij,ij->i", u_in, u_out), -1.0, 1.0)
        phi = np.arccos(cosphi)
        d = r * np.tan(0.5 * phi)
        for k in range(n):
            if d[k] + d[(k + 1) % n] > next_len[k] + 1e-12 * next_len[k]:
                raise ParameterError(
                    f"corner radius {r} too large for edge {k}")

        pieces = []
        ids = []
        anchors = []
        offset = 0
        for k in range(n):
            if phi[k] < 1e-12:
                pieces.append(v[k][None, :])
                ids.append(np.full(1, -1, dtype=np.int64))
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
            ang = a1 + sweep * np.linspace(0.0, 1.0, self.arc_segments + 1)
            arc = center + r * np.column_stack([np.cos(ang), np.sin(ang)])
            pieces.append(arc)
            ids.append(np.full(self.arc_segments + 1, k, dtype=np.int64))
            # arc endpoints are kept as mesh anchors so boundary resampling
            # stays aligned across different rounding radii
            anchors.extend([offset, offset + self.arc_segments])
            offset += self.arc_segments + 1
        return (np.vstack(pieces), np.concatenate(ids),
                np.asarray(anchors, dtype=np.int64))

    @property
    def polyline(self):
        """Effective boundary polygon, counterclockwise, one row per vertex."""
        return self._polyline

    @property
    def polyline_on_arc(self):
        return self._arc_id >= 0

    @property
    def boundary_anchors(self):
        """Polyline indices always kept as mesh vertices (arc junctions)."""
        return self._anchors

    @property
    def area(self):
        return _polygon_area(self._polyline)

    @property
    def is_disk(self):
        return self._disk_radius is not None

    def line_distance(self, pts):
        """Conservative interior clearance at points.

        Minimum over boundary edges of the signed distance to the edge line;
        positive inside, and a lower bound for the true distance to the
        boundary, which makes it safe for margin checks.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = self._polyline
        b = np.roll(a, -1, axis=0)
        e = b - a
        elen = np.hypot(e[:, 0], e[:, 1])
        dx = pts[:, None, 0] - a[None, :, 0]
        dy = pts[:, None, 1] - a[None, :, 1]
        cross = e[None, :, 0] * dy - e[None, :, 1] * dx
        return np.min(cross / elen[None, :], axis=1)

    def contains(self, pts, margin=0.0):
        return self.line_distance(pts) >= margin

    def boundary_distance(self, pts):
        """Exact unsigned distance from points to the boundary polyline."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = self._polyline
        b = np.roll(a, -1, axis=0)
        e = b - a
        ee = np.einsum("ij,ij->i", e, e)
        dx = pts[:, None, 0] - a[None, :, 0]
        dy = pts[:, None, 1] - a[None, :, 1]
        t = np.clip((dx * e[None, :, 0] + dy * e[None, :, 1]) / ee[None, :],
                    0.0, 1.0)
        fx = dx - t * e[None, :, 0]
        fy = dy - t * e[None, :, 1]
        return np.min(np.hypot(fx, fy), axis=1)

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
            sub = pts[outside]
            a = self._polyline
            e = np.roll(a, -1, axis=0) - a
            ee = np.einsum("ij,ij->i", e, e)
            dx = sub[:, None, 0] - a[None, :, 0]
            dy = sub[:, None, 1] - a[None, :, 1]
            t = np.clip((dx * e[None, :, 0] + dy * e[None, :, 1]) / ee[None, :],
                        0.0, 1.0)
            cx = a[None, :, 0] + t * e[None, :, 0]
            cy = a[None, :, 1] + t * e[None, :, 1]
            d2 = (sub[:, None, 0] - cx) ** 2 + (sub[:, None, 1] - cy) ** 2
            best = np.argmin(d2, axis=1)
            rows = np.arange(len(sub))
            out[outside] = np.column_stack([cx[rows, best], cy[rows, best]])
        return out

    def bounding_box(self):
        p = self._polyline
        return p.min(axis=0), p.max(axis=0)

    def __repr__(self):
        kind = "disk" if self.is_disk else "polygon"
        return (f"ConvexDomain({kind}, {len(self.vertices)} corners, "
                f"r={self.corner_radius})")


def round_corners(dom: ConvexDomain, radius: float) -> ConvexDomain:
    """Inscribed-arc rounding of every corner; the result stays convex and
    is contained in the original domain."""
    if radius <= 0:
        raise ParameterError("radius must be positive")
    return ConvexDomain(dom.vertices, corner_radius=radius,
                        arc_segments=dom.arc_segments)


def boundary_curvature(dom: ConvexDomain):
    """Sampled mean curvature H along the boundary.

    Samples at the midpoints of the boundary polyline segments: 1/r on the
    rounded arcs, 0 on the straight runs, and exactly 1/R everywhere on a
    disk domain.  Exact polygons (sharp corners, not a disk) have no defined
    pointwise curvature and raise a :class:`GeometryError`.
    """
    poly = dom.polyline
    mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
    if dom.is_disk:
        return mids, np.full(len(mids), 1.0 / dom._disk_radius)
    if dom.corner_radius == 0:
        raise GeometryError(
            "curvature undefined on a polygon with sharp corners")
    # a segment lies on an arc only when both endpoints belong to the SAME
    # arc; junction-to-junction segments are the straight runs
    ids = dom._arc_id
    nxt = np.roll(ids, -1)
    seg_on_arc = (ids >= 0) & (ids == nxt)
    h = np.where(seg_on_arc, 1.0 / dom.corner_radius, 0.0)
    return mids, h


class TriMesh:
    """Conforming triangle mesh: points, CCW triangles, boundary flags."""

    def __init__(self, points, triangles, is_boundary):
        self.points = np.asarray(points, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.is_boundary = np.asarray(is_boundary, dtype=bool)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise GeometryError("points must be (n, 2)")
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
        self._basis_gradients = None
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
        t = self.triangles
        raw = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        key = np.sort(raw, axis=1)
        uniq, inv, counts = np.unique(key, axis=0, return_inverse=True,
                                      return_counts=True)
        mask = counts[inv] == 1
        edges = raw[mask]
        e = self.points[edges[:, 1]] - self.points[edges[:, 0]]
        n = np.column_stack([e[:, 1], -e[:, 0]])
        n /= np.hypot(n[:, 0], n[:, 1])[:, None]
        return edges, n

    def basis_gradients(self):
        """Gradients of the three P1 basis functions per triangle, (m, 3, 2).

        Computed on first use and cached read-only on the mesh.
        """
        if self._basis_gradients is None:
            p = self.points[self.triangles]
            v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
            g = np.empty((len(self.triangles), 3, 2))
            g[:, 0, 0] = v1[:, 1] - v2[:, 1]
            g[:, 0, 1] = v2[:, 0] - v1[:, 0]
            g[:, 1, 0] = v2[:, 1] - v0[:, 1]
            g[:, 1, 1] = v0[:, 0] - v2[:, 0]
            g[:, 2, 0] = v0[:, 1] - v1[:, 1]
            g[:, 2, 1] = v1[:, 0] - v0[:, 0]
            g /= 2.0 * self.areas[:, None, None]
            g.setflags(write=False)
            self._basis_gradients = g
        return self._basis_gradients

    def p1_pattern(self):
        """CSR pattern of P1 matrices on this mesh (cached, read-only)."""
        if self._p1_pattern is None:
            self._p1_pattern = P1Pattern(self)
        return self._p1_pattern

    def locate(self, pts, tol=1e-10):
        """Containing triangle and barycentric coordinates for query points.

        Returns (tri_index, bary); tri_index is -1 for points outside the
        mesh (beyond the tolerance).
        """
        if self._locator is None:
            self._locator = _Locator(self)
        return self._locator.query(np.atleast_2d(np.asarray(pts, float)), tol)

    def locate_lattice(self, window, tol=1e-10):
        """:meth:`locate` of the points of a lattice window.

        ``window`` is (origin, spacing, nx, ny); the points come in the
        row-major order of their (nx, ny) grid, see :func:`lattice_points`.
        The result is cached read-only on the mesh per (window, tol).
        """
        origin, spacing, nx, ny = window
        key = (float(origin[0]), float(origin[1]), float(spacing), int(nx),
               int(ny), float(tol))
        found = self._lattices.get(key)
        if found is None:
            gx, gy = lattice_points(window)
            found = self.locate(np.column_stack([gx.ravel(), gy.ravel()]),
                                tol)
            for arr in found:
                arr.setflags(write=False)
            self._lattices[key] = found
        return found

    def __repr__(self):
        return (f"TriMesh({self.n_points} points, {self.n_triangles} "
                f"triangles, h={self.h:.4g})")


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
        keys, self.scatter = np.unique(
            (np.repeat(t, 3, axis=1) * n + np.tile(t, (1, 3))).ravel(),
            return_inverse=True)
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

    def query(self, pts, tol):
        """For each point, the first candidate of its bin that contains it
        (all barycentric coordinates >= 0), else the first one whose
        smallest coordinate is largest, kept if that is >= -tol."""
        out_t = np.full(len(pts), -1, dtype=np.int64)
        out_b = np.zeros((len(pts), 3))
        for start in range(0, len(pts), self.BATCH):
            sl = slice(start, start + self.BATCH)
            self._query(pts[sl], tol, out_t[sl], out_b[sl])
        return out_t, out_b

    def _query(self, pts, tol, out_t, out_b):
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
        keep = m[best] >= -tol
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
    u_in = poly - np.roll(poly, 1, axis=0)
    u_in /= np.hypot(u_in[:, 0], u_in[:, 1])[:, None]
    u_out = np.roll(poly, -1, axis=0) - poly
    u_out /= np.hypot(u_out[:, 0], u_out[:, 1])[:, None]
    turn = np.arccos(np.clip(np.einsum("ij,ij->i", u_in, u_out), -1, 1))
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


def _smooth_interior(points, n_boundary, rounds, movable=None):
    """Laplacian smoothing of interior points.

    With a ``movable`` mask, only those points relax; freezing the far
    interior keeps the hexagonal lattice bit-identical across domains that
    differ only near the boundary.
    """
    pts = points.copy()
    if movable is None:
        movable = np.arange(len(pts)) >= n_boundary
    else:
        movable = movable & (np.arange(len(pts)) >= n_boundary)
    for _ in range(rounds):
        tri = _delaunay_triangles(pts)
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
    if est_triangles > 4e5:
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
        pts = _smooth_interior(pts, len(bnd), rounds=4, movable=movable)
        tri = _delaunay_triangles(pts)
        flags = np.arange(len(pts)) < len(bnd)
        mesh = TriMesh(pts, tri, flags)
        # quality loop: extra smoothing sweeps while below the angle floor
        for _round in range(6):
            if mesh.min_angle() >= MIN_ANGLE_DEG:
                break
            pts = _smooth_interior(pts, len(bnd), rounds=1, movable=movable)
            tri = _delaunay_triangles(pts)
            mesh = TriMesh(pts, tri, flags)
        if mesh.min_angle() < MIN_ANGLE_DEG:
            spacing *= 0.8
            continue
        if mesh.h <= h_target:
            if not np.array_equal(np.unique(tri), np.arange(len(pts))):
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
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    key = np.sort(edges, axis=1)
    uniq, inv, counts = np.unique(key, axis=0, return_inverse=True,
                                  return_counts=True)
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
