"""P1 assembly of the regularized variable-exponent problem.

The flux density is (eps + |grad u|^2)^((p(x)-2)/2) grad u.  On P1 elements
the gradient is constant per triangle, so only the exponent and the source
vary inside an element; residual and Jacobian below integrate them with the
context's quadrature rule, and the Jacobian is the exact derivative of the
discrete residual (which is what the finite-difference consistency tests
pin down).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import lattice_points
from .varexp import (QuadratureContext, field_values, EvaluationError,
                     PreconditionError, _check_finite)

__all__ = [
    "P1Function",
    "ReducedSystem",
    "energy",
    "assemble_residual",
    "assemble_jacobian",
    "weighted_stiffness",
    "assemble_load",
    "apply_dirichlet",
]


class P1Function:
    """Piecewise linear function on a TriMesh: one coefficient per vertex,
    copied read-only, so what they determine is cached on the function."""

    def __init__(self, mesh, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (mesh.n_points,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, mesh has "
                f"{mesh.n_points} vertices")
        self.mesh = mesh
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)
        self._gradients = None
        self._recovered = None
        self._flux = None

    @classmethod
    def interpolate(cls, mesh, f):
        vals = field_values(f, mesh.points[:, 0], mesh.points[:, 1])
        return cls(mesh, vals)

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_points))

    def triangle_gradients(self):
        """Constant gradient per triangle, shape (m, 2); read-only."""
        if self._gradients is None:
            g = (self.mesh.gradient_operator() @ self.coeffs).reshape(-1, 2)
            g.setflags(write=False)
            self._gradients = g
        return self._gradients

    def recovered_gradient(self):
        """Continuous P1 gradient (wx, wy) by area-weighted vertex averaging
        of the triangle gradients; computed once and cached.

        Sums run over the corners in order, triangles ascending within each,
        and are then divided by the vertex area sums.
        """
        if self._recovered is None:
            mesh = self.mesh
            corners = mesh.triangles.T.ravel()

            def vertex_sum(values):
                return np.bincount(corners, np.tile(values, 3),
                                   minlength=mesh.n_points)

            weighted = mesh.areas[:, None] * self.triangle_gradients()
            den = vertex_sum(mesh.areas)
            self._recovered = tuple(
                P1Function(mesh, vertex_sum(weighted[:, d]) / den)
                for d in (0, 1))
        return self._recovered

    def quadrature_values(self, qctx: QuadratureContext):
        if qctx.mesh is not self.mesh:
            raise ValueError("quadrature context belongs to a different mesh")
        return np.einsum("qi,ti->tq", qctx.bary,
                         self.coeffs[self.mesh.triangles])

    def _gather(self, tri, bary):
        """Values at located points: barycentric combinations of the
        coefficients at the corners."""
        return np.einsum("kj,kj->k", bary,
                         self.coeffs[self.mesh.triangles[tri]])

    def evaluate(self, x, y):
        """Point evaluation anywhere in the mesh (vectorized)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        pts = np.column_stack([np.broadcast_to(x, shape).ravel(),
                               np.broadcast_to(y, shape).ravel()])
        tri, bary = self.mesh.locate(pts)
        _require_inside(tri, pts[:, 0], pts[:, 1])
        out = self._gather(tri, bary).reshape(shape)
        return float(out) if out.ndim == 0 else out

    def lattice_values(self, window):
        """Values at the points of a lattice window (origin, spacing, nx,
        ny), shape (nx, ny); the same numbers as :meth:`evaluate` there.

        The points are located once per (mesh, window), and the location
        is cached on the mesh.
        """
        tri, bary = self.mesh.locate_lattice(window)
        if np.any(tri < 0):
            gx, gy = lattice_points(window)
            _require_inside(tri, gx.ravel(), gy.ravel())
        return self._gather(tri, bary).reshape(window[2], window[3])

    def __repr__(self):
        return f"P1Function({self.mesh.n_points} dofs)"


def _require_inside(tri, x, y):
    missing = tri < 0
    if np.any(missing):
        k = int(np.flatnonzero(missing)[0])
        raise EvaluationError("point outside the mesh", x[k], y[k])


def _check_eps(eps, allow_zero=False):
    lo_ok = eps >= 0 if allow_zero else eps > 0
    if not (lo_ok and eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def _half_exponent(pv, qctx):
    """(p - 2) / 2 at the nodes of qctx: the power of v2 in the flux
    kernel.  Kept read-only on qctx for the last read-only ``pv``, matched
    by identity, so a solve derives it once."""
    kept = qctx.kernel_exponent
    if kept is not None and kept[0] is pv:
        return kept[1]
    half = 0.5 * (pv - 2.0)
    if not pv.flags.writeable:
        half.setflags(write=False)
        qctx.kernel_exponent = (pv, half)
    return half


def _gradient_data(u: P1Function, p, eps, qctx: QuadratureContext):
    """The flux kernel of the iterate u: gu, v2 = eps + |gu|^2, pv = p at
    the nodes, s1 = sum_q w v^(p-2) and s2 = sum_q w (p-2) v^(p-2).  Kept on
    u for the last (p, eps, qctx), matched by identity (never on a writable
    array p); for an array p, pv is p and the entry adds per-triangle
    arrays only.  A miss takes one power of v2 at the nodes and two
    weighted sums over them.  pv and v2 are checked finite on every miss,
    and s1 and s2 for eps > 0; at eps = 0 flat triangles make them infinite
    (unread)."""
    hit = u._flux
    if (hit is not None and hit[0] is p and hit[1] == eps and hit[2] is qctx
            and not (isinstance(p, np.ndarray) and p.flags.writeable)):
        return hit[3:]
    gu = u.triangle_gradients()
    pv = field_values(p, qctx.x, qctx.y)
    _check_finite(pv, qctx, "exponent")
    half = _half_exponent(pv, qctx)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # |gu|^2 as explicit products in einsum's order: the same bits
        v2 = (gu[:, 0] * gu[:, 0] + gu[:, 1] * gu[:, 1]) + eps
        vpow = v2[:, None] ** half
        s1 = np.einsum("tq,tq->t", qctx.weights, vpow)
        # 2 w half is w (p - 2) exactly
        s2 = 2.0 * np.einsum("tq,tq,tq->t", qctx.weights, half, vpow)
    checked = {"v2": v2, "s1": s1, "s2": s2} if eps > 0 else {"v2": v2}
    for name, vals in checked.items():
        if not np.isfinite(vals).all():
            # named at the first quadrature node of the first bad triangle
            _check_finite(vals[:, None], qctx, f"flux kernel {name}")
    data = (gu, v2, pv, s1, s2)
    u._flux = (p, eps, qctx) + data
    return data


def energy(u: P1Function, p, eps, qctx: QuadratureContext) -> float:
    """J(u) = integral of (1/p(x)) (|grad u|^2 + eps)^(p(x)/2)."""
    _check_eps(eps, allow_zero=True)
    _, v2, pv, _, _ = _gradient_data(u, p, eps, qctx)
    # one node array, updated in place
    dens = 0.5 * pv
    with np.errstate(over="ignore"):
        np.power(v2[:, None], dens, out=dens)
    dens /= pv
    dens *= qctx.weights
    return float(np.sum(dens))


def _basis_dot(mesh, gu, scale=None):
    """grad phi_i . gu per triangle and corner i, (m, 3), each basis
    gradient times ``scale`` first if given: explicit products summed over
    d in einsum's order, so einsum("tid,td->ti") and einsum("t,tid,td->ti")
    give the same bits.  Formed corner by corner, which reads the strided
    view of the basis gradients faster than broadcasting over it."""
    gb = mesh.basis_gradients()
    x, y = gu[:, 0].copy(), gu[:, 1].copy()
    out = np.empty(gb.shape[:2])
    for i in range(3):
        gx, gy = gb[:, i, 0], gb[:, i, 1]
        if scale is not None:
            gx, gy = scale * gx, scale * gy
        out[:, i] = gx * x + gy * y
    return out


def _vertex_sum(mesh, local):
    """Sum per-triangle vertex contributions (m, 3) into a vertex vector."""
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.n_points)


def assemble_load(f, qctx: QuadratureContext):
    """Load vector (integral of f phi_i) over all vertices."""
    fv = field_values(f, qctx.x, qctx.y)
    _check_finite(fv, qctx, "source")
    local = np.einsum("tq,qi->ti", qctx.weights * fv, qctx.bary)
    return _vertex_sum(qctx.mesh, local)


def _verify_boundary_values(u: P1Function, g_data):
    mesh = u.mesh
    bnd = mesh.is_boundary
    want = field_values(g_data, mesh.points[bnd, 0], mesh.points[bnd, 1])
    err = np.abs(u.coeffs[bnd] - want)
    scale = 1.0 + np.max(np.abs(want)) if want.size else 1.0
    if err.size and np.max(err) > 1e-9 * scale:
        k = int(np.argmax(err))
        pt = mesh.points[bnd][k]
        raise PreconditionError(
            f"iterate violates Dirichlet data by {np.max(err):.3e}",
            pt[0], pt[1])


def assemble_residual(u: P1Function, p, f, eps, qctx: QuadratureContext,
                      g_data=None, load=None):
    """Residual of the discrete regularized problem.

    Rows are the interior vertex equations; boundary rows are zero.  When
    ``g_data`` is passed, the iterate is checked against it first.  A
    ``load`` vector assembled beforehand from ``f`` saves reassembling it.
    """
    _check_eps(eps)
    if g_data is not None:
        _verify_boundary_values(u, g_data)
    mesh = u.mesh
    gu, _, _, s1, _ = _gradient_data(u, p, eps, qctx)
    R = _vertex_sum(mesh, _basis_dot(mesh, gu, s1))
    R -= assemble_load(f, qctx) if load is None else load
    R[mesh.is_boundary] = 0.0
    return R


# triangles whose local matrices the flux operator forms at once
OPERATOR_BATCH = 4096


def _flux_operator(u: P1Function, p, eps, qctx: QuadratureContext,
                   linearize) -> sp.csr_matrix:
    """Integral of v^(p-2) grad phi_j . grad phi_i at the iterate, plus the
    derivative of the coefficient v^(p-2) when ``linearize``.

    The local matrices are exactly symmetric and are summed into the mesh's
    fixed P1 pattern, so the assembled matrix is exactly symmetric too.
    """
    _check_eps(eps)
    mesh = u.mesh
    gu, v2, _, s1, s2 = _gradient_data(u, p, eps, qctx)
    products = mesh.basis_products()
    local = np.empty(products.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if linearize:
            du = _basis_dot(mesh, gu)
            c = s2 / v2
        # in batches of triangles, which bounds the temporaries
        for lo in range(0, len(local), OPERATOR_BATCH):
            sl = slice(lo, lo + OPERATOR_BATCH)
            np.multiply(s1[sl, None, None], products[sl], out=local[sl])
            if linearize:
                local[sl] += (c[sl, None, None]
                              * np.einsum("ti,tj->tij", du[sl], du[sl]))
    pat = mesh.p1_pattern()
    data = np.bincount(pat.scatter, weights=local.ravel(),
                       minlength=len(pat.indices))
    if not np.isfinite(data).all():
        # named at the row vertex of the first bad entry
        k = int(np.flatnonzero(~np.isfinite(data))[0])
        row = int(np.searchsorted(pat.indptr, k, side="right")) - 1
        what = "Jacobian" if linearize else "operator"
        raise EvaluationError(f"non-finite {what} entry", *mesh.points[row])
    return sp.csr_matrix((data, pat.indices, pat.indptr),
                         shape=(mesh.n_points,) * 2)


def assemble_jacobian(u: P1Function, p, eps,
                      qctx: QuadratureContext) -> sp.csr_matrix:
    """Derivative of the residual flux term; symmetric, SPD on the interior
    subspace for exponents above 1."""
    return _flux_operator(u, p, eps, qctx, linearize=True)


def weighted_stiffness(u: P1Function, p, eps,
                       qctx: QuadratureContext) -> sp.csr_matrix:
    """Frozen-coefficient operator: integral of v^(p-2) grad phi_j . grad
    phi_i with v evaluated at the current iterate; with p = 2 it is the
    plain stiffness matrix of the Poisson start."""
    return _flux_operator(u, p, eps, qctx, linearize=False)


class ReducedSystem:
    """Interior system after symmetric Dirichlet condensation."""

    def __init__(self, operator, rhs, boundary_values, interior_index):
        self.operator = operator
        self.rhs = rhs
        self.boundary_values = boundary_values
        self.interior_index = interior_index

    def expand(self, x_interior):
        """Full coefficient vector from the interior solution."""
        full = self.boundary_values.copy()
        full[self.interior_index] = x_interior
        return full


def apply_dirichlet(A, b, mesh, g) -> ReducedSystem:
    """Condense Dirichlet data out of the full system symmetrically.

    ``A`` must be assembled on the mesh's P1 pattern, as every operator
    here is.  Boundary coefficients are the vertex interpolation of ``g``;
    the reduced right-hand side absorbs the coupling, so the reduced
    operator is the symmetric interior principal submatrix.
    """
    A = A.tocsr()
    pat = mesh.p1_pattern()
    if not (np.array_equal(A.indptr, pat.indptr)
            and np.array_equal(A.indices, pat.indices)):
        raise ValueError("matrix is not assembled on the mesh's P1 pattern")
    bnd = mesh.is_boundary
    interior = pat.interior
    gvals = np.zeros(mesh.n_points)
    gvals[bnd] = field_values(g, mesh.points[bnd, 0], mesh.points[bnd, 1])
    rhs = b[interior] - (A @ gvals)[interior]
    reduced = sp.csr_matrix(
        (A.data[pat.interior_slots], pat.interior_indices,
         pat.interior_indptr), shape=(len(interior), len(interior)))
    return ReducedSystem(reduced, rhs, gvals, interior)
