"""Damped Newton continuation for the regularized problem.

One solve fixes eps and drives the residual of the discrete system to
tolerance with Newton steps, backtracking on the residual norm, and raises
:class:`NewtonError` when the line search finds no step or the step budget
runs out.  Continuation sweeps eps geometrically from eps_start to
eps_stop, starting each solve after the second from the secant prediction
through the two previous solutions, and records the diagnostics used by
the sweep commands.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import regularity
from .assembly import (P1Function, apply_dirichlet, assemble_jacobian,
                       assemble_load, assemble_residual, energy,
                       weighted_stiffness)
from .expressions import FieldEvaluationError
from .geometry import triangulate_convex
from .varexp import (ExponentField, QuadratureContext, _check_finite,
                     field_values)

__all__ = [
    "ProblemSpec",
    "SolveReport",
    "EpsRecord",
    "SolveStats",
    "DiscreteProblem",
    "solve_regularized",
    "continuation_solve",
    "linear_solve",
    "LaggedFactor",
    "validate_spec",
    "masked_source",
    "with_mollified_exponent",
    "LinearSolveError",
    "NewtonError",
    "HypothesisError",
    "SOLVE_ERRORS",
]


class LinearSolveError(RuntimeError):
    pass


class HypothesisError(ValueError):
    """A standing assumption of the problem class is violated."""


class NewtonError(RuntimeError):
    """Nonconvergence; carries the best iterate and the residual history."""

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = list(history or [])


# Failures of one continuation solve that the commands record and survive,
# among them fields that cannot be evaluated or that break the hypotheses,
# and domains too thin for the lattice window of the H2 estimate.
SOLVE_ERRORS = (NewtonError, LinearSolveError, FieldEvaluationError,
                HypothesisError, regularity.SamplingError)


@dataclass
class ProblemSpec:
    """Everything needed to pose and solve one problem instance."""

    domain: object
    p: ExponentField
    f: object
    g: object
    q: ExponentField
    eps_start: float = 1.0
    eps_stop: float = 1e-6
    eps_factor: float = 10.0 ** -0.5
    mesh_h: float = 0.1
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps_stop <= self.eps_start <= 1.0):
            raise ValueError("need 0 < eps_stop <= eps_start <= 1")
        if not (0.0 < self.eps_factor < 1.0):
            raise ValueError("eps_factor must lie in (0, 1)")
        if not (self.newton_tol > 0):
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if not (self.mesh_h > 0):
            raise ValueError("mesh_h must be positive")

    def eps_schedule(self):
        values = []
        e = self.eps_start
        while e > self.eps_stop * (1.0 + 1e-9):
            values.append(e)
            e *= self.eps_factor
        values.append(self.eps_stop)
        return values


@dataclass
class SolveStats:
    """One fixed-eps solve: residuals and Newton step sizes
    (``used_fallback`` is always False; perfbench's tracer reads it)."""

    iterations: int
    final_residual: float
    residual_history: list
    step_sizes: list
    converged: bool
    used_fallback: bool = False


@dataclass
class EpsRecord:
    eps: float
    newton_iterations: int
    final_residual: float
    energy: float
    grad_lp_norm: float
    h2_dq: float
    h2_recovery: float
    meas_A1: float
    meas_A2: float
    meas_Omega1: float
    converged: bool = True

    COLUMNS = ("eps", "newton_iterations", "final_residual", "energy",
               "grad_lp_norm", "h2_dq", "h2_recovery", "meas_A1", "meas_A2",
               "meas_Omega1")

    def row(self):
        return [getattr(self, name) for name in self.COLUMNS]


@dataclass
class SolveReport:
    records: list
    solution: P1Function
    mesh: object
    warnings: list = dc_field(default_factory=list)

    def final(self) -> EpsRecord:
        return self.records[-1]


# PCG iterations allowed with a kept factor before the matrix is factored
# afresh.  One factorization of the interior system at h = 0.01 costs about
# as much as 28 to 32 iterations (one triangular solve pair and one product
# each).
PCG_MAX_ITER = 25

# Largest normwise backward error ||b - Ax|| / (||A|| ||x|| + ||b||), in the
# infinity norm, at which a solve that misses its relative residual target is
# still accepted.  Forming r = b - Ax in floating point alone can err by
# (k + 1) u (|A| |x| + |b|) in a row with k stored entries, u = eps / 2, so a
# residual cannot show a backward error below a few eps even for the exact
# solution; 16 eps covers rows of up to 31 entries (a P1 row holds the vertex
# degree plus one).
BACKWARD_ERROR_TOL = 16.0 * np.finfo(float).eps


@dataclass
class LaggedFactor:
    """The factor one continuation solve keeps to precondition later systems.

    :func:`linear_solve` fills and replaces ``lu``; nothing else touches it.
    Each :class:`DiscreteProblem` owns one, so threads never share a factor.
    """

    lu: object = None


def _factor(A):
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _pcg(A, b, lu, atol):
    """CG from zero on A x = b, preconditioned by the factor ``lu``.

    Returns x once the true residual norm is at most ``atol``, or None after
    a curvature breakdown (d.Ad <= 0, r.z <= 0 or a non-finite value) or
    PCG_MAX_ITER iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = lu.solve(r)
    rz = float(r @ z)
    d = z
    for _ in range(PCG_MAX_ITER):
        Ad = A @ d
        dAd = float(d @ Ad)
        if not (0.0 < dAd < math.inf and 0.0 < rz < math.inf):
            return None
        alpha = rz / dAd
        x += alpha * d
        r -= alpha * Ad
        if np.linalg.norm(r) <= atol:
            # the recursive residual drifts from the true one: test the
            # latter, and go on from it if it still misses
            r = b - A @ x
            if np.linalg.norm(r) <= atol:
                return x
        z = lu.solve(r)
        rz_old, rz = rz, float(r @ z)
        d = z + (rz / rz_old) * d
    return None


def _backward_error(A, b, x):
    """Normwise backward error of ``x`` (Rigal and Gaches), infinity norm;
    inf when it is not a number."""
    r = b - A @ x
    scale = (spla.norm(A, np.inf) * np.linalg.norm(x, np.inf)
             + np.linalg.norm(b, np.inf))
    error = float(np.linalg.norm(r, np.inf) / scale)
    return math.inf if math.isnan(error) else error


def linear_solve(A, b, rel_tol=1e-12, lagged=None):
    """Solve the SPD system A x = b to ||b - Ax||_2 <= rel_tol ||b||_2.

    The default 1e-12 holds for every caller but the Newton corrections of
    :func:`solve_regularized`, which stop once the linear residual is a
    tenth of ``newton_tol`` (see :meth:`DiscreteProblem.solve_reduced`).

    Given a :class:`LaggedFactor` that holds a factor of a matrix of A's
    shape, CG preconditioned by that factor runs first.  If it breaks down
    or needs more than PCG_MAX_ITER iterations, A itself is factored.

    The factorization is a sparse LU with a symmetric ordering and no
    partial pivoting, so an indefinite matrix shows up as a nonpositive
    pivot and is reported by index; the solve takes up to three steps of
    iterative refinement.  After a pivot-checked solve that reaches the
    target, ``lagged`` receives a second factor of A: the same pivots, but
    its ``U`` is never read, so scipy never builds and caches CSC copies of
    L and U on it.

    The refined LU solution is the only candidate.  If it misses the
    target, it is still accepted when its normwise backward error is at
    most BACKWARD_ERROR_TOL.  ``lagged`` is then left empty: the next
    system of the solve is most likely as far out of reach, so it is
    factored at once instead of after PCG_MAX_ITER futile iterations.
    Otherwise, and when SuperLU fails before any solution exists,
    :class:`LinearSolveError` is raised.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError("shape mismatch in linear_solve")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    atol = rel_tol * bnorm

    if lagged is not None:
        if lagged.lu is not None and lagged.lu.shape == A.shape:
            x = _pcg(A, b, lagged.lu, atol)
            if x is not None:
                return x
        lagged.lu = None  # release the old factor before building the next

    x = None
    try:
        lu = _factor(A)
        dU = lu.U.diagonal()
        bad = np.flatnonzero(~(dU.real > 0))
        if bad.size:
            k = int(bad[0])
            raise LinearSolveError(
                f"non-SPD pivot at elimination index {k} "
                f"(original unknown {int(lu.perm_c[k])})")
        x = lu.solve(b)
        r = b - A @ x
        for _ in range(3):
            if np.linalg.norm(r) <= atol:
                break
            x = x + lu.solve(r)
            r = b - A @ x
        if lagged is not None and np.linalg.norm(r) <= atol:
            del lu
            lagged.lu = _factor(A)
    except LinearSolveError:
        raise
    except (RuntimeError, MemoryError) as err:
        # once set, x is a complete solution; a later failure only stops
        # its refinement or leaves ``lagged`` empty
        if x is None:
            raise LinearSolveError(
                f"could not reach relative residual {rel_tol} "
                f"(SuperLU failed: {type(err).__name__}: {err})") from err

    if np.linalg.norm(b - A @ x) > atol:
        error = _backward_error(A, b, x)
        if not error <= BACKWARD_ERROR_TOL:
            raise LinearSolveError(
                f"could not reach relative residual {rel_tol} "
                f"(backward error {error:.3e})")
    return x


def masked_source(f, p: ExponentField):
    """Source masked to the region where the exponent is at most 2.

    This is the compatibility device for exponents crossing 2: the masked
    source vanishes wherever p > 2 and equals f elsewhere, pointwise.
    """

    class _Masked:
        def evaluate(self, x, y):
            fv = field_values(f, np.asarray(x, float), np.asarray(y, float))
            pv = field_values(p, np.asarray(x, float), np.asarray(y, float))
            return np.where(pv <= 2.0, fv, 0.0)

    return _Masked()


def with_mollified_exponent(spec: ProblemSpec, delta: float) -> ProblemSpec:
    """Spec variant with a mollified exponent and the source re-masked to
    the new {p_delta <= 2} region."""
    from .varexp import mollify_exponent
    p_delta = mollify_exponent(spec.p, delta)
    return dataclasses.replace(spec, p=p_delta,
                               f=masked_source(spec.f, p_delta))


@dataclass(frozen=True)
class DiscreteProblem:
    """What stays fixed while a spec is solved on one mesh.

    Built once per continuation solve: the quadrature context, p at its
    nodes (``pv``), the load vector (f and p checked finite here, once) and
    the Dirichlet values at the boundary vertices, all read-only, and the
    ``warnings`` of :func:`validate_spec`, which checks p and f at the
    nodes while f's values are still at hand; they are not kept.  The mesh
    caches basis gradients and the P1 pattern, each iterate what it
    determines (see :class:`P1Function`).  ``lagged`` holds the factor that
    preconditions every linear solve after the first.
    """

    qctx: QuadratureContext
    pv: np.ndarray
    load: np.ndarray
    g_boundary: np.ndarray
    warnings: tuple
    lagged: LaggedFactor = dc_field(default_factory=LaggedFactor,
                                    compare=False, repr=False)

    @classmethod
    def build(cls, spec: ProblemSpec, mesh):
        qctx = QuadratureContext(mesh)
        fv = field_values(spec.f, qctx.x, qctx.y)
        load = assemble_load(fv, qctx)
        pv = field_values(spec.p, qctx.x, qctx.y)
        _check_finite(pv, qctx, "exponent")
        bnd = mesh.is_boundary
        g_boundary = field_values(spec.g, mesh.points[bnd, 0],
                                  mesh.points[bnd, 1])
        warnings = validate_spec(spec, qctx, pv, fv)
        for arr in (pv, load, g_boundary):
            arr.setflags(write=False)
        return cls(qctx, pv, load, g_boundary, tuple(warnings))

    @property
    def mesh(self):
        return self.qctx.mesh

    def residual(self, u, eps, check_boundary=False):
        return assemble_residual(
            u, self.pv, None, eps, self.qctx, load=self.load,
            g_data=self.g_boundary if check_boundary else None)

    def solve_reduced(self, A, rhs, g, atol=0.0):
        """Solve A u = rhs on the interior with boundary values ``g``.

        The reduced system A' x = b is solved to ||b - A'x||_2 <=
        max(1e-12 ||b||_2, ``atol``).
        """
        sys_ = apply_dirichlet(A, rhs, self.mesh, g)
        bnorm = float(np.linalg.norm(sys_.rhs))
        rel_tol = max(1e-12, atol / bnorm) if bnorm > 0.0 else 1e-12
        return P1Function(self.mesh,
                          sys_.expand(linear_solve(sys_.operator, sys_.rhs,
                                                   rel_tol=rel_tol,
                                                   lagged=self.lagged)))


def solve_regularized(spec: ProblemSpec, eps: float, u0: P1Function,
                      problem=None):
    """Newton solve at fixed eps, starting from ``u0`` (which must satisfy
    the boundary data).  Returns (solution, stats).

    ``problem`` is the spec's :class:`DiscreteProblem` on ``u0``'s mesh;
    it is built here if not passed.
    """
    if problem is None:
        problem = DiscreteProblem.build(spec, u0.mesh)
    mesh = problem.mesh

    u = P1Function(mesh, u0.coeffs)
    R = problem.residual(u, eps, check_boundary=True)
    res = float(np.max(np.abs(R)))
    history = [res]
    steps = []

    for _ in range(spec.newton_max_iter):
        if res <= spec.newton_tol:
            break
        # Newton correction: homogeneous Dirichlet data on the Jacobian.  A
        # linear residual r moves the next residual by about r, and
        # max|r| <= ||r||_2, so solving to ||r||_2 <= newton_tol / 10 costs
        # the next max-norm residual at most a tenth of newton_tol.
        A = assemble_jacobian(u, problem.pv, eps, problem.qctx)
        d = problem.solve_reduced(A, -R, 0.0,
                                  atol=0.1 * spec.newton_tol).coeffs

        t = 1.0
        for _halve in range(31):
            trial = P1Function(mesh, u.coeffs + t * d)
            R_trial = problem.residual(trial, eps)
            res_trial = float(np.max(np.abs(R_trial)))
            if res_trial <= (1.0 - 1e-4 * t) * res:
                break
            t *= 0.5
        else:
            break  # no step length passed
        u, R, res = trial, R_trial, res_trial
        steps.append(t)
        history.append(res)

    if res <= spec.newton_tol:
        return u, SolveStats(len(steps), res, history, steps, True)
    # every accepted step lowered the residual, so the last iterate is the
    # best one
    raise NewtonError(
        f"no convergence at eps={eps:.3e}: residual {res:.3e} after "
        f"{len(steps)} steps", best=u, history=history)


def _record_for(u, problem: DiscreteProblem, eps, stats, window):
    pv, w = problem.pv, problem.qctx.weights
    gu = u.triangle_gradients()
    steep = np.einsum("td,td->t", gu, gu)[:, None] > 1.0
    return EpsRecord(
        eps=eps,
        newton_iterations=stats.iterations,
        final_residual=stats.final_residual,
        energy=energy(u, pv, eps, problem.qctx),
        grad_lp_norm=regularity.lp_gradient_norm(u, pv, problem.qctx),
        h2_dq=regularity.h2_estimate_dq(u, window),
        h2_recovery=regularity.h2_estimate_recovery(u),
        meas_A1=float(np.sum(w * (pv == 2.0))),
        meas_A2=float(np.sum(w * (pv < 2.0))),
        meas_Omega1=float(np.sum(w * steep)),
        converged=stats.converged)


def continuation_solve(spec: ProblemSpec, mesh=None) -> SolveReport:
    """Geometric eps sweep with secant predictions; one EpsRecord per eps.

    The first solve starts from the linear Poisson solution with the same
    source and boundary data (exact for p = 2, a sound initial guess
    otherwise), the second from the first solution.  Each later solve
    starts from the secant through the two previous solutions, linear in
    eps: u_k + c (u_k - u_{k-1}) with c = (eps_{k+1} - eps_k) / (eps_k -
    eps_{k-1}) from the schedule's values.  Near eps = 0 the solution moves
    like c eps, so the last starts can already meet ``newton_tol`` and
    their records show 0 Newton steps.  Both solutions hold the Dirichlet
    data, so their difference is exactly 0 there and the prediction keeps
    it bit for bit.

    :func:`validate_spec` runs while the :class:`DiscreteProblem` is
    built, so a :class:`HypothesisError` comes after meshing.  A failure in
    :data:`SOLVE_ERRORS` is re-raised carrying ``records`` (what finished,
    plus the failed record when Newton left a best iterate), ``failed_eps``
    (None when no eps solve had started) and the validation ``warnings``.
    """
    schedule = spec.eps_schedule()
    # None until the first eps solve starts: a failure while the problem is
    # built, checked or started from Poisson belongs to no eps
    records, warnings, eps = [], [], None
    try:
        if mesh is None:
            mesh = triangulate_convex(spec.domain, spec.mesh_h)
        window = regularity.default_window(spec.domain, 2.0 * mesh.h)
        problem = DiscreteProblem.build(spec, mesh)
        warnings = list(problem.warnings)
        stiff = weighted_stiffness(P1Function.zero(mesh), 2.0, 1.0,
                                   problem.qctx)
        u = problem.solve_reduced(stiff, problem.load, problem.g_boundary)
        # the coefficients of the solution one eps back, never the Poisson
        # start; only the array is kept, not what its P1Function caches
        prev = None
        for k, eps in enumerate(schedule):
            start = u
            if prev is not None:
                back, last = schedule[k - 2], schedule[k - 1]
                c = (eps - last) / (last - back)
                start = P1Function(mesh, u.coeffs + c * (u.coeffs - prev))
            prev = u.coeffs if k > 0 else None
            u, stats = solve_regularized(spec, eps, start, problem=problem)
            records.append(_record_for(u, problem, eps, stats, window))
    except SOLVE_ERRORS as err:
        best = getattr(err, "best", None)
        if best is not None:
            stats = SolveStats(len(err.history) - 1, err.history[-1],
                               err.history, [], False)
            records.append(_record_for(best, problem, eps, stats, window))
        err.records = records
        err.failed_eps = eps
        err.warnings = warnings
        raise
    return SolveReport(records, u, mesh, warnings)


def validate_spec(spec: ProblemSpec, qctx: QuadratureContext, pv, fv):
    """Check the standing hypotheses where the solve evaluates: p and f
    from their values ``pv`` and ``fv`` at the nodes of ``qctx``, and q
    there.  p <= 1 at a node (or ``spec.p.p1`` <= 1) is a
    :class:`HypothesisError` naming the node, raised after meshing; a
    source active where p > 2, or q <= 2 where p <= 2, is a warning with
    its share of |Omega_h|.  :meth:`DiscreteProblem.build` calls it."""
    w = qctx.weights
    if np.min(pv) <= 1.0 or spec.p.p1 <= 1.0:
        k = np.unravel_index(np.argmin(pv), pv.shape)
        raise HypothesisError(
            f"exponent reaches {min(pv[k], spec.p.p1):.6g} <= 1 (least at a "
            f"node: {pv[k]:.6g} at ({qctx.x[k]:.6g}, {qctx.y[k]:.6g}))")
    warnings = []
    fv = np.abs(fv)
    active_above = (pv > 2.0) & (fv > 1e-12 * max(1.0, np.max(fv)))
    if np.any(active_above):
        frac = np.sum(w * active_above) / np.sum(w)
        warnings.append(
            f"source is nonzero where p > 2 on {100 * frac:.1f}% of the "
            "domain (degenerate-direction compatibility is lost there)")
    bad_q = (pv <= 2.0) & (field_values(spec.q, qctx.x, qctx.y) <= 2.0)
    if np.any(bad_q):
        frac = np.sum(w * bad_q) / np.sum(w)
        warnings.append(
            f"integrability exponent q <= 2 where p <= 2, on "
            f"{100 * frac:.1f}% of the domain (q must exceed 2 there)")
    return warnings
