"""Damped Newton continuation for the regularized problem.

One solve fixes eps and drives the residual of the discrete system to
tolerance with Newton steps, backtracking on the residual norm, and raises
:class:`NewtonError` when the line search finds no step or the step budget
runs out.  Continuation sweeps eps geometrically from eps_start to
eps_stop, starting each solve after the second from the secant prediction
through the two previous solutions.  It keeps what each eps solve produced;
its :class:`SolveReport` builds the diagnostics of an eps (an
:class:`EpsRecord`) only when a caller reads it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
from .geometry import GeometryError, triangulate_convex
from .varexp import (ExponentField, NonconvergenceError, QuadratureContext,
                     _check_finite, field_values)

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
    """Nonconvergence; carries the best iterate (``best``) and the
    :class:`SolveStats` of the failed solve (``stats``: its residuals and
    the lengths of the steps it took, ``converged`` False)."""

    def __init__(self, message, best=None, stats=None):
        super().__init__(message)
        self.best = best
        self.stats = stats


# The one list of failures a run records in its sidecar and survives; the
# CLI also knows them (with OSError) as the errors that end a command
# before its run starts, say while its config loads.  ValueError covers
# HypothesisError, geometry.ParameterError (a mesh.h below the triangle
# cap) and varexp.PreconditionError.  A diagnostic that fails with one of
# them, such as regularity.SamplingError (a domain too thin for the H2
# lattice window), gives a NaN and a warning instead (see SolveReport).
SOLVE_ERRORS = (GeometryError, LinearSolveError, NewtonError,
                FieldEvaluationError, NonconvergenceError, ValueError)


# Most eps steps a spec may ask for.  The longest schedule of the shipped
# configs and tests has 13 (1 to 1e-6 at factor 10^-1/2).
MAX_EPS_STEPS = 1000

# The ProblemSpec checks of one field each: field -> (test, reason).
FIELD_CHECKS = {
    "eps_factor": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "newton_tol": (lambda v: v > 0, "must be positive"),
    "newton_max_iter": (lambda v: v >= 1, "must be >= 1"),
    "mesh_h": (lambda v: v > 0, "must be positive"),
}


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
        for name, (test, reason) in FIELD_CHECKS.items():
            if not test(getattr(self, name)):
                raise ValueError(f"{name} {reason}")
        # the schedule's loop decides; a log count names a refused length
        cap = MAX_EPS_STEPS + 1
        if len(list(itertools.islice(self._eps_values(), cap))) == cap:
            steps = 1 + math.ceil(math.log(self.eps_stop / self.eps_start)
                                  / math.log(self.eps_factor) - 1e-9)
            raise ValueError(
                f"eps schedule of {max(steps, cap)} steps, more than "
                f"{MAX_EPS_STEPS} (raise eps_stop or lower eps_factor)")

    def _eps_values(self):
        e = self.eps_start
        while e > self.eps_stop * (1.0 + 1e-9):
            yield e
            e *= self.eps_factor
        yield self.eps_stop

    def eps_schedule(self):
        return list(self._eps_values())


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


@dataclass(eq=False)
class SolveReport:
    """What a continuation solve produced; each eps's :class:`EpsRecord`
    is built when first read, then kept.

    ``steps`` holds (eps, SolveStats, coefficients, energy) per eps solve;
    ``problem`` is their :class:`DiscreteProblem` without its kept factor
    (None if the solve failed before it, ``mesh`` too if meshing failed);
    ``failed_eps`` is the failed eps of a failure's partial report.
    :meth:`final` builds the last record only, from ``solution``, whose
    recovered gradient later callers reuse.  A diagnostic that fails with
    one of :data:`SOLVE_ERRORS` (say, no ``h2_dq`` window fits the domain)
    is NaN, with one line in ``diagnostic_warnings``; an ``h2_dq`` window
    finer than the mesh gets a line too.
    """

    domain: object
    mesh: object
    problem: object
    steps: list
    failed_eps: float = None
    diagnostic_warnings: list = dc_field(default_factory=list)

    def __post_init__(self):
        self._records = [None] * len(self.steps)

    @property
    def warnings(self):
        """The validation warnings (none before the problem is built)."""
        return [] if self.problem is None else list(self.problem.warnings)

    @property
    def records(self):
        return [self._record_for(k) for k in range(len(self.steps))]

    def final(self) -> EpsRecord:
        return self._record_for(len(self.steps) - 1)

    @functools.cached_property
    def solution(self) -> P1Function:
        return P1Function(self.mesh, self.steps[-1][2])

    def _warn(self, message):
        if message not in self.diagnostic_warnings:
            self.diagnostic_warnings.append(message)

    def _estimate(self, column, fn, *args):
        """fn(*args), or NaN and a diagnostic warning when it fails."""
        try:
            return fn(*args)
        except SOLVE_ERRORS as err:
            self._warn(f"{column} is nan: {err}")
            return math.nan

    @functools.cached_property
    def _window(self):
        """The ``h2_dq`` lattice window on this mesh.  A SamplingError when
        none fits is not cached: each record meets it again."""
        window = regularity.default_window(self.domain, 2.0 * self.mesh.h)
        if self.mesh.h > window[1] + 1e-12:
            self._warn(f"h2_dq: mesh size {self.mesh.h:.3g} exceeds lattice "
                       f"spacing {window[1]:.3g}; difference quotients may "
                       "be under-resolved")
        return window

    def _h2_dq(self, u):
        return regularity.h2_estimate_dq(u, self._window)

    @functools.cached_property
    def _exponent_measures(self):
        """(meas_A1, meas_A2): the quadrature measures of {p = 2} and
        {p < 2}, the same for every eps."""
        pv, w = self.problem.pv, self.problem.qctx.weights
        return float(np.sum(w * (pv == 2.0))), float(np.sum(w * (pv < 2.0)))

    def _record_for(self, k):
        if self._records[k] is None:
            eps, stats, coeffs, J = self.steps[k]
            u = (self.solution if k == len(self.steps) - 1
                 else P1Function(self.mesh, coeffs))
            pv, qctx = self.problem.pv, self.problem.qctx
            meas_A1, meas_A2 = self._exponent_measures
            gu = u.triangle_gradients()
            steep = np.einsum("td,td->t", gu, gu)[:, None] > 1.0
            self._records[k] = EpsRecord(
                eps=eps,
                newton_iterations=stats.iterations,
                final_residual=stats.final_residual,
                energy=J,
                grad_lp_norm=self._estimate(
                    "grad_lp_norm", regularity.lp_gradient_norm, u, pv,
                    qctx),
                h2_dq=self._estimate("h2_dq", self._h2_dq, u),
                h2_recovery=self._estimate(
                    "h2_recovery", regularity.h2_estimate_recovery, u),
                meas_A1=meas_A1,
                meas_A2=meas_A2,
                meas_Omega1=float(np.sum(qctx.weights * steep)),
                converged=stats.converged)
        return self._records[k]


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


# Corrections y += A^-1 (1 - <A> y) that the H-matrix certificate takes
# after its start y = A^-1 1 before it gives up.  The unrefined Delaunay
# meshes give Z-matrices, which certify at the start; the twice-refined
# criterion-8 meshes certify after 2 to 5.
CERTIFY_MAX_CORRECTIONS = 8


@dataclass
class LaggedFactor:
    """The factor one continuation solve keeps to precondition later systems.

    :func:`linear_solve` fills and replaces ``lu``; nothing else touches it.
    Each :class:`DiscreteProblem` owns one, so threads never share a factor.
    ``lu`` is the very factor that solved its matrix.  Nobody has read its
    ``L`` or ``U`` when the H-matrix certificate proved that matrix SPD;
    else the pivot check read ``U``, and the factor holds scipy's copies
    of L and U.
    """

    lu: object = None


def _factor(A):
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _certified_spd(given, A, lu):
    """True when the factored matrix is proven symmetric positive definite.

    ``given`` is the matrix the caller passed, ``A`` its CSC conversion and
    ``lu`` the factor of ``A``.  The proof has two parts.  ``given`` is a
    CSR matrix whose arrays equal those of ``A``, so A equals its
    transpose; A is in canonical format and its diagonal is positive.  And
    some y > 0 has <A> y > 0 by more than its rounding error, where the
    comparison matrix <A> holds |a_ii| on the diagonal and -|a_ij| off it.
    Then <A> is a nonsingular M-matrix, so A is a symmetric H-matrix with a
    positive diagonal, hence SPD (Berman and Plemmons, Nonnegative Matrices
    in the Mathematical Sciences, 1994, ch. 6).

    The factor supplies y: first A^-1 1, then up to CERTIFY_MAX_CORRECTIONS
    corrections y += A^-1 (1 - <A> y).  <A> y is A y less twice the
    product with the positive off-diagonal entries.  In the standard model
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.5)
    computing it with k entries a row errs by at most gamma_(3k+1) times
    (|A| y)_i = 2 a_ii y_i - (<A> y)_i, so a computed value above
    2 gamma_(3k+4) a_ii y_i proves (<A> y)_i > 0; k times the least normal
    number covers underflow.  A non-finite value refuses the proof.
    Nothing here copies A or reads ``lu.L`` or ``lu.U``.
    """
    if not (getattr(given, "format", None) == "csr"
            and A.dtype == np.float64
            and np.array_equal(given.indptr, A.indptr)
            and np.array_equal(given.indices, A.indices)
            and np.array_equal(given.data, A.data)
            and A.has_canonical_format):
        return False
    d = A.diagonal()
    if not np.all(d > 0.0):
        return False
    n = A.shape[0]
    k = int(np.max(np.diff(A.indptr)))
    # the positive off-diagonal entries by (row, column, value)
    pos = np.flatnonzero(A.data > 0.0)
    cols = np.searchsorted(A.indptr, pos, side="right") - 1
    rows = A.indices[pos]
    off = rows != cols
    rows, cols, vals = rows[off], cols[off], A.data[pos[off]]
    u = np.finfo(float).eps / 2.0
    gamma = (3 * k + 4) * u / (1.0 - (3 * k + 4) * u)
    slack = k * np.finfo(float).tiny
    ones = np.ones(n)
    with np.errstate(all="ignore"):
        y = lu.solve(ones)
        for step in range(CERTIFY_MAX_CORRECTIONS + 1):
            if not np.all(np.isfinite(y)):
                return False
            z = A @ y - 2.0 * np.bincount(rows, vals * y[cols], minlength=n)
            if (np.all(y > 0.0) and np.all(np.isfinite(z))
                    and np.all(z > 2.0 * gamma * (d * y) + slack)):
                return True
            if step < CERTIFY_MAX_CORRECTIONS:
                y = y + lu.solve(ones - z)
    return False


def _pcg(A, b, lu, atol):
    """CG from zero on A x = b, preconditioned by the factor ``lu``.

    Returns x once the true residual norm is at most ``atol``, or None after
    a curvature breakdown (d.Ad <= 0, r.z <= 0 or a non-finite value) or
    PCG_MAX_ITER iterations.  Its scalars are computed without a warning: a
    norm or product that overflows is such a non-finite value.
    """
    x = np.zeros_like(b)
    r = b.copy()
    with np.errstate(over="ignore", invalid="ignore"):
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


def _rhs_norm(b):
    """||b||_2, computed without a warning; a :class:`LinearSolveError`
    when it is not finite (its squares overflow past entries of about
    1e154), since no residual target follows from it."""
    with np.errstate(over="ignore", invalid="ignore"):
        bnorm = float(np.linalg.norm(b))
    if not math.isfinite(bnorm):
        raise LinearSolveError(
            f"right-hand side norm ||b||_2 is not finite ({bnorm})")
    return bnorm


def linear_solve(A, b, rel_tol=1e-12, lagged=None):
    """Solve the SPD system A x = b to ||b - Ax||_2 <= rel_tol ||b||_2.

    The default 1e-12 holds for every caller but the Newton corrections of
    :func:`solve_regularized`, which stop once the linear residual is a
    tenth of ``newton_tol`` (see :meth:`DiscreteProblem.solve_reduced`).

    Given a :class:`LaggedFactor` that holds a factor of a matrix of A's
    shape, CG preconditioned by that factor runs first.  If it breaks down
    or needs more than PCG_MAX_ITER iterations, A itself is factored.

    The factorization is a sparse LU with a symmetric ordering and no
    partial pivoting; the solve takes up to three steps of iterative
    refinement.  A is factored once, and that factor first proves A SPD:
    by an H-matrix certificate that reads no L or U (see
    :func:`_certified_spd`; Poisson blocks nearly always pass it, most
    Newton Jacobians do not), or else by a pivot check, so an indefinite
    matrix shows up as a nonpositive pivot and is reported by index.  After a solve that reaches the target, ``lagged``
    keeps the factor that solved.  The pivot check reads ``U``, and on that
    read scipy builds CSC copies of L and U and caches them on the factor,
    so a kept factor of a refused matrix holds them while it is kept.

    The refined LU solution is the only candidate.  If it misses the
    target, it is still accepted when its normwise backward error is at
    most BACKWARD_ERROR_TOL.  ``lagged`` is then left empty: the next
    system of the solve is most likely as far out of reach, so it is
    factored at once instead of after PCG_MAX_ITER futile iterations.
    Otherwise, and when SuperLU fails before any solution exists,
    :class:`LinearSolveError` is raised.
    """
    given, A = A, sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError("shape mismatch in linear_solve")
    bnorm = _rhs_norm(b)
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
        if not _certified_spd(given, A, lu):
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
            lagged.lu = lu
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
        bnorm = _rhs_norm(sys_.rhs)
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

    stats = SolveStats(len(steps), res, history, steps, res <= spec.newton_tol)
    if stats.converged:
        return u, stats
    # every accepted step lowered the residual, so the last iterate is the
    # best one
    raise NewtonError(
        f"no convergence at eps={eps:.3e}: residual {res:.3e} after "
        f"{len(steps)} steps", best=u, stats=stats)


def continuation_solve(spec: ProblemSpec, mesh=None) -> SolveReport:
    """Geometric eps sweep with secant predictions; a :class:`SolveReport`
    with one (eps, SolveStats, coefficients, energy) step per eps.

    The first solve starts from the linear Poisson solution with the same
    source and boundary data (exact for p = 2, a sound initial guess
    otherwise), the second from the first solution.  Each later solve
    starts from the secant through the two previous solutions, linear in
    eps: u_k + c (u_k - u_{k-1}) with c = (eps_{k+1} - eps_k) / (eps_k -
    eps_{k-1}) from the schedule's values.  Near eps = 0 the solution moves
    like c eps, so the last starts can already meet ``newton_tol`` and
    their records show 0 Newton steps.  Both solutions hold the Dirichlet
    data, so their difference is exactly 0 there and the prediction keeps
    it bit for bit.  Each energy is taken as its eps is solved, from the
    flux kernel the last residual left on the iterate.

    :func:`validate_spec` runs while the :class:`DiscreteProblem` is
    built, so a :class:`HypothesisError` comes after meshing.  A failure in
    :data:`SOLVE_ERRORS`, meshing included (a ``mesh.h`` below the triangle
    cap is a ``ParameterError``), is re-raised carrying ``report``: the eps
    solves that finished, plus the failed one when Newton left a best
    iterate, and ``failed_eps`` (None when no eps solve had started).
    Either way the factor kept for the linear solves is released, and so
    is the flux kernel's exponent (p - 2)/2 kept on the quadrature context:
    the eps records read neither.
    """
    schedule = spec.eps_schedule()
    # None until the first eps solve starts: a failure while the problem is
    # built, checked or started from Poisson belongs to no eps
    steps, eps, problem = [], None, None
    try:
        if mesh is None:
            mesh = triangulate_convex(spec.domain, spec.mesh_h)
        problem = DiscreteProblem.build(spec, mesh)
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
            steps.append((eps, stats, u.coeffs,
                          energy(u, problem.pv, eps, problem.qctx)))
    except SOLVE_ERRORS as err:
        best = getattr(err, "best", None)
        if best is not None:
            steps.append((eps, err.stats, best.coeffs,
                          energy(best, problem.pv, eps, problem.qctx)))
        err.report = SolveReport(spec.domain, mesh, problem, steps, eps)
        raise
    finally:
        if problem is not None:
            problem.lagged.lu = None
            problem.qctx.kernel_exponent = None
    return SolveReport(spec.domain, mesh, problem, steps)


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
