import warnings

import hypothesis
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

import plapx.regularity as regularity
import plapx.solver as solver
from plapx.assembly import (P1Function, apply_dirichlet, assemble_jacobian,
                            assemble_load, energy, weighted_stiffness)
from plapx.expressions import FieldEvaluationError, parse_field
from plapx.geometry import (ConvexDomain, refine_uniform, round_corners,
                            triangulate_convex)
from plapx.solver import (BACKWARD_ERROR_TOL, DiscreteProblem, EpsRecord,
                          HypothesisError, LaggedFactor, LinearSolveError,
                          NewtonError, ProblemSpec, continuation_solve,
                          linear_solve, masked_source, solve_regularized,
                          with_mollified_exponent)
from plapx.varexp import ExponentField, QuadratureContext

SQUARE = ConvexDomain.unit_square()


def square_spec(**kw):
    base = dict(domain=SQUARE,
                p=ExponentField.constant(2.0),
                f=1.0, g=0.0,
                q=ExponentField.constant(4.0),
                mesh_h=0.2)
    base.update(kw)
    return ProblemSpec(**base)


# --- linear_solve -------------------------------------------------------------


def test_linear_solve_identity():
    b = np.array([3.0, -1.0, 2.5])
    x = linear_solve(sp.eye(3, format="csr"), b)
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_linear_solve_dense_spd_oracle():
    rng = np.random.Generator(np.random.Philox(17))
    B = rng.normal(size=(40, 40))
    A = B @ B.T + 40.0 * np.eye(40)
    b = rng.normal(size=40)
    want = np.linalg.solve(A, b)
    got = linear_solve(sp.csr_matrix(A), b)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_linear_solve_poisson_residual():
    mesh = triangulate_convex(SQUARE, 0.08)
    qctx = QuadratureContext(mesh)
    K = weighted_stiffness(P1Function.zero(mesh),
                           ExponentField.constant(2.0), 1.0, qctx)
    b = assemble_load(1.0, qctx)
    sys_ = apply_dirichlet(K, b, mesh, 0.0)
    x = linear_solve(sys_.operator, sys_.rhs)
    r = sys_.rhs - sys_.operator @ x
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_linear_solve_rejects_indefinite():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(LinearSolveError) as err:
        linear_solve(A, np.array([1.0, 1.0]))
    assert "non-SPD pivot" in str(err.value)


def test_linear_solve_zero_rhs():
    A = sp.eye(5, format="csr")
    np.testing.assert_array_equal(linear_solve(A, np.zeros(5)), np.zeros(5))


def test_linear_solve_names_a_right_hand_side_norm_that_overflows():
    # entries of 1e160 have a finite norm, but its squares overflow: with
    # an infinite ||b||_2 the residual target passes any x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveError,
                           match=r"right-hand side norm \|\|b\|\|_2 is "
                                 r"not finite \(inf\)"):
            linear_solve(sp.eye(3, format="csr"), np.full(3, 1e160))


def test_pcg_breaks_down_on_a_product_that_overflows():
    # ||b||_2 of entries 1e154 is finite, but r . z overflows with a
    # preconditioner that keeps r's scale
    A = sp.csc_matrix(sp.diags([4.0, 5.0, 6.0]))
    lu = solver._factor(sp.csc_matrix(sp.eye(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver._pcg(A, np.full(3, 1e154), lu, 1e-3) is None


def test_linear_solve_shape_mismatch():
    with pytest.raises(ValueError):
        linear_solve(sp.eye(3, format="csr"), np.ones(4))


def test_linear_solve_accepts_roundoff_backward_error(monkeypatch):
    # A = Q diag(1 .. 1e-13) Q^T with b along the smallest eigenvector:
    # ||x|| = 1e13 ||b||, so computing r = b - Ax alone errs by about
    # u ||A|| ||x|| = 1e-3 ||b||.  The relative residual 1e-12 is out of
    # reach, but the LU solution is exact for a system within roundoff,
    # and it is accepted without a second solver.
    def no_cg(*args, **kwargs):
        raise AssertionError("the LU solution must be accepted by itself")

    monkeypatch.setattr(solver.spla, "cg", no_cg)
    rng = np.random.Generator(np.random.Philox(5))
    Q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    A = sp.csr_matrix((Q * np.logspace(0.0, -13.0, 20)) @ Q.T)
    b = Q[:, -1]
    x = linear_solve(A, b)
    r = b - A @ x
    assert np.linalg.norm(r) > 1e-12 * np.linalg.norm(b)
    backward = (np.linalg.norm(r, np.inf)
                / (np.abs(A).sum(axis=1).max() * np.linalg.norm(x, np.inf)
                   + np.linalg.norm(b, np.inf)))
    assert backward <= BACKWARD_ERROR_TOL


def test_linear_solve_still_rejects_a_singular_system():
    # singular, and b is outside the range: no x has a small backward error
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(LinearSolveError) as err:
            linear_solve(A, np.array([1.0, 0.0]))
    assert "could not reach relative residual 1e-12" in str(err.value)


def test_linear_solve_rejects_a_large_backward_error(monkeypatch):
    # a factor whose solve returns twice the true solution: x = 2 A^-1 b
    # leaves r = -b, and ||b|| / (||A|| ||x|| + ||b||) = 1 / (6 * 0.5 + 1)
    factor = solver._factor

    class Doubling:
        def __init__(self, lu):
            self.lu, self.U, self.perm_c = lu, lu.U, lu.perm_c

        def solve(self, b):
            return 2.0 * self.lu.solve(b)

    monkeypatch.setattr(solver, "_factor", lambda A: Doubling(factor(A)))
    with pytest.raises(LinearSolveError) as err:
        linear_solve(sp.diags([4.0, 5.0, 6.0], format="csr"), np.ones(3))
    assert str(err.value) == ("could not reach relative residual 1e-12 "
                              "(backward error 2.500e-01)")


def test_linear_solve_reports_a_failed_factorization(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver.spla, "splu", out_of_memory)
    with pytest.raises(LinearSolveError) as err:
        linear_solve(sp.diags([4.0, 5.0, 6.0], format="csr"), np.ones(3))
    assert str(err.value).startswith("could not reach relative residual 1e-12")
    assert "MemoryError" in str(err.value)


# --- linear_solve with a lagged factor -------------------------------------------


def poisson_system(h=0.08):
    mesh = triangulate_convex(SQUARE, h)
    qctx = QuadratureContext(mesh)
    K = weighted_stiffness(P1Function.zero(mesh),
                           ExponentField.constant(2.0), 1.0, qctx)
    sys_ = apply_dirichlet(K, assemble_load(1.0, qctx), mesh, 0.0)
    return mesh, qctx, sys_.operator, sys_.rhs


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    real = solver.spla.splu

    def counted(A, **kw):
        calls.append(A.shape)
        return real(A, **kw)

    monkeypatch.setattr(solver.spla, "splu", counted)
    return calls


def test_lagged_factor_of_nearby_matrix_preconditions(splu_calls):
    mesh, qctx, K, b = poisson_system()
    lagged = LaggedFactor()
    linear_solve(K, b, lagged=lagged)
    assert lagged.lu is not None and len(splu_calls) == 1
    # a Newton Jacobian of p = 1.7 near the Poisson solution
    x, y = mesh.points[:, 0], mesh.points[:, 1]
    u = P1Function(mesh, x * (1.0 - x) * y * (1.0 - y))
    J = apply_dirichlet(
        assemble_jacobian(u, ExponentField.constant(1.7), 0.1, qctx),
        np.zeros(mesh.n_points), mesh, 0.0).operator
    kept = lagged.lu
    got = linear_solve(J, b, lagged=lagged)
    assert len(splu_calls) == 1 and lagged.lu is kept
    assert np.linalg.norm(b - J @ got) <= 1e-12 * np.linalg.norm(b)
    np.testing.assert_allclose(got, linear_solve(J, b), rtol=1e-10)


def test_far_off_lagged_factor_is_replaced_once(splu_calls):
    _, _, K, b = poisson_system()
    n = K.shape[0]
    lagged = LaggedFactor()
    linear_solve(sp.eye(n, format="csr"), np.ones(n), lagged=lagged)
    identity = lagged.lu
    splu_calls.clear()
    # CG on the stiffness matrix with no real preconditioner needs far
    # more than PCG_MAX_ITER iterations: one certified factorization, which
    # the holder keeps
    x = linear_solve(K, b, lagged=lagged)
    assert np.linalg.norm(b - K @ x) <= 1e-12 * np.linalg.norm(b)
    assert splu_calls == [(n, n)]
    assert lagged.lu is not identity
    # the replacement is the factor of K itself
    linear_solve(K, 2.0 * b, lagged=lagged)
    assert len(splu_calls) == 1


def test_indefinite_matrix_with_spd_lagged_factor_is_rejected():
    lagged = LaggedFactor()
    linear_solve(sp.eye(2, format="csr"), np.ones(2), lagged=lagged)
    # eigenvalues 3 and -1; the second CG direction has d.Ad = -12
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(LinearSolveError) as err:
        linear_solve(A, np.array([1.0, 0.0]), lagged=lagged)
    assert "non-SPD pivot" in str(err.value)


def test_shape_change_refactors(splu_calls):
    lagged = LaggedFactor()
    linear_solve(sp.eye(3, format="csr"), np.ones(3), lagged=lagged)
    A = sp.diags([4.0, 5.0, 6.0, 7.0, 8.0], format="csr")
    b = np.arange(1.0, 6.0)
    np.testing.assert_allclose(linear_solve(A, b, lagged=lagged),
                               b / A.diagonal(), rtol=1e-15)
    assert splu_calls == [(3, 3), (5, 5)]
    assert lagged.lu.shape == (5, 5)


def test_kept_factor_solves_bit_identically_to_checked_factor():
    _, _, K, b = poisson_system()
    lagged = LaggedFactor()
    linear_solve(K, b, lagged=lagged)
    checked = solver._factor(sp.csc_matrix(K))
    assert np.all(checked.U.diagonal() > 0)
    np.testing.assert_array_equal(lagged.lu.perm_c, checked.perm_c)
    rng = np.random.Generator(np.random.Philox(3))
    for rhs in (b, rng.normal(size=b.shape)):
        np.testing.assert_array_equal(lagged.lu.solve(rhs),
                                      checked.solve(rhs))


# --- the H-matrix certificate ---------------------------------------------------


def certified(A):
    """Whether linear_solve's certificate proves the CSR matrix A SPD."""
    C = sp.csc_matrix(A)
    return solver._certified_spd(A, C, solver._factor(C))


@pytest.fixture
def lu_reads(monkeypatch):
    """Factorizations (one entry each) and their L/U reads (the count)."""
    factor, reads = solver._factor, []

    class Watched:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            if name in ("L", "U"):
                reads[-1] += 1
            return getattr(self._lu, name)

    def watched(A):
        reads.append(0)
        return Watched(factor(A))

    monkeypatch.setattr(solver, "_factor", watched)
    return reads


@st.composite
def small_symmetric(draw):
    """A symmetric matrix of quarter integers, exact in floating point: a
    Z-matrix with its diagonal near the off-diagonal row sums, such a
    matrix with one positive pair, any symmetric matrix (often indefinite),
    or B B^T + I/4 (SPD, mostly not an H-matrix)."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("z", "near_z", "symmetric", "gram")))
    quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
    B = np.reshape(draw(st.lists(quarters, min_size=n * n,
                                 max_size=n * n)), (n, n))
    if kind == "gram":
        return B @ B.T + 0.25 * np.eye(n)
    A = np.triu(B, 1)
    A = A + A.T
    if kind == "symmetric":
        return A + np.diag(np.diag(B))
    A = -np.abs(A)
    if kind == "near_z":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        A[i, j] = A[j, i] = draw(st.integers(1, 4)) / 4.0
    shift = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    return A + np.diag(np.abs(A).sum(axis=1) + shift)


@hypothesis.seed(20261020)
@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(small_symmetric())
def test_certificate_accepts_only_spd_matrices(A):
    C = sp.csc_matrix(A)
    try:
        lu = solver._factor(C)
    except RuntimeError:  # exactly singular
        return
    if solver._certified_spd(sp.csr_matrix(A), C, lu):
        assert np.min(np.linalg.eigvalsh(A)) > 0.0


def test_certificate_needs_an_h_matrix(splu_calls):
    # SPD (eigenvalues 2.8, 0.1, 0.1) but <A> has eigenvalue -0.8
    A = sp.csr_matrix(np.full((3, 3), 0.9) + 0.1 * np.eye(3))
    b = np.array([1.0, 2.0, 3.0])
    assert not certified(A)
    splu_calls.clear()
    lagged = LaggedFactor()
    x = linear_solve(A, b, lagged=lagged)
    # the pivot-checked factor solves and is kept
    assert len(splu_calls) == 1 and lagged.lu is not None
    np.testing.assert_array_equal(x, linear_solve(A, b))
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b),
                               rtol=1e-14)


def test_certificate_refuses_asymmetric_and_non_finite_matrices():
    # an M-matrix, so an H-matrix, but not symmetric
    assert not certified(sp.csr_matrix(np.array([[2.0, -1.0],
                                                 [-0.5, 2.0]])))
    with np.errstate(all="ignore"):
        assert not certified(sp.csr_matrix(np.array([[np.inf, -1.0],
                                                     [-1.0, 2.0]])))
        assert not certified(sp.csr_matrix(np.array([[2.0, np.inf],
                                                     [np.inf, 2.0]])))
    # SuperLU refuses to factor a NaN matrix; the certificate refuses it
    # whatever factor it is given
    A = sp.csr_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    assert not solver._certified_spd(A, sp.csc_matrix(A),
                                     solver._factor(sp.csc_matrix(np.eye(2))))
    # equal CSR and CSC arrays prove symmetry only when the caller's
    # matrix is CSR
    C = sp.csc_matrix(np.array([[2.0, -1.0], [-0.5, 2.0]]))
    assert not solver._certified_spd(C, C, solver._factor(C))


def test_indefinite_matrix_still_reports_its_pivot(lu_reads):
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not certified(A)
    lu_reads.clear()
    with pytest.raises(LinearSolveError) as err:
        linear_solve(A, np.array([1.0, 1.0]), lagged=LaggedFactor())
    assert str(err.value) == ("non-SPD pivot at elimination index 1 "
                              "(original unknown 0)")
    assert lu_reads == [1]


def test_refined_rounded_poisson_block_is_factored_once(lu_reads):
    domain = round_corners(SQUARE, 0.025)
    mesh = refine_uniform(refine_uniform(triangulate_convex(domain, 0.12)))
    qctx = QuadratureContext(mesh)
    K = weighted_stiffness(P1Function.zero(mesh), 2.0, 1.0, qctx)
    sys_ = apply_dirichlet(K, assemble_load(1.0, qctx), mesh, 0.0)
    A = sys_.operator
    # not a Z-matrix: the certificate needs its corrections
    assert np.any(sp.triu(A, 1).data > 0.0)
    lagged = LaggedFactor()
    x = linear_solve(A, sys_.rhs, lagged=lagged)
    assert np.linalg.norm(sys_.rhs - A @ x) <= 1e-12 * np.linalg.norm(
        sys_.rhs)
    assert lu_reads == [0] and lagged.lu is not None


# --- problem spec --------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        square_spec(eps_start=0.5, eps_stop=0.9)
    with pytest.raises(ValueError):
        square_spec(eps_factor=1.0)
    with pytest.raises(ValueError):
        square_spec(newton_tol=0.0)
    with pytest.raises(ValueError):
        square_spec(mesh_h=-0.1)


def test_eps_schedule_default():
    spec = square_spec()
    sched = spec.eps_schedule()
    assert len(sched) == 13
    assert sched[0] == 1.0
    assert sched[-1] == 1e-6
    ratios = np.array(sched[1:-1]) / np.array(sched[:-2])
    np.testing.assert_allclose(ratios, 10.0 ** -0.5, rtol=1e-12)


def test_eps_schedule_single_value():
    spec = square_spec(eps_start=1.0, eps_stop=1.0)
    assert spec.eps_schedule() == [1.0]


# --- Newton at fixed eps --------------------------------------------------------


def test_p2_newton_single_step():
    # for p = 2 the residual is affine in u, so one full Newton step lands on
    # the solution regardless of eps
    spec = square_spec()
    mesh = triangulate_convex(SQUARE, 0.15)
    u0 = P1Function.zero(mesh)
    u, stats = solve_regularized(spec, 1.0, u0)
    assert stats.converged
    assert stats.iterations == 1
    assert stats.step_sizes == [1.0]
    u_b, _ = solve_regularized(spec, 1e-6, u0)
    np.testing.assert_allclose(u.coeffs, u_b.coeffs, rtol=0, atol=1e-10)


def test_p2_matches_direct_poisson_solve():
    spec = square_spec()
    mesh = triangulate_convex(SQUARE, 0.15)
    qctx = QuadratureContext(mesh)
    u, _ = solve_regularized(spec, 0.5, P1Function.zero(mesh))
    K = weighted_stiffness(P1Function.zero(mesh),
                           ExponentField.constant(2.0), 1.0, qctx)
    sys_ = apply_dirichlet(K, assemble_load(1.0, qctx), mesh, 0.0)
    want = sys_.expand(linear_solve(sys_.operator, sys_.rhs))
    np.testing.assert_allclose(u.coeffs, want, rtol=0, atol=1e-11)


def test_newton_residual_history_decreases():
    spec = square_spec(p=ExponentField.constant(1.7))
    mesh = triangulate_convex(SQUARE, 0.15)
    u, stats = solve_regularized(spec, 0.01, P1Function.zero(mesh))
    assert stats.converged
    hist = np.array(stats.residual_history)
    assert np.all(np.diff(hist) < 0)
    assert hist[-1] <= spec.newton_tol


def test_functional_descends_from_cold_start():
    spec = square_spec(p=ExponentField.constant(1.5))
    mesh = triangulate_convex(SQUARE, 0.15)
    problem = DiscreteProblem.build(spec, mesh)
    u0 = P1Function.zero(mesh)
    u, stats = solve_regularized(spec, 0.05, u0, problem=problem)

    def functional(v):
        # J(v) - l(v): the discrete problem minimizes it
        return (energy(v, problem.pv, 0.05, problem.qctx)
                - float(problem.load @ v.coeffs))

    assert functional(u) <= functional(u0) + 1e-12


def test_tiny_newton_budget_fails_with_the_last_newton_iterate():
    # one Newton step cannot reach the tolerance; no other iteration takes
    # over, and the error hands back that step's iterate and residuals
    spec = square_spec(p=ExponentField.constant(1.6), newton_max_iter=1,
                       newton_tol=1e-9)
    mesh = triangulate_convex(SQUARE, 0.2)
    u0 = P1Function.zero(mesh)
    with pytest.raises(NewtonError, match=r"after 1 steps$") as err:
        solve_regularized(spec, 0.1, u0)
    e = err.value
    problem = DiscreteProblem.build(spec, mesh)
    A = assemble_jacobian(u0, problem.pv, 0.1, problem.qctx)
    step = problem.solve_reduced(A, -problem.residual(u0, 0.1), 0.0,
                                 atol=0.1 * spec.newton_tol)
    np.testing.assert_array_equal(e.best.coeffs, step.coeffs)
    history = e.stats.residual_history
    assert len(history) == 2 and history[1] < history[0]
    assert history[1] == np.max(np.abs(problem.residual(e.best, 0.1)))
    assert e.stats.iterations == 1 and not e.stats.converged


def test_newton_error_carries_best_iterate():
    # an unreachable tolerance makes Newton give up; the error must hand
    # back the best iterate and the residual trace
    spec = square_spec(p=ExponentField.constant(1.8), newton_tol=1e-30)
    mesh = triangulate_convex(SQUARE, 0.25)
    with pytest.raises(NewtonError) as err:
        solve_regularized(spec, 0.5, P1Function.zero(mesh))
    e = err.value
    assert isinstance(e.best, P1Function)
    assert len(e.stats.residual_history) >= 2
    assert min(e.stats.residual_history) < 1e-10
    assert "no convergence" in str(e)


def record_solve_targets(monkeypatch):
    """Wrap ``plapx.solver.linear_solve`` and the two matrix builders it
    follows; each solve is logged as (kind, rel_tol, ||b||), where kind
    names the matrix assembled last."""
    import inspect

    log, last = [], []
    linear = solver.linear_solve
    signature = inspect.signature(linear)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        log.append((last[-1], bound.arguments["rel_tol"],
                    float(np.linalg.norm(bound.arguments["b"]))))
        return linear(*args, **kwargs)

    def tagged(kind, build):
        def wrapper(*args, **kwargs):
            last.append(kind)
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "linear_solve", recording)
    monkeypatch.setattr(solver, "assemble_jacobian",
                        tagged("newton", solver.assemble_jacobian))
    monkeypatch.setattr(solver, "weighted_stiffness",
                        tagged("frozen", solver.weighted_stiffness))
    return log


def test_newton_corrections_solve_to_a_tenth_of_newton_tol(monkeypatch):
    log = record_solve_targets(monkeypatch)
    tol = 1e-9
    spec = square_spec(p=ExponentField.constant(1.6), newton_tol=tol,
                       eps_stop=1e-2, eps_factor=0.1, mesh_h=0.1)
    report = continuation_solve(spec)
    steps = sum(r.newton_iterations for r in report.records)
    assert all(r.final_residual <= tol for r in report.records)
    # the Poisson start solve first, then one solve per Newton step
    assert [kind for kind, _, _ in log] == ["frozen"] + ["newton"] * steps
    assert log[0][1] == 1e-12
    newton = log[1:]
    for _, rel_tol, bnorm in newton:
        assert rel_tol == max(1e-12, 0.1 * tol / bnorm)
    # the last steps of each eps solve only as far as newton_tol needs
    assert any(rel_tol > 1e-12 for _, rel_tol, _ in newton)


def test_unreachable_newton_tol_keeps_every_target_tight(monkeypatch):
    log = record_solve_targets(monkeypatch)
    spec = square_spec(p=ExponentField.constant(1.8), newton_tol=1e-30,
                       newton_max_iter=5)
    mesh = triangulate_convex(SQUARE, 0.25)
    with pytest.raises(NewtonError):
        solve_regularized(spec, 0.5, P1Function.zero(mesh))
    assert {kind for kind, _, _ in log} == {"newton"}
    assert all(rel_tol == 1e-12 for _, rel_tol, _ in log)


# --- radial benchmark -----------------------------------------------------------


def test_p15_disk_benchmark():
    # -div(|grad u|^(p-2) grad u) = 1 on the unit disk with p = 3/2 has the
    # closed-form solution u(r) = (1 - r^3)/12; checked symbolically:
    #   u' = -r^2/4, |u'|^(p-2) u' = -r/2, -(1/r)(r * -r/2)' = 1
    dom = ConvexDomain.disk(1.0, segments=128)
    spec = ProblemSpec(domain=dom, p=ExponentField.constant(1.5),
                       f=1.0, g=0.0, q=ExponentField.constant(4.0),
                       mesh_h=0.08)
    report = continuation_solve(spec)
    u = report.solution
    pts = report.mesh.points
    r = np.hypot(pts[:, 0], pts[:, 1])
    exact = (1.0 - np.minimum(r, 1.0) ** 3) / 12.0
    err = np.max(np.abs(u.coeffs - exact))
    # O(h^2) interpolation error plus the polygonal boundary gap
    assert err <= 5e-3, f"max vertex error {err:.3e}"
    assert err == pytest.approx(0.0, abs=5e-3)
    rec = report.final()
    assert rec.eps == 1e-6
    assert rec.converged


# --- continuation ---------------------------------------------------------------


def test_continuation_records_follow_schedule():
    spec = square_spec(p=ExponentField.constant(1.8), eps_stop=1e-3,
                       mesh_h=0.25)
    report = continuation_solve(spec)
    sched = spec.eps_schedule()
    assert len(report.records) == len(sched)
    np.testing.assert_allclose([r.eps for r in report.records], sched)
    assert all(r.converged for r in report.records)
    assert all(r.final_residual <= spec.newton_tol for r in report.records)
    # starting from the previous solution, then from the secant prediction,
    # keeps the late iteration counts small
    assert report.records[-1].newton_iterations <= 6
    for rec in report.records:
        assert len(rec.row()) == len(EpsRecord.COLUMNS)


def test_continuation_measures():
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    spec = square_spec(p=p, eps_start=0.1, eps_stop=0.1, mesh_h=0.25)
    report = continuation_solve(spec)
    rec = report.final()
    # p < 2 on all of (0,1]x(0,1) except the x=0 edge: A2 has full measure
    assert rec.meas_A2 == pytest.approx(1.0, rel=1e-12)
    assert rec.meas_A1 == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= rec.meas_Omega1 <= 1.0
    assert rec.energy > 0.0
    assert rec.grad_lp_norm > 0.0
    assert rec.h2_dq > 0.0 and rec.h2_recovery > 0.0


def test_report_builds_each_record_once_on_read(monkeypatch):
    calls = []
    h2_dq = regularity.h2_estimate_dq

    def counted(u, window):
        calls.append(u)
        return h2_dq(u, window)

    monkeypatch.setattr(regularity, "h2_estimate_dq", counted)
    report = continuation_solve(square_spec(p=ExponentField.constant(1.8),
                                            eps_stop=1e-2, mesh_h=0.25))
    assert calls == []
    final = report.final()
    assert calls == [report.solution]
    records = report.records
    assert len(calls) == len(records) == len(report.steps) == 5
    assert records[-1] is final and report.records == records
    report.final()
    assert len(calls) == 5
    assert report.problem.lagged.lu is None


def test_continuation_failure_attaches_partial_report():
    spec = square_spec(p=ExponentField.constant(1.8), eps_stop=1e-2,
                       newton_tol=1e-30, mesh_h=0.3)
    with pytest.raises(NewtonError) as err:
        continuation_solve(spec)
    report = err.value.report
    assert report.failed_eps == 1.0
    assert len(report.records) == 1
    assert not report.records[0].converged
    assert report.problem.lagged.lu is None


def test_failed_eps_record_keeps_its_newton_steps(monkeypatch):
    # the failed eps's record and stats are the failed solve's own: its
    # step count and step sizes, halved ones included, not a count rebuilt
    # from the residuals.  Each Newton correction is made 4 times too long,
    # so the line search halves far above the roundoff floor.
    reduced = DiscreteProblem.solve_reduced

    def overshooting(self, A, rhs, g, atol=0.0):
        u = reduced(self, A, rhs, g, atol=atol)
        return P1Function(self.mesh, 4.0 * u.coeffs) if atol > 0 else u

    monkeypatch.setattr(DiscreteProblem, "solve_reduced", overshooting)
    spec = square_spec(p=ExponentField.constant(1.5), eps_stop=1e-2,
                       mesh_h=0.3, newton_max_iter=2)
    with pytest.raises(NewtonError) as err:
        continuation_solve(spec)
    e = err.value
    eps, stats, coeffs, _ = e.report.steps[-1]
    assert eps == 1.0 and stats is e.stats
    assert len(stats.step_sizes) == stats.iterations
    assert min(stats.step_sizes) < 1.0  # the line search halved a step
    record = e.report.records[-1]
    assert not record.converged
    assert record.newton_iterations == len(stats.step_sizes)
    assert record.final_residual == stats.residual_history[-1]
    np.testing.assert_array_equal(coeffs, e.best.coeffs)


def test_failure_before_any_eps_solve_has_no_eps():
    # the source cannot be evaluated at the quadrature nodes, so the
    # problem is never built and no eps solve starts
    spec = square_spec(f=parse_field("sqrt(x - 0.5)"))
    with pytest.raises(FieldEvaluationError,
                       match="sqrt of a negative argument") as err:
        continuation_solve(spec)
    assert err.value.report.failed_eps is None
    assert err.value.report.records == []


def test_too_small_mesh_h_is_a_recorded_solve_failure():
    # meshing belongs to the solve when no mesh is given: a mesh.h below
    # the triangle cap fails like any other failure before the first eps
    from plapx.geometry import ParameterError
    with pytest.raises(ParameterError, match="absurdly small") as err:
        continuation_solve(square_spec(mesh_h=0.001))
    assert isinstance(err.value, solver.SOLVE_ERRORS)
    report = err.value.report
    assert report.records == []
    assert report.failed_eps is None
    assert report.warnings == [] and report.mesh is None


def test_continuation_starts_from_the_secant_prediction(monkeypatch):
    # g = x, and a schedule whose last step (1e-3 -> 3e-4) has another ratio
    spec = square_spec(p=ExponentField.from_expression(
        parse_field("2 - 0.5*x"), SQUARE), g=parse_field("x"),
        eps_factor=0.1, eps_stop=3e-4, mesh_h=0.25)
    sched = spec.eps_schedule()
    np.testing.assert_allclose(sched, [1.0, 0.1, 0.01, 1e-3, 3e-4])
    starts, solutions = [], []
    real = solver.solve_regularized

    def recording(spec, eps, u0, problem=None):
        starts.append(u0.coeffs.copy())
        u, stats = real(spec, eps, u0, problem=problem)
        solutions.append(u.coeffs.copy())
        return u, stats

    monkeypatch.setattr(solver, "solve_regularized", recording)
    report = continuation_solve(spec)
    mesh = report.mesh
    assert len(starts) == len(sched)

    problem = DiscreteProblem.build(spec, mesh)
    stiff = weighted_stiffness(P1Function.zero(mesh), 2.0, 1.0, problem.qctx)
    poisson = problem.solve_reduced(stiff, problem.load, problem.g_boundary)
    assert np.array_equal(starts[0], poisson.coeffs)
    assert np.array_equal(starts[1], solutions[0])
    for k in range(2, len(sched)):
        c = (sched[k] - sched[k - 1]) / (sched[k - 1] - sched[k - 2])
        last, back = solutions[k - 1], solutions[k - 2]
        assert np.array_equal(starts[k], last + c * (last - back))
        assert not np.array_equal(starts[k], last)
    bnd = mesh.is_boundary
    for start in starts:
        assert np.array_equal(start[bnd], mesh.points[bnd, 0])


def test_predicted_starts_can_need_no_newton_step():
    # demos/square.cfg physics at h = 0.1: near eps = 0 the solution moves
    # like c eps, so the secant start of a late eps already meets newton_tol
    spec = square_spec(p=ExponentField.from_expression(
        parse_field("2 - 0.5*x"), SQUARE), g=parse_field("x"),
        eps_stop=1e-6, mesh_h=0.1)
    records = continuation_solve(spec).records
    assert len(records) == 13
    idle = [r for r in records if r.newton_iterations == 0]
    assert idle
    for rec in records:
        assert rec.converged
        assert rec.final_residual <= spec.newton_tol


# --- hypotheses and sources ------------------------------------------------------


def validated(spec):
    """The validate_spec warnings of the problem a solve of ``spec``
    builds."""
    mesh = triangulate_convex(spec.domain, spec.mesh_h)
    return list(DiscreteProblem.build(spec, mesh).warnings)


def test_validate_spec_hard_error_for_low_exponent():
    # claimed bounds pass construction but the actual field dips below 1
    p = ExponentField(parse_field("1.5 - x"), p1=1.2, p2=1.5, lip=1.0)
    spec = square_spec(p=p)
    with pytest.raises(HypothesisError) as err:
        validated(spec)
    # the message names the quadrature node where p is least
    assert "<= 1 (least at a node: " in str(err.value)


def test_validate_spec_warns_on_active_source_above_2():
    spec = square_spec(p=ExponentField.constant(2.5))
    warnings = validated(spec)
    assert len(warnings) == 1
    assert "p > 2" in warnings[0]


def test_validate_spec_warns_on_small_q():
    spec = square_spec(p=ExponentField.constant(1.8),
                       q=ExponentField.constant(2.0))
    warnings = validated(spec)
    assert any("q" in w for w in warnings)


def test_validate_spec_clean():
    assert validated(square_spec(p=ExponentField.constant(1.8))) == []


def test_validate_spec_shares_are_fractions_of_the_mesh_area():
    # p > 2 exactly on x > 0.5 and f = 1: the warned share is the
    # quadrature measure of {p > 2}, over |Omega_h|
    spec = square_spec(p=ExponentField.from_expression(
        parse_field("1.5 + x"), SQUARE), mesh_h=0.1)
    mesh = triangulate_convex(SQUARE, 0.1)
    problem = DiscreteProblem.build(spec, mesh)
    w = problem.qctx.weights
    share = np.sum(w * (problem.pv > 2.0)) / np.sum(w)
    [warning] = problem.warnings
    assert f"on {100 * share:.1f}% of the domain" in warning
    assert 0.45 < share < 0.55


def test_masked_source_pointwise():
    p = ExponentField.from_expression(parse_field("1.5 + x"), SQUARE)
    m = masked_source(parse_field("10*y"), p)
    x = np.array([0.1, 0.4, 0.6, 0.9])
    y = np.full(4, 0.5)
    got = m.evaluate(x, y)
    np.testing.assert_allclose(got, np.where(1.5 + x <= 2.0, 5.0, 0.0))


def test_with_mollified_exponent_masks_source():
    p = ExponentField.from_expression(parse_field("1.5 + x"), SQUARE)
    spec = square_spec(p=p, f=1.0)
    spec2 = with_mollified_exponent(spec, 0.05)
    assert spec2.p.field.delta == 0.05
    # deep inside p > 2 territory the masked source is off
    assert spec2.f.evaluate(np.array([0.9]), np.array([0.5]))[0] == 0.0
    assert spec2.f.evaluate(np.array([0.1]), np.array([0.5]))[0] == 1.0
