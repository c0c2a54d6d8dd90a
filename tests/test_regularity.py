import math
import warnings

import numpy as np
import pytest
import scipy.special

from plapx.assembly import P1Function
from plapx.expressions import parse_field
from plapx.geometry import ConvexDomain, lattice_points, triangulate_convex
from plapx.regularity import (CoefficientSample, PreconditionError,
                              SamplingError, coefficients,
                              curvature_identity_check, default_window,
                              ellipticity_check, h1_window_distance,
                              h2_estimate_dq, h2_estimate_recovery,
                              integrability_split_report, lp_gradient_norm,
                              p1_scaling_report, split_exponents)
from plapx.solver import ProblemSpec, continuation_solve
from plapx.varexp import ExponentField, QuadratureContext

SQUARE = ConvexDomain.unit_square()


# --- coefficient sampling -----------------------------------------------------


def test_coefficient_hand_values():
    # grad u = (1, 0), p = 3, eps = 1: v^2 = 2, a11 = 1 + 1/2 = 3/2,
    # a_rhs = ln(sqrt 2) * 0 + f * 2^(-1/2)
    s = CoefficientSample.from_state(
        points=[[0.5, 0.5]], grad=[[1.0, 0.0]], p_vals=[3.0], f_vals=[5.0],
        grad_p=[[0.0, 0.0]], eps=1.0)
    assert s.v_eps[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert s.a11[0] == pytest.approx(1.5, rel=1e-15)
    assert s.a12[0] == 0.0
    assert s.a22[0] == 1.0
    assert s.a_rhs[0] == pytest.approx(5.0 / math.sqrt(2.0), rel=1e-14)


def test_coefficient_hand_values_variable_p():
    # grad u = (1, 0), grad p = (-0.5, 0), p = 1.5, f = 2, eps = 0.5:
    # v^2 = 1.5, a11 = 1 - 0.5/1.5 = 2/3,
    # a_rhs = ln(sqrt 1.5) * (-0.5) + 2 * 1.5^0.25
    s = CoefficientSample.from_state(
        points=[[0.0, 0.0]], grad=[[1.0, 0.0]], p_vals=[1.5], f_vals=[2.0],
        grad_p=[[-0.5, 0.0]], eps=0.5)
    assert s.a11[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert s.a22[0] == 1.0
    want = -0.25 * math.log(1.5) + 2.0 * 1.5 ** 0.25
    assert s.a_rhs[0] == pytest.approx(want, rel=1e-14)


def test_coefficient_eps_validation():
    with pytest.raises(ValueError):
        CoefficientSample.from_state([[0, 0]], [[1, 0]], [2.0], [0.0],
                                     [[0, 0]], 0.0)
    with pytest.raises(ValueError):
        CoefficientSample.from_state([[0, 0]], [[1, 0]], [2.0], [0.0],
                                     [[0, 0]], 1.5)


def test_coefficients_from_solution_field():
    mesh = triangulate_convex(SQUARE, 0.2)
    u = P1Function.interpolate(mesh, parse_field("x"))
    p = ExponentField.constant(3.0)
    pts = np.array([[0.5, 0.5], [0.25, 0.7]])
    s = coefficients(u, p, 5.0, 1.0, pts, mesh.locate(pts)[0])
    np.testing.assert_allclose(s.grad[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(s.a11, 1.5, rtol=1e-12)
    np.testing.assert_allclose(s.a_rhs, 5.0 / math.sqrt(2.0), rtol=1e-12)
    assert len(s) == 2


# --- ellipticity ---------------------------------------------------------------


def eig_range(sample):
    A = np.empty((len(sample), 2, 2))
    A[:, 0, 0] = sample.a11
    A[:, 0, 1] = A[:, 1, 0] = sample.a12
    A[:, 1, 1] = sample.a22
    eigs = np.linalg.eigvalsh(A)
    return eigs.min(), eigs.max()


def test_ellipticity_sandwich_random_states():
    rng = np.random.Generator(np.random.Philox(23))
    n = 600
    grad = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3, size=n)[:, None]
    p_vals = rng.uniform(1.4, 2.6, size=n)
    s = CoefficientSample.from_state(rng.uniform(0, 1, size=(n, 2)), grad,
                                     p_vals, np.zeros(n),
                                     np.zeros((n, 2)), 1e-4)
    rep = ellipticity_check(s, 1.4, 2.6)
    assert rep.satisfied
    assert rep.lower == pytest.approx(0.4)
    assert rep.upper == pytest.approx(1.6)
    # the margins are the gaps to the extreme eigenvalues over the samples
    lo, hi = eig_range(s)
    assert lo >= rep.lower - 1e-12 and hi <= rep.upper + 1e-12
    assert rep.low_margin == pytest.approx(lo - rep.lower, abs=1e-14)
    assert rep.high_margin == pytest.approx(rep.upper - hi, abs=1e-14)
    assert rep.n_samples == n


def test_ellipticity_detects_violation():
    # a state with p = 5 against claimed bounds [1.5, 2] has the eigenvalue
    # 1 + 3|g|^2/v^2, about 4, along the gradient direction
    s = CoefficientSample.from_state([[0, 0]], [[10.0, 0.0]], [5.0], [0.0],
                                     [[0.0, 0.0]], 0.01)
    rep = ellipticity_check(s, 1.5, 2.0)
    assert not rep.satisfied
    assert rep.high_margin == pytest.approx(1.0 - (1.0 + 3.0 * 100 / 100.01),
                                            abs=1e-15)
    assert rep.low_margin == pytest.approx(1.0 - 0.5, abs=1e-15)


def test_ellipticity_rejects_bad_exponent_range():
    s = CoefficientSample.from_state([[0, 0]], [[1, 0]], [2.0], [0.0],
                                     [[0, 0]], 1.0)
    with pytest.raises(ValueError):
        ellipticity_check(s, 1.0, 2.0)


# --- lattice windows --------------------------------------------------------------


def assert_window_margin(domain, window):
    gx, gy = lattice_points(window)
    clearance = domain.line_distance(np.column_stack([gx.ravel(),
                                                      gy.ravel()]))
    assert np.all(clearance >= 2.0 * window[1])


def test_default_window_centered_with_margin():
    origin, s, nx, ny = default_window(SQUARE, 0.05)
    assert s == 0.05 and nx >= 3 and ny >= 3
    # centered on the square's centroid
    assert origin[0] + 0.5 * (nx - 1) * s == pytest.approx(0.5, abs=1e-9)
    assert origin[1] + 0.5 * (ny - 1) * s == pytest.approx(0.5, abs=1e-9)
    # every lattice point keeps the 2h clearance
    assert_window_margin(SQUARE, (origin, s, nx, ny))


def test_default_window_halves_spacing_when_needed():
    # 2h margin of 0.8 cannot fit in the unit square, so the spacing drops
    origin, s, nx, ny = default_window(SQUARE, 0.4)
    assert s < 0.4
    assert nx >= 3 and ny >= 3
    assert_window_margin(SQUARE, (origin, s, nx, ny))


def test_default_window_gives_up_on_tiny_domain():
    small = ConvexDomain([(0, 0), (0.01, 0), (0.01, 0.01), (0, 0.01)])
    with pytest.raises(SamplingError):
        default_window(small, 0.5)


# --- gradient recovery and H2 estimates -------------------------------------------


def test_recovered_gradient_cached_read_only_and_linear_exact():
    mesh = triangulate_convex(SQUARE, 0.23)
    u = P1Function.interpolate(mesh, parse_field("2*x - y + 1"))
    recovered = u.recovered_gradient()
    assert u.recovered_gradient() is recovered
    wx, wy = recovered
    assert not wx.coeffs.flags.writeable and not wy.coeffs.flags.writeable
    np.testing.assert_allclose(wx.coeffs, 2.0, atol=1e-13)
    np.testing.assert_allclose(wy.coeffs, -1.0, atol=1e-13)


def test_h2_dq_is_the_lattice_difference_sum_bitwise():
    mesh = triangulate_convex(SQUARE, 0.05)
    rng = np.random.Generator(np.random.Philox(31))
    u = P1Function(mesh, rng.normal(size=mesh.n_points))
    window = default_window(SQUARE, 2.0 * mesh.h)
    s = window[1]
    total = 0.0
    for comp in u.recovered_gradient():
        vals = comp.evaluate(*lattice_points(window))
        for axis in (0, 1):
            total += float(np.sum((np.diff(vals, axis=axis) / s) ** 2))
    assert h2_estimate_dq(u, window) == math.sqrt(s * s * total)


def test_h2_dq_quadratic_density():
    # D^2(x^2/2) has Frobenius norm 1, so the window estimate must come out
    # at sqrt of the covered lattice area
    mesh = triangulate_convex(SQUARE, 1.0 / 24.0)
    u = P1Function.interpolate(mesh, parse_field("x^2/2"))
    window = default_window(SQUARE, 2.0 * mesh.h)
    origin, s, nx, ny = window
    got = h2_estimate_dq(u, window)
    want = math.sqrt((nx - 1) * ny) * s
    assert got == pytest.approx(want, rel=2e-2)


def test_h2_recovery_quadratic_density():
    mesh = triangulate_convex(SQUARE, 1.0 / 24.0)
    u = P1Function.interpolate(mesh, parse_field("x^2/2"))
    got = h2_estimate_recovery(u)
    assert got == pytest.approx(1.0, rel=5e-2)


def test_h2_estimators_are_homogeneous():
    mesh = triangulate_convex(SQUARE, 0.1)
    u = P1Function.interpolate(mesh, parse_field("x^2*y - y^2"))
    window = default_window(SQUARE, 2.0 * mesh.h)
    for est in (lambda w: h2_estimate_dq(w, window), h2_estimate_recovery):
        base = est(u)
        scaled = est(P1Function(mesh, 3.0 * u.coeffs))
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_h2_cross_estimator_densities_agree():
    # both estimators target the same Hessian density; normalized by the
    # regions they cover they must agree for a constant-Hessian field
    mesh = triangulate_convex(SQUARE, 1.0 / 24.0)
    u = P1Function.interpolate(mesh, parse_field("x^2/2 + x*y"))
    window = default_window(SQUARE, 2.0 * mesh.h)
    origin, s, nx, ny = window
    dq_density = h2_estimate_dq(u, window) / (math.sqrt((nx - 1) * ny) * s)
    rec_density = h2_estimate_recovery(u) / math.sqrt(SQUARE.area)
    assert dq_density == pytest.approx(rec_density, rel=0.25)


def test_h2_dq_on_coarse_mesh_is_one_report_warning():
    # at mesh.h 0.3 the window of the unit square halves its spacing below
    # the mesh size; the report says so once, naming the spacing it used,
    # and the estimator itself warns of nothing
    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(2.0), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), eps_start=0.5,
                       eps_stop=0.05, mesh_h=0.3)
    report = continuation_solve(spec)
    spacing = default_window(SQUARE, 2.0 * report.mesh.h)[1]
    assert spacing < report.mesh.h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = report.records + report.records
    assert all(math.isfinite(r.h2_dq) for r in records)
    assert report.diagnostic_warnings == [
        f"h2_dq: mesh size {report.mesh.h:.3g} exceeds lattice spacing "
        f"{spacing:.3g}; difference quotients may be under-resolved"]


def test_h1_window_distance_properties():
    mesh_a = triangulate_convex(SQUARE, 0.12)
    mesh_b = triangulate_convex(SQUARE, 0.17)
    ua = P1Function.interpolate(mesh_a, parse_field("x*y"))
    ub = P1Function.interpolate(mesh_b, parse_field("x*y + 0.1*x"))
    window = default_window(SQUARE, 0.08)
    assert h1_window_distance(ua, ua, window) == 0.0
    d_ab = h1_window_distance(ua, ub, window)
    d_ba = h1_window_distance(ub, ua, window)
    assert d_ab > 0.0
    assert d_ab == pytest.approx(d_ba, rel=1e-13)


def test_lp_gradient_norm_constant_gradient():
    mesh = triangulate_convex(SQUARE, 0.2)
    qctx = QuadratureContext(mesh)
    u = P1Function.interpolate(mesh, parse_field("2*x"))
    # constant |grad u| = 2 on the unit square: norm is 2 for every p
    for p_val in (2.0, 3.0, 4.0):
        got = lp_gradient_norm(u, ExponentField.constant(p_val), qctx)
        assert got == pytest.approx(2.0, rel=1e-8)


# --- integrability split -----------------------------------------------------------


def test_split_exponents_hand_values():
    # p = 1.8 >= 1/q + 3/2 takes the steep branch
    fe, we, gr = split_exponents([1.8], [4.0])
    assert fe[0] == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert we[0] == pytest.approx(8.0, rel=1e-14)
    assert gr[0] == pytest.approx(1.6, rel=1e-14)
    # p = 1.6 falls to the q-driven branch
    fe, we, gr = split_exponents([1.6], [4.0])
    assert fe[0] == pytest.approx(3.0, rel=1e-14)
    assert we[0] == pytest.approx(6.0, rel=1e-14)
    assert gr[0] == pytest.approx(2.4, rel=1e-14)


def test_split_exponents_are_square_conjugate():
    rng = np.random.Generator(np.random.Philox(13))
    p = rng.uniform(1.51, 1.99, size=200)
    q = rng.uniform(2.5, 8.0, size=200)
    fe, we, _ = split_exponents(p, q)
    np.testing.assert_allclose(2.0 / fe + 2.0 / we, 1.0, rtol=1e-12)
    assert np.all(fe > 2.0)
    assert np.all(we > 2.0)


def test_split_exponents_validation():
    with pytest.raises(ValueError):
        split_exponents([2.0], [4.0])
    with pytest.raises(ValueError):
        split_exponents([1.8], [2.0])


def solved_benchmark(eps_stop=1e-2, h=0.16):
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    spec = ProblemSpec(domain=SQUARE, p=p, f=1.0, g=parse_field("x"),
                       q=ExponentField.constant(4.0), eps_stop=eps_stop,
                       mesh_h=h)
    report = continuation_solve(spec)
    return spec, report


def test_integrability_split_on_benchmark():
    spec, report = solved_benchmark()
    qctx = QuadratureContext(report.mesh)
    rep = integrability_split_report(report.solution, spec.p, spec.f, spec.q,
                                     report.final().eps, qctx)
    assert not rep.vacuous
    assert rep.meas_A2 == pytest.approx(1.0, rel=1e-12)
    assert rep.q1 == rep.q2 == 4.0
    assert rep.conjugate_defect <= 1e-12
    assert rep.band == (1.5, 6.0)
    assert rep.band_satisfied
    assert rep.growth_range[0] >= 1.5 - 1e-12
    assert rep.growth_range[1] <= 6.0 + 1e-12
    assert rep.holder_satisfied
    assert rep.direct <= 2.0 * rep.split + 1e-9
    assert rep.split == pytest.approx(rep.split_f * rep.split_weight)


def test_integrability_split_vacuous_for_p2():
    mesh = triangulate_convex(SQUARE, 0.25)
    qctx = QuadratureContext(mesh)
    u = P1Function.interpolate(mesh, parse_field("x*y"))
    rep = integrability_split_report(u, ExponentField.constant(2.0), 1.0,
                                     ExponentField.constant(4.0), 0.1, qctx)
    assert rep.vacuous
    assert rep.holder_satisfied
    assert rep.meas_A2 == 0.0


def test_integrability_split_rejects_small_q():
    mesh = triangulate_convex(SQUARE, 0.25)
    qctx = QuadratureContext(mesh)
    u = P1Function.interpolate(mesh, parse_field("x*y"))
    with pytest.raises(PreconditionError):
        integrability_split_report(u, ExponentField.constant(1.8), 1.0,
                                   ExponentField.constant(1.9), 0.1, qctx)


# --- curvature identity -----------------------------------------------------------


def test_identity_exact_for_paraboloid():
    rep = curvature_identity_check("1 - x^2 - y^2")
    assert rep.lhs == pytest.approx(-4.0 * math.pi, rel=1e-13)
    assert rep.abs_err <= 1e-12


def test_identity_exp_case_against_bessel_oracle():
    # normal derivative on the circle is -2 e^x, so the boundary side equals
    # -2 int e^(2 cos t) dt = -4 pi I0(2)
    rep = curvature_identity_check("(1 - x^2 - y^2) * exp(x)")
    oracle = -4.0 * math.pi * scipy.special.i0(2.0)
    assert rep.rhs == pytest.approx(oracle, rel=1e-11)
    assert rep.lhs == pytest.approx(oracle, rel=1e-11)
    assert rep.abs_err <= 1e-8


def test_identity_trig_case_against_bessel_oracle():
    # normal derivative -2 sin(x + 2y): boundary side is
    # -2 int sin^2(sqrt5 cos t) dt = -2 pi (1 - J0(2 sqrt 5))
    rep = curvature_identity_check("(1 - x^2 - y^2) * sin(x + 2*y)")
    oracle = -2.0 * math.pi * (1.0 - scipy.special.j0(2.0 * math.sqrt(5.0)))
    assert rep.rhs == pytest.approx(oracle, rel=1e-11)
    assert rep.abs_err <= 1e-8


def test_identity_accepts_parsed_expression():
    rep = curvature_identity_check(parse_field("1 - x^2 - y^2"))
    assert rep.abs_err <= 1e-12


def test_identity_rejects_nonvanishing_boundary():
    with pytest.raises(PreconditionError):
        curvature_identity_check("x")
    with pytest.raises(PreconditionError) as err:
        curvature_identity_check("1.001 - x^2 - y^2")
    assert "vanish" in str(err.value)


# --- p1 scaling fit ---------------------------------------------------------------


def test_scaling_fit_recovers_synthetic_power_law():
    p1 = np.array([1.5, 1.25, 1.1, 1.05])
    h2 = 2.7 * (p1 - 1.0) ** -0.8
    rep = p1_scaling_report(p1, h2, kappa=1.0)
    assert not rep.degenerate
    assert rep.slope == pytest.approx(0.8, abs=1e-12)
    assert rep.intercept == pytest.approx(math.log(2.7), abs=1e-12)
    assert rep.bound == 1.5
    assert rep.within_bound


def test_scaling_fit_flags_excess_growth():
    p1 = np.array([1.5, 1.25, 1.1, 1.05])
    h2 = 0.3 * (p1 - 1.0) ** -1.7
    rep = p1_scaling_report(p1, h2)
    assert rep.slope == pytest.approx(1.7, abs=1e-12)
    assert not rep.within_bound


def test_scaling_fit_degenerate_sweep():
    rep = p1_scaling_report([1.5, 1.5, 1.5], [2.0, 2.1, 1.9])
    assert rep.degenerate
    assert rep.slope == 0.0
    assert "no spread" in rep.warning
    assert rep.within_bound


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        p1_scaling_report([1.5], [2.0])
    with pytest.raises(ValueError):
        p1_scaling_report([1.5, 1.2], [2.0])
    with pytest.raises(ValueError):
        p1_scaling_report([1.0, 1.2], [2.0, 2.0])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            p1_scaling_report([1.5, 1.2], [2.0, bad])
