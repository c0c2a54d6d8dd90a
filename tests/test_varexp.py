import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from plapx.expressions import parse_field
from plapx.geometry import (ConvexDomain, refine_uniform, round_corners,
                            triangulate_convex)
from plapx.varexp import (EvaluationError, ExponentField, PreconditionError,
                          QuadratureContext, field_values, holder_check,
                          log_holder_modulus, luxemburg_norm, modular,
                          mollify_exponent, sobolev_conjugate)

SQUARE = ConvexDomain.unit_square()


def square_qctx(h=0.1):
    return QuadratureContext(triangulate_convex(SQUARE, h))


def test_quadrature_weights_sum_to_area():
    qctx = square_qctx(0.2)
    assert qctx.weights.sum() == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (2, 1), (3, 1), (2, 2),
                                 (4, 0), (0, 4), (1, 3)])
def test_quadrature_degree_4_exactness(a, b):
    # integral of x^a y^b over the unit square is 1/((a+1)(b+1)); the rule
    # integrates each monomial of total degree <= 4 exactly per triangle
    qctx = square_qctx(0.3)
    vals = qctx.x ** a * qctx.y ** b
    got = float(np.sum(qctx.weights * vals))
    assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)


def test_modular_constant_exact():
    qctx = square_qctx(0.25)
    p = ExponentField.constant(3.0)
    # rho(c) = c^3 * |Omega|
    assert modular(2.0, p, qctx) == pytest.approx(8.0, rel=1e-12)


def test_modular_splits_additively_on_masks():
    qctx = square_qctx(0.2)
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    u = parse_field("1 + x*y")
    mask = (qctx.x < 0.5).astype(float)
    total = modular(u, p, qctx)
    left = modular(u, p, qctx, mask=mask)
    right = modular(u, p, qctx, mask=1.0 - mask)
    assert left + right == pytest.approx(total, rel=1e-14)


def test_luxemburg_zero_function():
    qctx = square_qctx(0.3)
    assert luxemburg_norm(0.0, ExponentField.constant(2.0), qctx) == 0.0


def test_luxemburg_constant_exponent_closed_form():
    # for constant p the norm is the plain L^p norm (modular^(1/p))
    qctx = square_qctx(0.12)
    u = parse_field("sin(3*x) + y^2")
    for p_val in (1.2, 2.0, 3.7):
        p = ExponentField.constant(p_val)
        expected = modular(u, p, qctx) ** (1.0 / p_val)
        got = luxemburg_norm(u, p, qctx)
        assert got == pytest.approx(expected, rel=1e-8)


def test_luxemburg_homogeneity_and_unit_ball():
    qctx = square_qctx(0.15)
    p = ExponentField.from_expression(parse_field("1.6 + 0.3*y"), SQUARE)
    u = parse_field("exp(x) - y")
    base = luxemburg_norm(u, p, qctx)
    for c in (0.03, 2.0, 117.0):
        scaled = luxemburg_norm(
            c * field_values(u, qctx.x, qctx.y), p, qctx)
        assert scaled == pytest.approx(c * base, rel=1e-6)
    # unit-ball property: rho(u / |u|) = 1
    uv = field_values(u, qctx.x, qctx.y)
    assert modular(uv / base, p, qctx) == pytest.approx(1.0, abs=1e-6)


def test_luxemburg_variable_exponent_against_1d_oracle():
    # u and p depend on x only, so rho(u/k) collapses to a 1-d integral that
    # scipy can do to machine precision; brentq then gives the exact norm
    u_expr = parse_field("2*exp(x)")
    p_expr = parse_field("1.5 + 0.4*x")

    def rho_1d(k):
        val, _ = scipy.integrate.quad(
            lambda t: (2.0 * math.exp(t) / k) ** (1.5 + 0.4 * t), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13)
        return val - 1.0

    exact = scipy.optimize.brentq(rho_1d, 1e-6, 1e3, xtol=1e-13, rtol=1e-13)
    qctx = QuadratureContext(
        refine_uniform(triangulate_convex(SQUARE, 0.1)))
    p = ExponentField.from_expression(p_expr, SQUARE)
    got = luxemburg_norm(u_expr, p, qctx)
    assert got == pytest.approx(exact, rel=2e-6)


def test_luxemburg_stable_under_refinement():
    # |x^2 - y|^p has a kink along y = x^2, so refinement only converges at
    # O(h^2); the check is that the two levels agree to that order
    mesh = triangulate_convex(SQUARE, 0.2)
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    u = parse_field("x^2 - y")
    coarse = luxemburg_norm(u, p, QuadratureContext(mesh))
    fine = luxemburg_norm(u, p, QuadratureContext(refine_uniform(mesh)))
    assert fine == pytest.approx(coarse, rel=2e-4)


def bisection_norm(u, p, qctx, mask=None, rel_tol=1e-10):
    """Luxemburg norm by the bisection that ``luxemburg_norm`` replaced:
    bracket [|u|_L1/(1+|Omega|), hi], hi doubling from 1 while
    rho(u/hi) >= 1, then halving until hi - lo <= rel_tol * hi."""
    vals = np.abs(field_values(u, qctx.x, qctx.y))
    pv = field_values(p, qctx.x, qctx.y)
    w = qctx.weights if mask is None else qctx.weights * mask
    vals = np.where(w > 0, vals, 0.0)

    def rho(k):
        return float(np.sum(w * (vals / k) ** pv))

    lo = float(np.sum(w * vals)) / (1.0 + float(np.sum(w)))
    hi = 1.0
    while rho(hi) >= 1.0:
        hi *= 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


LUXEMBURG_CASES = {
    # the cases of the tests above, then a masked one and a wide exponent
    "closed_form_1.2": ("sin(3*x) + y^2", "1.2", None),
    "closed_form_2": ("sin(3*x) + y^2", "2", None),
    "closed_form_3.7": ("sin(3*x) + y^2", "3.7", None),
    "homogeneity": ("exp(x) - y", "1.6 + 0.3*y", None),
    "oracle": ("2*exp(x)", "1.5 + 0.4*x", None),
    "refinement": ("x^2 - y", "2 - 0.5*x", None),
    "masked": ("1 + x*y", "2 - 0.5*x", "left"),
    "wide_exponent": ("0.1 + x*x + y", "1.05 + 6*x*y", None),
}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
@pytest.mark.parametrize("case", sorted(LUXEMBURG_CASES))
def test_luxemburg_newton_matches_bisection(case, scale):
    u_src, p_src, mask_kind = LUXEMBURG_CASES[case]
    qctx = square_qctx(0.12)
    p = ExponentField.from_expression(parse_field(p_src), SQUARE)
    u = scale * field_values(parse_field(u_src), qctx.x, qctx.y)
    mask = None if mask_kind is None else (qctx.x < 0.5).astype(float)
    want = bisection_norm(u, p, qctx, mask=mask)
    got = luxemburg_norm(u, p, qctx, mask=mask)
    assert abs(got - want) <= 1e-10 * want


def test_holder_inequality_randomized():
    qctx = square_qctx(0.15)
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(40):
        # keep 1/p + 1/q <= 1 so the product exponent s stays >= 1
        p_val = rng.uniform(2.05, 5.0)
        q_val = rng.uniform(2.05, 5.0)
        s_val = 1.0 / (1.0 / p_val + 1.0 / q_val)
        cf = rng.normal(size=3)
        cg = rng.normal(size=3)
        fv = (cf[0] + cf[1] * np.sin(3 * qctx.x) + cf[2] * qctx.y ** 2)
        gv = (cg[0] + cg[1] * np.cos(2 * qctx.y) + cg[2] * qctx.x)
        chk = holder_check(fv, gv, ExponentField.constant(p_val),
                           ExponentField.constant(q_val),
                           ExponentField.constant(s_val), qctx)
        assert chk.satisfied, (p_val, q_val)
        assert chk.lhs > 0.0


def test_holder_variable_exponents():
    qctx = square_qctx(0.12)
    p = parse_field("2 + x")
    q = parse_field("2 + y")
    s = parse_field("1/(1/(2 + x) + 1/(2 + y))")
    chk = holder_check(parse_field("sin(x) + 2"), parse_field("exp(y)"),
                       ExponentField.from_expression(p, SQUARE),
                       ExponentField.from_expression(q, SQUARE),
                       ExponentField.from_expression(s, SQUARE), qctx)
    assert chk.satisfied
    assert chk.constant == 2.0


def test_holder_rejects_nonconjugate_exponents():
    qctx = square_qctx(0.3)
    with pytest.raises(PreconditionError):
        holder_check(1.0, 1.0, ExponentField.constant(2.0),
                     ExponentField.constant(2.0),
                     ExponentField.constant(1.1), qctx)


def test_sobolev_conjugate():
    assert sobolev_conjugate(1.5) == pytest.approx(6.0)
    assert sobolev_conjugate(1.0) == pytest.approx(2.0)
    assert sobolev_conjugate(2.0) == math.inf
    assert sobolev_conjugate(3.0) == math.inf
    assert sobolev_conjugate(2.0, n_dim=3) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        sobolev_conjugate(0.5)


def test_log_holder_modulus_brute_force():
    p = ExponentField.from_expression(parse_field("1.7 + 0.2*sin(4*x)"),
                                      SQUARE)
    rng = np.random.Generator(np.random.Philox(11))
    pairs = rng.uniform(0, 1, size=(500, 4))
    got = log_holder_modulus(p, pairs)
    # plain loop oracle
    worst = 0.0
    for x1, y1, x2, y2 in pairs:
        d = math.hypot(x1 - x2, y1 - y2)
        pa = 1.7 + 0.2 * math.sin(4 * x1)
        pb = 1.7 + 0.2 * math.sin(4 * x2)
        worst = max(worst, abs(pa - pb) * math.log(math.e + 1.0 / d))
    assert got == pytest.approx(worst, rel=1e-12)
    assert log_holder_modulus(ExponentField.constant(2.0), pairs) == 0.0


def test_exponent_field_estimates():
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    assert p.p1 == pytest.approx(1.5, abs=1e-9)
    assert p.p2 == pytest.approx(2.0, abs=1e-9)
    assert p.lip == pytest.approx(0.5, rel=1e-12)
    assert p.meta["lip_method"] == "gradient"
    c = ExponentField.constant(2.5)
    assert (c.p1, c.p2, c.lip) == (2.5, 2.5, 0.0)


def test_exponent_field_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ExponentField.constant(0.9)
    with pytest.raises(ValueError):
        ExponentField(parse_field("2"), p1=2.0, p2=1.5, lip=0.0)


def test_field_values_paths():
    qctx = square_qctx(0.4)
    shape = qctx.x.shape
    np.testing.assert_array_equal(field_values(3.0, qctx.x, qctx.y),
                                  np.full(shape, 3.0))
    arr = np.ones(shape)
    assert field_values(arr, qctx.x, qctx.y) is not None
    with pytest.raises(ValueError):
        field_values(np.ones((2, 2)), qctx.x, qctx.y)
    got = field_values(lambda x, y: x + y, qctx.x, qctx.y)
    np.testing.assert_allclose(got, qctx.x + qctx.y)


def test_modular_rejects_nonfinite():
    qctx = square_qctx(0.4)
    bad = np.full(qctx.x.shape, np.inf)
    with pytest.raises(EvaluationError):
        modular(bad, ExponentField.constant(2.0), qctx)


# --- mollification ---------------------------------------------------------


def test_mollified_constant_is_exact():
    p = ExponentField.from_expression(parse_field("1.8"), SQUARE)
    pd = mollify_exponent(p, 0.05)
    xs = np.linspace(0, 1, 23)
    np.testing.assert_allclose(pd.evaluate(xs, xs[::-1]), 1.8, rtol=1e-14)


def test_mollified_field_sup_distance():
    p = ExponentField.from_expression(parse_field("1.6 + 0.3*x + 0.1*y"),
                                      SQUARE)
    delta = 0.07
    pd = mollify_exponent(p, delta)
    gx, gy = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
    diff = np.abs(pd.evaluate(gx, gy) - p.evaluate(gx, gy))
    assert np.max(diff) <= p.lip * delta + 1e-12
    # values stay inside the original range
    vals = pd.evaluate(gx, gy)
    assert np.min(vals) >= p.p1 - 1e-12
    assert np.max(vals) <= p.p2 + 1e-12


def test_mollified_field_lipschitz_sampled():
    p = ExponentField.from_expression(
        parse_field("1.5 + 0.25*abs(x - 0.5)"), SQUARE)
    pd = mollify_exponent(p, 0.06)
    xs = np.linspace(0.05, 0.95, 61)
    v = pd.evaluate(xs, np.full_like(xs, 0.4))
    slopes = np.abs(np.diff(v) / np.diff(xs))
    assert np.max(slopes) <= p.lip + 1e-9


def test_mollify_requires_domain():
    with pytest.raises(ValueError):
        mollify_exponent(ExponentField.constant(2.0), 0.1)
    p = ExponentField.from_expression(parse_field("2"), SQUARE)
    with pytest.raises(ValueError):
        mollify_exponent(p, 0.0)


def reference_mollified(moll, x, y):
    """The mollifier as first written: every offset projects every point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    xs = np.broadcast_to(x, shape).ravel()
    ys = np.broadcast_to(y, shape).ravel()
    acc = np.zeros(xs.shape)
    for (ox, oy), w in zip(moll.offsets, moll.weights):
        shifted = moll.domain.project(np.column_stack([xs - ox, ys - oy]))
        acc += w * field_values(moll.base, shifted[:, 0], shifted[:, 1])
    out = acc.reshape(shape)
    return float(out) if out.ndim == 0 else out


ORACLE_DOMAINS = {
    "square": SQUARE,
    "disk": ConvexDomain.disk(1.0),
    "rounded_square": round_corners(SQUARE, 0.2),
    "heptagon": ConvexDomain.regular_polygon(7),
}


def oracle_points(domain, delta):
    """Points inside, on the boundary, within delta of it, and outside."""
    lo, hi = domain.bounding_box()
    mid = 0.5 * (lo + hi)
    span = float(np.max(hi - lo))
    g = np.linspace(-0.6, 0.6, 12) * span
    gx, gy = np.meshgrid(mid[0] + g, mid[1] + g)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    ray = np.column_stack([np.cos(th), np.sin(th)])
    on = domain.project(mid + 3.0 * span * ray)
    inward = mid - on
    inward /= np.hypot(inward[:, 0], inward[:, 1])[:, None]
    bands = [on + t * delta * inward for t in (0.5, 1.0, 1.0 + 1e-12, 1.5)]
    return np.vstack([grid, on, *bands, on - 0.5 * delta * inward])


@pytest.mark.parametrize("delta", [0.05, 0.2])
@pytest.mark.parametrize("expr", ["1.6 + 0.3*x + 0.1*y",
                                  "1.5 + 0.25*abs(x - 0.5)",
                                  "2 + 0.3*sin(3*x)*cos(2*y)"])
@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_mollified_field_matches_per_offset_projection(name, expr, delta):
    domain = ORACLE_DOMAINS[name]
    pd = mollify_exponent(ExponentField.from_expression(parse_field(expr),
                                                        domain), delta)
    moll = pd.field
    pts = oracle_points(domain, delta)
    d = domain.line_distance(pts)
    # the sample covers every class of point the projection distinguishes
    assert np.any(d < 0) and np.any(np.abs(d) <= 1e-12)
    assert np.any((0 < d) & (d < delta)) and np.any(d > delta)
    x, y = pts[:, 0], pts[:, 1]
    expected = reference_mollified(moll, x, y)
    assert np.array_equal(moll.evaluate(x, y), expected)
    # a 2-D grid: the reference ravels its input, so its values are these
    grid = moll.evaluate(x.reshape(-1, 12), y.reshape(-1, 12))
    assert np.array_equal(grid, expected.reshape(-1, 12))
    for x, y in pts[[len(pts) // 2, -1]]:
        value = moll.evaluate(float(x), float(y))
        assert isinstance(value, float)
        assert value == reference_mollified(moll, float(x), float(y))
