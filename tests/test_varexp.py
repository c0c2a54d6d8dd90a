import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from plapx import geometry, varexp
from plapx.expressions import parse_field
from plapx.geometry import (ConvexDomain, refine_uniform, round_corners,
                            triangulate_convex)
from plapx.varexp import (EvaluationError, ExponentField, PreconditionError,
                          QuadratureContext, field_values, holder_check,
                          luxemburg_norm, modular, mollify_exponent)

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


@pytest.mark.parametrize("p_expr,evaluations", [("1.7", 2), ("2 - x/2", 3)])
def test_luxemburg_modular_evaluations_from_the_mean(monkeypatch, p_expr,
                                                     evaluations):
    # Newton starts at the mean of |u|.  For a constant exponent psi is
    # linear in log k, so one step is exact from any start and the second
    # evaluation confirms it.  For p = 2 - x/2 (the benchmark's) one more
    # step is needed; from the bracket's lower end, |u|_L1 / (1 + |Omega|),
    # these three functions took 4 evaluations each.
    qctx = square_qctx(0.1)
    p = ExponentField.from_expression(p_expr, SQUARE)
    calls = []
    log_modular = varexp._log_modular

    def counted(*args):
        calls.append(args[-1])
        return log_modular(*args)

    monkeypatch.setattr(varexp, "_log_modular", counted)
    for u in ("1 + x*y", "30*sin(3*x) + 0.001", "0.001*(1 + x)"):
        vals = field_values(parse_field(u), qctx.x, qctx.y)
        calls.clear()
        k = luxemburg_norm(vals, p, qctx)
        assert len(calls) == evaluations
        mean = np.sum(qctx.weights * np.abs(vals)) / np.sum(qctx.weights)
        assert calls[0] == pytest.approx(math.log(mean), rel=0, abs=1e-12)
        assert modular(vals / k, p, qctx) == pytest.approx(1.0, rel=1e-12)


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


def test_luxemburg_safeguard_matches_bisection():
    # one spike and a large exponent: the modular overflows at the start of
    # the bracket, so the first Newton step is not finite and the doubling
    # safeguard takes over
    qctx = square_qctx(0.12)
    p = ExponentField.constant(100.0)
    u = np.ones_like(qctx.x)
    u.flat[0] = 1e6
    w = qctx.weights
    start = np.sum(w * u) / (1.0 + np.sum(w))
    with np.errstate(over="ignore"):
        assert math.isinf(modular(u / start, p, qctx))
        want = bisection_norm(u, p, qctx)
    got = luxemburg_norm(u, p, qctx)
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


def test_holder_rejects_nonconjugate_exponents():
    qctx = square_qctx(0.3)
    with pytest.raises(PreconditionError):
        holder_check(1.0, 1.0, ExponentField.constant(2.0),
                     ExponentField.constant(2.0),
                     ExponentField.constant(1.1), qctx)


def test_exponent_lip_bounds_sampled_difference_quotients():
    # sidecars record p's Lipschitz bound; on a convex domain it must bound
    # every quotient |p(a) - p(b)| / |a - b|, and sin(4x) peaks at x = 0
    p = ExponentField.from_expression(parse_field("1.7 + 0.2*sin(4*x)"),
                                      SQUARE)
    assert p.lip == pytest.approx(0.8, rel=1e-12)
    rng = np.random.Generator(np.random.Philox(11))
    pairs = rng.uniform(0, 1, size=(500, 4))
    # plain loop oracle
    worst = 0.0
    for x1, y1, x2, y2 in pairs:
        pa = 1.7 + 0.2 * math.sin(4 * x1)
        pb = 1.7 + 0.2 * math.sin(4 * x2)
        worst = max(worst, abs(pa - pb) / math.hypot(x1 - x2, y1 - y2))
    assert 0.5 * p.lip < worst <= p.lip


def test_exponent_field_estimates():
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    assert p.p1 == pytest.approx(1.5, abs=1e-9)
    assert p.p2 == pytest.approx(2.0, abs=1e-9)
    assert p.lip == pytest.approx(0.5, rel=1e-12)
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
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            mollify_exponent(p, bad)


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


def reach_probes(domain, moll):
    """For every offset length r, points at line distance r and at the
    offset's reach (r plus the roundoff margin), each moved a few ulps either
    way: off the middle of two edges, and on the inward bisector of two
    polyline vertices, where two edge lines are equally near."""
    poly = domain.polyline
    u_in, u_out, turn = geometry._turns(poly)
    n_in = np.column_stack([-u_in[:, 1], u_in[:, 0]])
    n_out = np.column_stack([-u_out[:, 1], u_out[:, 0]])
    bisector = n_in + n_out
    bisector /= np.hypot(bisector[:, 0], bisector[:, 1])[:, None]
    # distance along the bisector per unit of line distance
    stretch = 1.0 / np.cos(0.5 * turn)
    picks = (0, len(poly) // 2 + 1)
    mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
    radii = np.hypot(moll.offsets[:, 0], moll.offsets[:, 1])
    dists = []
    for t in np.concatenate([radii, moll._reach]):
        for _ in range(4):
            t = np.nextafter(t, 0.0)
        for _ in range(9):
            dists.append(t)
            t = np.nextafter(t, np.inf)
    dists = np.array(dists)[:, None]
    pts = [mids[k] + dists * n_out[k] for k in picks]
    pts += [poly[k] + dists * stretch[k] * bisector[k] for k in picks]
    return np.vstack(pts)


@pytest.mark.parametrize("delta", [0.05, 0.2])
@pytest.mark.parametrize("name", ["square", "rounded_square"])
def test_mollified_field_reach_margin(name, delta):
    # each offset projects only the points it can carry out of the domain;
    # points at exactly that reach, in an edge's middle and near a vertex,
    # give the same bits as projecting every point under every offset
    domain = ORACLE_DOMAINS[name]
    pd = mollify_exponent(ExponentField.from_expression(
        parse_field("1.5 + 0.25*abs(x - 0.5) + 0.1*y*y"), domain), delta)
    moll = pd.field
    pts = reach_probes(domain, moll)
    depth = domain.line_distance(pts)
    # the probes straddle every offset's reach within a few ulps
    for reach in moll._reach:
        gap = depth - reach
        assert np.any((gap < 0) & (gap > -1e-15))
        assert np.any((gap >= 0) & (gap < 1e-15))
    x, y = pts[:, 0], pts[:, 1]
    assert np.array_equal(moll.evaluate(x, y),
                          reference_mollified(moll, x, y))


@pytest.mark.parametrize("delta", [0.05, 0.2])
@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_mollified_field_small_batches(name, delta, monkeypatch):
    # batches of 50 pairs cut the points into chunks of 50 and the offsets
    # into batches of one or a few; a single deep point runs its offsets as
    # one batch of 50 and a ragged one
    monkeypatch.setattr(varexp, "MOLLIFY_BATCH_PAIRS", 50)
    domain = ORACLE_DOMAINS[name]
    moll = mollify_exponent(ExponentField.from_expression(
        parse_field("2 + 0.3*sin(3*x)*cos(2*y)"), domain), delta).field
    assert len(moll.offsets) % 50 != 0
    pts = oracle_points(domain, delta)
    x, y = pts[:, 0], pts[:, 1]
    assert np.array_equal(moll.evaluate(x, y),
                          reference_mollified(moll, x, y))
    lo, hi = domain.bounding_box()
    for px, py in (0.5 * (lo + hi), pts[-1]):
        value = moll.evaluate(px, py)
        assert isinstance(value, float)
        assert value == reference_mollified(moll, px, py)
    empty = moll.evaluate(np.empty(0), np.empty(0))
    assert empty.shape == (0,)


def test_mollified_field_calls_stay_within_the_batch_bound(monkeypatch):
    # more points than the bound: a chunk of 50 points takes its offsets one
    # at a time, and neither the base nor project sees more than 50 pairs
    monkeypatch.setattr(varexp, "MOLLIFY_BATCH_PAIRS", 50)
    domain = ORACLE_DOMAINS["rounded_square"]
    p = ExponentField.from_expression(parse_field("1.6 + 0.3*x + 0.1*y"),
                                      domain)
    sizes = {"base": [], "project": []}

    def base(x, y):
        sizes["base"].append(np.size(x))
        return field_values(p.field, x, y)

    project = domain.project

    def counted_project(pts):
        sizes["project"].append(len(pts))
        return project(pts)

    monkeypatch.setattr(domain, "project", counted_project)
    moll = mollify_exponent(ExponentField(base, p.p1, p.p2, p.lip,
                                          domain=domain), 0.2).field
    pts = oracle_points(domain, 0.2)
    assert len(pts) > 50
    got = moll.evaluate(pts[:, 0], pts[:, 1])
    assert max(sizes["base"]) <= 50 and max(sizes["project"]) <= 50
    # every (point, offset) pair is evaluated once
    assert sum(sizes["base"]) == len(moll.offsets) * len(pts)
    assert sizes["project"]
    assert np.array_equal(got, reference_mollified(moll, pts[:, 0],
                                                   pts[:, 1]))


@pytest.mark.parametrize("name", ["square", "heptagon"])
def test_mollified_field_edge_line_probes(name):
    # for every offset, points that the offset carries to within a few ulps
    # of an edge line, on either side: the clearance test must leave each
    # such pair to project, which decides it as the reference does.  The
    # base turns a one-ulp move of a point into a change of its value, so a
    # clearance test without its roundoff margin fails on the heptagon
    domain = ORACLE_DOMAINS[name]
    moll = mollify_exponent(ExponentField.from_expression(
        parse_field("2 + sin(1e8*x)*cos(1e8*y)"), domain), 0.2).field
    poly = domain.polyline
    _, u_out, _ = geometry._turns(poly)
    normals = np.column_stack([-u_out[:, 1], u_out[:, 0]])
    mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
    pts, shifted = [], []
    for k in range(len(poly)):
        n = normals[k]
        # p - o lands on edge k's line, moved along it by o's tangential part
        on_line = mids[k] + (moll.offsets @ n)[:, None] * n
        for j in range(-6, 7):
            probe = on_line + j * np.spacing(1.0) * n
            pts.append(probe)
            shifted.append(probe - moll.offsets)
    pts, shifted = np.vstack(pts), np.vstack(shifted)
    depth = domain.line_distance(shifted)
    assert np.all(np.abs(depth) < 1e-14)
    assert np.any(depth < 0) and np.any(depth >= 0)
    x, y = pts[:, 0], pts[:, 1]
    assert np.array_equal(moll.evaluate(x, y),
                          reference_mollified(moll, x, y))
