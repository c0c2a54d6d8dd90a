"""Acceptance gate: ten criteria with pinned tolerances and runtime caps.

Each test covers one numbered criterion, prints one pass line, and asserts
its own wall-clock budget.  Tolerances are stated inline next to the
assertions they govern.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import sympy

from plapx.assembly import (P1Function, assemble_jacobian, assemble_residual)
from plapx.experiments import (ExperimentConfig, run_convergence,
                               run_domain_sweep, run_eps_sweep, run_p1_sweep)
from plapx.expressions import parse_field
from plapx.geometry import ConvexDomain, triangulate_convex
from plapx.regularity import (CoefficientSample, curvature_identity_check,
                              ellipticity_check, integrability_split_report,
                              p1_scaling_report, split_exponents)
from plapx.solver import ProblemSpec, continuation_solve
from plapx.varexp import (ExponentField, QuadratureContext, field_values,
                          holder_check, luxemburg_norm, modular)

SQUARE = ConvexDomain.unit_square()

PI = 3.141592653589793
TWO_PI_SQ = 19.739208802178716   # 2 pi^2

BASE_CONFIG = {
    "domain.vertices": "0,0; 1,0; 1,1; 0,1",
    "domain.corner_radius": "0",
    "p.expr": "2 - 0.5*x",
    "f.expr": "1",
    "g.expr": "x",
    "q.expr": "4",
    "eps.start": "1",
    "eps.stop": "1e-6",
    "eps.factor": "0.31622776601683794",
    "mesh.h": "0.12",
    "mesh.refinements": "0",
    "newton.tol": "1e-10",
    "newton.max_iter": "30",
    "s.exponent": "0.5",
    "seed": "0",
}


def build_config(out_path, **overrides):
    entries = dict(BASE_CONFIG)
    entries["output.path"] = str(out_path)
    entries.update(overrides)
    return ExperimentConfig.from_text(
        "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n")


def budget(t0, cap, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < cap, f"{label} took {elapsed:.1f}s, cap {cap}s"
    return elapsed


def test_criterion_01_ellipticity_sandwich():
    # 1e5 random states (p in [1.2, 3.5], grad over 12 decades, eps in (0,1],
    # unit directions): sandwich holds with tolerance 1e-10, zero violations
    t0 = time.perf_counter()
    n = 100_000
    rng = np.random.Generator(np.random.Philox(2024))
    theta = rng.uniform(0.0, 2.0 * PI, size=n)
    mag = 10.0 ** rng.uniform(-6, 6, size=n)
    grad = mag[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    p_vals = rng.uniform(1.2, 3.5, size=n)
    eps = 10.0 ** rng.uniform(-6, 0, size=n)
    sample = CoefficientSample.from_state(grad, p_vals, eps)
    rep = ellipticity_check(sample, 1.2, 3.5)
    assert rep.lower == pytest.approx(0.2)
    assert rep.upper == pytest.approx(2.5)
    assert rep.low_margin >= -1e-10
    assert rep.high_margin >= -1e-10
    assert rep.satisfied
    elapsed = budget(t0, 10.0, "criterion 1")
    print(f"criterion 1 ellipticity sandwich: PASS ({elapsed:.2f}s, "
          f"margins {rep.low_margin:.2e}/{rep.high_margin:.2e})")


def test_criterion_02_space_axioms():
    t0 = time.perf_counter()
    mesh = triangulate_convex(SQUARE, 0.12)
    qctx = QuadratureContext(mesh)
    p_var = ExponentField.from_expression(parse_field("1.6 + 0.3*y"), SQUARE)

    # homogeneity and unit-ball property to 1e-6
    u = parse_field("exp(x) - y")
    base = luxemburg_norm(u, p_var, qctx)
    uv = field_values(u, qctx.x, qctx.y)
    for c in (0.02, 3.0, 250.0):
        assert luxemburg_norm(c * uv, p_var, qctx) == pytest.approx(
            c * base, rel=1e-6)
    assert modular(uv / base, p_var, qctx) == pytest.approx(1.0, abs=1e-6)

    # constant-exponent consistency to rel 1e-8
    w = parse_field("sin(3*x) + y^2")
    for p_val in (1.3, 2.0, 3.5):
        pf = ExponentField.constant(p_val)
        want = modular(w, pf, qctx) ** (1.0 / p_val)
        assert luxemburg_norm(w, pf, qctx) == pytest.approx(want, rel=1e-8)

    # Hoelder inequality with constant 2 on 100 randomized cases
    rng = np.random.Generator(np.random.Philox(99))
    for k in range(100):
        p_val = rng.uniform(2.05, 6.0)
        q_val = rng.uniform(2.05, 6.0)
        s_val = 1.0 / (1.0 / p_val + 1.0 / q_val)
        cf = rng.normal(size=3)
        cg = rng.normal(size=3)
        fv = cf[0] + cf[1] * np.sin(3 * qctx.x) + cf[2] * qctx.y ** 2
        gv = cg[0] + cg[1] * np.cos(2 * qctx.y) + cg[2] * qctx.x * qctx.y
        chk = holder_check(fv, gv, ExponentField.constant(p_val),
                           ExponentField.constant(q_val),
                           ExponentField.constant(s_val), qctx)
        assert chk.satisfied, f"case {k}: lhs {chk.lhs} rhs {chk.rhs}"
    elapsed = budget(t0, 30.0, "criterion 2")
    print(f"criterion 2 space axioms: PASS ({elapsed:.2f}s)")


def test_criterion_03_jacobian_fd():
    # central differences of the residual match the Jacobian to rel 1e-5 on
    # 20 random (u, direction, variable p) cases
    t0 = time.perf_counter()
    mesh = triangulate_convex(SQUARE, 0.22)
    qctx = QuadratureContext(mesh)
    interior = ~mesh.is_boundary
    rng = np.random.Generator(np.random.Philox(12))
    p_exprs = ["1.6 + 0.3*x", "2 - 0.5*x", "1.5 + 0.4*x*y",
               "2.2 + 0.5*sin(x + y)", "1.8 + 0.1*x - 0.2*y"]
    step = 1e-6
    worst = 0.0
    for k in range(20):
        p = ExponentField.from_expression(parse_field(p_exprs[k % 5]), SQUARE)
        eps = 10.0 ** rng.uniform(-3, 0)
        u = P1Function(mesh, rng.normal(size=mesh.n_points))
        d = rng.normal(size=mesh.n_points)
        J = assemble_jacobian(u, p, eps, qctx)
        up = P1Function(mesh, u.coeffs + step * d)
        um = P1Function(mesh, u.coeffs - step * d)
        fd = (assemble_residual(up, p, 0.0, eps, qctx)
              - assemble_residual(um, p, 0.0, eps, qctx)) / (2 * step)
        Jd = J @ d
        rel = (np.linalg.norm(Jd[interior] - fd[interior])
               / np.linalg.norm(fd[interior]))
        worst = max(worst, rel)
        assert rel <= 1e-5, f"case {k}: rel fd mismatch {rel:.2e}"
    elapsed = budget(t0, 60.0, "criterion 3")
    print(f"criterion 3 jacobian fd: PASS ({elapsed:.2f}s, worst {worst:.2e})")


def test_criterion_04_manufactured_convergence(tmp_path):
    t0 = time.perf_counter()
    # part A: p = 2 with u = sin(pi x) sin(pi y), f = 2 pi^2 u, 4 levels
    cfg = build_config(
        tmp_path / "conv.csv",
        **{"p.expr": "2",
           "f.expr": f"{TWO_PI_SQ}*sin({PI}*x)*sin({PI}*y)",
           "g.expr": "0",
           "u.exact.expr": f"sin({PI}*x)*sin({PI}*y)",
           "eps.start": "1e-6", "eps.stop": "1e-6",
           "mesh.h": "0.25", "mesh.refinements": "4"})
    result = run_convergence(cfg)
    assert len(result.rows) == 4
    l2_errs = [row[2] for row in result.rows]
    h1_errs = [row[3] for row in result.rows]
    assert all(a > b for a, b in zip(l2_errs, l2_errs[1:]))
    assert all(a > b for a, b in zip(h1_errs, h1_errs[1:]))
    l2_order = result.rows[-1][4]
    h1_order = result.rows[-1][5]
    assert l2_order >= 1.85, f"observed L2 order {l2_order:.3f}"
    assert h1_order >= 0.90, f"observed H1 order {h1_order:.3f}"

    # part B: p = 3/2 radial solution on the disk, symbolically verified
    # before use: -div(|u'|^(p-2) u') = 1 and u(1) = 0
    r = sympy.symbols("r", positive=True)
    u_sym = (1 - r ** 3) / 12
    du = sympy.diff(u_sym, r)
    flux = sympy.Abs(du) ** sympy.Rational(-1, 2) * du
    residual = -sympy.simplify(sympy.diff(r * flux, r) / r) - 1
    assert sympy.simplify(residual) == 0
    assert u_sym.subs(r, 1) == 0

    # each level is meshed at its own h so the boundary polyline refines
    # along with the interior (uniform refinement would freeze the coarse
    # boundary resampling and floor the error at the domain gap)
    dom = ConvexDomain.disk(1.0, segments=512)
    spec = ProblemSpec(domain=dom, p=ExponentField.constant(1.5), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), mesh_h=0.16)
    errors = []
    hs = []
    for h in (0.16, 0.08, 0.04):
        mesh = triangulate_convex(dom, h)
        qctx = QuadratureContext(mesh)
        report = continuation_solve(spec, mesh=mesh)
        uv = report.solution.quadrature_values(qctx)
        rr = np.sqrt(qctx.x ** 2 + qctx.y ** 2)
        exact = (1.0 - np.minimum(rr, 1.0) ** 3) / 12.0
        errors.append(math.sqrt(float(np.sum(qctx.weights
                                             * (uv - exact) ** 2))))
        hs.append(mesh.h)
    assert errors[0] > errors[1] > errors[2]
    orders = [math.log(errors[i] / errors[i + 1])
              / math.log(hs[i] / hs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5, f"radial L2 orders {orders}"
    elapsed = budget(t0, 300.0, "criterion 4")
    print(f"criterion 4 manufactured convergence: PASS ({elapsed:.2f}s, "
          f"sinsin orders {l2_order:.2f}/{h1_order:.2f}, "
          f"radial orders {orders[0]:.2f}/{orders[1]:.2f})")


def test_criterion_05_uniform_in_eps(tmp_path):
    # square benchmark, Lipschitz p in [1.5, 2], f = 1 (in L^4, zero measure
    # where p > 2): Luxemburg gradient norms stay within ratio 1.5 over the
    # whole sweep and both H2 estimates move <= 10% over the last two decades
    t0 = time.perf_counter()
    cfg = build_config(tmp_path / "eps.csv")
    result = run_eps_sweep(cfg)
    assert not result.failed
    cols = {name: i for i, name in enumerate(result.columns)}
    eps = np.array([row[cols["eps"]] for row in result.rows])
    norms = np.array([row[cols["grad_lp_norm"]] for row in result.rows])
    assert len(result.rows) == 13
    ratio = float(np.max(norms) / np.min(norms))
    assert ratio <= 1.5, f"grad norm ratio {ratio:.4f}"
    tail = eps <= 1e-4 * (1 + 1e-9)
    assert np.sum(tail) == 5
    for key in ("h2_dq", "h2_recovery"):
        vals = np.array([row[cols[key]] for row in result.rows])[tail]
        swing = float(np.max(vals) / np.min(vals)) - 1.0
        assert swing <= 0.10, f"{key} varies {100 * swing:.2f}% in the tail"
    elapsed = budget(t0, 600.0, "criterion 5")
    print(f"criterion 5 uniform-in-eps bounds: PASS ({elapsed:.2f}s, "
          f"ratio {ratio:.4f})")


def test_criterion_06_curvature_identity():
    t0 = time.perf_counter()
    rep = curvature_identity_check("1 - x^2 - y^2")
    assert rep.lhs == pytest.approx(-4.0 * PI, abs=1e-8)
    assert rep.rhs == pytest.approx(-4.0 * PI, abs=1e-8)
    assert rep.abs_err <= 1e-8

    # independent-quadrature oracle for the nontrivial cases: adaptive 1-d
    # integration of the boundary side, plus Bessel closed forms
    def boundary_oracle(src):
        e = parse_field(src)
        ux, uy = e.diff("x"), e.diff("y")

        def integrand(th):
            c, s = math.cos(th), math.sin(th)
            return (ux.evaluate(c, s) * c + uy.evaluate(c, s) * s) ** 2

        val, err = scipy.integrate.quad(integrand, 0.0, 2.0 * PI,
                                        epsabs=1e-12, epsrel=1e-12, limit=200)
        assert err < 1e-9
        return -0.5 * val

    cases = {
        "(1 - x^2 - y^2) * exp(x)": -4.0 * PI * scipy.special.i0(2.0),
        "(1 - x^2 - y^2) * sin(x + 2*y)":
            -2.0 * PI * (1.0 - scipy.special.j0(2.0 * math.sqrt(5.0))),
    }
    for src, closed_form in cases.items():
        rep = curvature_identity_check(src)
        oracle = boundary_oracle(src)
        assert oracle == pytest.approx(closed_form, abs=1e-9)
        assert rep.lhs == pytest.approx(oracle, abs=1e-6)
        assert rep.rhs == pytest.approx(oracle, abs=1e-6)
        assert rep.abs_err <= 1e-6
    elapsed = budget(t0, 10.0, "criterion 6")
    print(f"criterion 6 curvature identity: PASS ({elapsed:.2f}s)")


def test_criterion_07_integrability_split():
    t0 = time.perf_counter()
    # hand-computed branch values
    fe, we, gr = split_exponents([1.8], [4.0])
    assert fe[0] == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert we[0] == pytest.approx(8.0, rel=1e-14)
    assert gr[0] == pytest.approx(1.6, rel=1e-14)
    fe, we, gr = split_exponents([1.6], [4.0])
    assert fe[0] == pytest.approx(3.0, rel=1e-14)
    assert we[0] == pytest.approx(6.0, rel=1e-14)
    assert gr[0] == pytest.approx(2.4, rel=1e-14)

    # banding at every quadrature point of a solved benchmark
    p = ExponentField.from_expression(parse_field("2 - 0.5*x"), SQUARE)
    spec = ProblemSpec(domain=SQUARE, p=p, f=1.0, g=parse_field("x"),
                       q=ExponentField.constant(4.0), eps_stop=1e-3,
                       mesh_h=0.16)
    report = continuation_solve(spec)
    qctx = QuadratureContext(report.mesh)
    rep = integrability_split_report(report.solution, spec.p, spec.f, spec.q,
                                     report.final().eps, qctx)
    assert rep.band_satisfied
    assert rep.conjugate_defect <= 1e-12
    assert rep.holder_satisfied

    # direct norm <= 2 * split product on 20 random cases
    mesh = triangulate_convex(SQUARE, 0.15)
    qctx = QuadratureContext(mesh)
    rng = np.random.Generator(np.random.Philox(77))
    for k in range(20):
        c = rng.normal(size=4)
        u = P1Function.interpolate(
            mesh, lambda x, y: (c[0] * np.sin(3 * x) + c[1] * y ** 2
                                + c[2] * x * y + c[3] * x))
        p_val = rng.uniform(1.2, 1.95)
        q_val = rng.uniform(2.6, 7.0)
        eps = 10.0 ** rng.uniform(-4, 0)
        f_expr = parse_field("1 + 0.5*sin(2*x + y)")
        rep = integrability_split_report(
            u, ExponentField.constant(p_val), f_expr,
            ExponentField.constant(q_val), eps, qctx)
        assert not rep.vacuous
        assert rep.holder_satisfied, (
            f"case {k}: direct {rep.direct} > 2*split {2 * rep.split}")
        assert rep.band_satisfied, f"case {k}"
    elapsed = budget(t0, 60.0, "criterion 7")
    print(f"criterion 7 integrability split: PASS ({elapsed:.2f}s)")


def test_criterion_08_domain_approximation(tmp_path):
    # corner-rounding sweep with halving radii: deficits track (4 - pi) r^2,
    # successive interior H1 distances strictly decrease, H2 stays in a
    # factor-2 corridor
    t0 = time.perf_counter()
    cfg = build_config(tmp_path / "dom.csv",
                       **{"radius.list": "0.4, 0.2, 0.1, 0.05, 0.025",
                          "mesh.h": "0.12", "mesh.refinements": "2",
                          "eps.stop": "1e-4"})
    result = run_domain_sweep(cfg)
    assert not result.failed
    assert len(result.rows) == 5
    cols = {name: i for i, name in enumerate(result.columns)}
    for row in result.rows:
        r_val = row[cols["radius"]]
        deficit = row[cols["area_deficit"]]
        # polyline resolution: the rounded arcs are polygonal, so allow 2%
        assert deficit == pytest.approx((4.0 - PI) * r_val ** 2, rel=2e-2)
    dists = [row[cols["h1_window_dist"]] for row in result.rows]
    assert math.isnan(dists[0])
    tail = dists[1:]
    assert all(d > 0 for d in tail)
    assert all(a > b for a, b in zip(tail, tail[1:])), f"distances {tail}"
    for key in ("h2_dq", "h2_recovery"):
        vals = [row[cols[key]] for row in result.rows]
        assert max(vals) / min(vals) <= 2.0, f"{key} corridor {vals}"
    elapsed = budget(t0, 600.0, "criterion 8")
    print(f"criterion 8 domain approximation: PASS ({elapsed:.2f}s, "
          f"distances {['%.2e' % d for d in tail]})")


def test_criterion_09_p1_scaling(tmp_path):
    t0 = time.perf_counter()
    # the fit routine reproduces synthetic exact-power data to 1e-12
    p1 = np.array([1.5, 1.25, 1.1, 1.05])
    synth = 1.7 * (p1 - 1.0) ** -0.9
    fit = p1_scaling_report(p1, synth)
    assert abs(fit.slope - 0.9) <= 1e-12
    assert abs(fit.intercept - math.log(1.7)) <= 1e-12

    # measured sweep: slopes finite and at most kappa + 1/2 = 1.5
    cfg = build_config(tmp_path / "p1.csv",
                       **{"p1.list": "1.5, 1.25, 1.1, 1.05",
                          "p.expr": "2", "g.expr": "x"})
    result = run_p1_sweep(cfg)
    assert not result.failed
    assert len(result.rows) == 4
    for key in ("scaling_dq", "scaling_recovery"):
        fitp = result.payload[key]
        assert not fitp["degenerate"]
        assert math.isfinite(fitp["slope"])
        assert fitp["bound"] == 1.5
        assert fitp["within_bound"], f"{key} slope {fitp['slope']:.3f}"
    elapsed = budget(t0, 900.0, "criterion 9")
    print(f"criterion 9 p1 scaling: PASS ({elapsed:.2f}s, slopes "
          f"{result.payload['scaling_dq']['slope']:.3f}/"
          f"{result.payload['scaling_recovery']['slope']:.3f})")


def test_criterion_10_determinism(tmp_path):
    # identical configs, fresh runs, byte-identical CSVs (single thread)
    t0 = time.perf_counter()
    kw = {"mesh.h": "0.2", "eps.stop": "1e-3"}
    run_eps_sweep(build_config(tmp_path / "eps_a.csv", **kw))
    run_eps_sweep(build_config(tmp_path / "eps_b.csv", **kw))
    a = (tmp_path / "eps_a.csv").read_bytes()
    b = (tmp_path / "eps_b.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 8

    kw2 = {"p1.list": "1.8, 1.5", "eps.start": "0.1", "eps.stop": "0.1",
           "mesh.h": "0.2"}
    run_p1_sweep(build_config(tmp_path / "p1_a.csv", **kw2))
    run_p1_sweep(build_config(tmp_path / "p1_b.csv", **kw2))
    assert ((tmp_path / "p1_a.csv").read_bytes()
            == (tmp_path / "p1_b.csv").read_bytes())
    # sidecars agree except for the output path baked into the config echo
    ja = json.loads((tmp_path / "p1_a.csv.json").read_text())
    jb = json.loads((tmp_path / "p1_b.csv.json").read_text())
    ja["config"].pop("output.path"), jb["config"].pop("output.path")
    assert ja == jb
    elapsed = budget(t0, 600.0, "criterion 10")
    print(f"criterion 10 determinism: PASS ({elapsed:.2f}s)")
