import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from plapx.cli import main as cli_main
from plapx.experiments import (DEFAULT_IDENTITY_EXPRS, ConfigError,
                               ExperimentConfig, run_convergence,
                               run_domain_sweep, run_eps_sweep,
                               run_identity_check, run_p1_sweep, run_solve,
                               thread_count, write_csv, write_sidecar)
from plapx.geometry import load_mesh
from plapx.solver import EpsRecord
from plapx.varexp import QuadratureContext

BASE = {
    "domain.vertices": "0,0; 1,0; 1,1; 0,1",
    "domain.corner_radius": "0",
    "p.expr": "2",
    "f.expr": "1",
    "g.expr": "0",
    "q.expr": "4",
    "eps.start": "0.5",
    "eps.stop": "0.5",
    "eps.factor": "0.31622776601683794",
    "mesh.h": "0.3",
    "mesh.refinements": "0",
    "newton.tol": "1e-10",
    "newton.max_iter": "30",
    "s.exponent": "0.5",
    "seed": "0",
}


def config_text(out_path, **overrides):
    entries = dict(BASE)
    entries["output.path"] = str(out_path)
    for k, v in overrides.items():
        if v is None:
            entries.pop(k, None)
        else:
            entries[k] = v
    return "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"


def make_config(tmp_path, name="out.csv", **overrides):
    return ExperimentConfig.from_text(
        config_text(tmp_path / name, **overrides))


# --- config parsing -------------------------------------------------------------


def test_config_minimal_roundtrip(tmp_path):
    cfg = make_config(tmp_path)
    assert cfg.spec.domain.area == pytest.approx(1.0)
    assert cfg.spec.p.p1 == cfg.spec.p.p2 == 2.0
    assert cfg.spec.eps_start == 0.5
    assert cfg.refinements == 0
    assert cfg.spec.seed == 0
    assert cfg.output_path.endswith("out.csv")
    assert cfg.u_exact is None and cfg.p1_list == [] and cfg.radius_list == []


def test_config_comments_and_blank_lines(tmp_path):
    text = ("# leading comment\n\n"
            + config_text(tmp_path / "o.csv")
            + "   # trailing comment line\n")
    text = text.replace("mesh.h = 0.3", "mesh.h = 0.3  # inline note")
    cfg = ExperimentConfig.from_text(text)
    assert cfg.spec.mesh_h == 0.3


def test_config_duplicate_key_cites_line(tmp_path):
    text = config_text(tmp_path / "o.csv") + "mesh.h = 0.2\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text(text)
    assert f"line {lineno}" in str(err.value)
    assert "duplicate key 'mesh.h'" in str(err.value)


def test_config_unknown_key(tmp_path):
    text = config_text(tmp_path / "o.csv") + "solver.mode = fast\n"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text(text)
    assert "unknown key 'solver.mode'" in str(err.value)


def test_config_missing_keys_listed():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text("mesh.h = 0.3\n")
    msg = str(err.value)
    assert "missing required keys" in msg
    assert "p.expr" in msg and "output.path" in msg


def test_config_malformed_line():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text("just words\n")
    assert "line 1" in str(err.value)


def test_config_bad_number(tmp_path):
    with pytest.raises(ConfigError) as err:
        make_config(tmp_path, **{"mesh.h": "tiny"})
    assert "'mesh.h'" in str(err.value)
    with pytest.raises(ConfigError) as err:
        make_config(tmp_path, **{"mesh.refinements": "1.5"})
    assert "'mesh.refinements'" in str(err.value)


def test_config_bad_expression_cites_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        make_config(tmp_path, **{"p.expr": "2 +"})
    assert "'p.expr'" in str(err.value)


def test_config_bad_vertices(tmp_path):
    with pytest.raises(ConfigError):
        make_config(tmp_path, **{"domain.vertices": "0,0; 1,0"})
    with pytest.raises(ConfigError):
        make_config(tmp_path, **{"domain.vertices": "0,0; 1; 1,1"})
    for bad in ("-0.1", "nan"):
        with pytest.raises(ConfigError):
            make_config(tmp_path, **{"domain.corner_radius": bad})


def test_config_optional_lists(tmp_path):
    cfg = make_config(tmp_path, **{"p1.list": "1.5, 1.25, 1.1",
                                   "radius.list": "0.4, 0.2",
                                   "identity.exprs":
                                       "1 - x^2 - y^2; (1 - x^2 - y^2)*exp(x)"})
    assert cfg.p1_list == [1.5, 1.25, 1.1]
    assert cfg.radius_list == [0.4, 0.2]
    assert len(cfg.identity_exprs) == 2
    with pytest.raises(ConfigError):
        make_config(tmp_path, **{"identity.exprs": "1 +"})


def test_config_spec_errors_become_config_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        make_config(tmp_path, **{"eps.start": "1e-6", "eps.stop": "0.5"})
    assert str(err.value) == "need 0 < eps_stop <= eps_start <= 1"


@pytest.mark.parametrize("key,value,reason", [
    pytest.param(key, value, reason, id=key) for key, value, reason in [
        ("q.expr", "0.5", "exponent lower bound 0.5 is below 1"),
        ("p.expr", "sqrt(x - 0.5)", "sqrt of a negative argument at point "),
        ("domain.vertices", "0,0; 1,0; 0,1; 1,1",
         "vertices are not in convex CCW position"),
        ("domain.corner_radius", "0.6",
         "corner_radius must be below half the shortest edge"),
        ("seed", "-1", "must be >= 0"),
        ("newton.max_iter", "0", "must be >= 1"),
        ("mesh.h", "0", "must be positive"),
        ("newton.tol", "0", "must be positive"),
        ("eps.factor", "1", "must lie in (0, 1)"),
    ]])
def test_load_failures_name_their_key(tmp_path, capsys, key, value, reason):
    path = write_config(tmp_path, **{key: value})
    assert cli_main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: key '{key}': {reason}")
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt"]


def test_overflowing_exponent_is_refused_without_a_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            make_config(tmp_path, **{"p.expr": "exp(1000*x)"})
    assert str(err.value) == (
        "key 'p.expr': exponent not finite on the domain")


def test_problem_spec_overrides_leave_config_spec_alone(tmp_path):
    from plapx.varexp import ExponentField

    cfg = make_config(tmp_path)
    spec = cfg.problem_spec(p=ExponentField.constant(1.5))
    assert spec is not cfg.spec
    assert spec.p.p1 == 1.5 and cfg.spec.p.p1 == 2.0
    assert spec.domain is cfg.spec.domain and spec.mesh_h == cfg.spec.mesh_h


def test_working_mesh_applies_refinements(tmp_path):
    cfg = make_config(tmp_path, **{"mesh.refinements": "1"})
    base = cfg.meshes(1)[0]
    fine = cfg.working_mesh()
    assert fine.n_triangles == 4 * base.n_triangles


def test_eps_schedule_past_the_cap_does_not_load(tmp_path, capsys):
    # eps.factor 0.999999 asks for about 13.8 million eps steps
    overrides = {"eps.start": "1", "eps.stop": "1e-6",
                 "eps.factor": "0.999999"}
    with pytest.raises(ConfigError,
                       match=r"^eps schedule of 13815\d{3} steps, more than "
                             r"1000 "):
        make_config(tmp_path, **overrides)
    path = write_config(tmp_path, **overrides)
    assert cli_main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: eps schedule of ")
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt"]


def test_eps_schedule_cap_admits_its_own_length(tmp_path):
    from plapx.solver import MAX_EPS_STEPS
    cfg = make_config(tmp_path, **{"eps.start": "1", "eps.factor": "0.5",
                                   "eps.stop": repr(0.5 ** 999)})
    assert len(cfg.spec.eps_schedule()) == MAX_EPS_STEPS
    with pytest.raises(ConfigError, match="eps schedule of 1001 steps"):
        make_config(tmp_path, **{"eps.start": "1", "eps.factor": "0.5",
                                 "eps.stop": repr(0.5 ** 1000)})


@pytest.mark.parametrize("factor,stop", [("0.97", "6.094843127e-14"),
                                         ("0.95", "5.570339734e-23"),
                                         ("0.919", "2.250069199e-37")])
def test_eps_cap_counts_with_the_schedule_loop(tmp_path, factor, stop):
    # each schedule has 1,000 steps, though its log count rounds to 1,001
    cfg = make_config(tmp_path, **{"eps.start": "1", "eps.factor": factor,
                                   "eps.stop": stop})
    assert len(cfg.spec.eps_schedule()) == 1000


@pytest.mark.parametrize("command,overrides", [
    ("solve", {"mesh.refinements": "12"}),
    ("convergence", {"mesh.refinements": "12", "u.exact.expr": "x*y"}),
])
def test_refinements_past_the_triangle_cap_fail_before_refining(
        tmp_path, capsys, monkeypatch, command, overrides):
    import plapx.experiments

    def refuse(mesh):
        raise AssertionError("refined a mesh past the cap")

    monkeypatch.setattr(plapx.experiments, "refine_uniform", refuse)
    path = write_config(tmp_path, **overrides)
    assert cli_main([command, str(path)]) == 1
    assert "error:" not in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    [failure] = side["failures"]
    levels = 12 if command == "solve" else 11
    assert re.fullmatch(rf"{levels} uniform refinements of \d+ triangles "
                        r"make \d+, more than 400000", failure["mesh"])


def test_audit_of_an_exponent_without_closed_form_gradient(
        tmp_path, monkeypatch):
    # max has no symbolic derivative, so the audit's p gradient comes from
    # central differences
    import plapx.varexp

    central, sizes = plapx.varexp._central_gradient, []

    def counted(f, x, y, h):
        sizes.append(np.size(x))
        return central(f, x, y, h)

    monkeypatch.setattr(plapx.varexp, "_central_gradient", counted)
    path = write_config(tmp_path, **{"p.expr": "max(1.5, 2 - x)",
                                     "mesh.h": "0.2"})
    assert cli_main(["solve", str(path)]) == 0
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["ellipticity_audit"]["satisfied"] is True
    assert 2000 in sizes
    p = ExperimentConfig.load(path).spec.p
    gx, gy = p.gradient(np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]),
                        np.array([0.2, 0.8, 0.5, 0.5, 0.1, 0.6]))
    np.testing.assert_allclose(gx, [-1, -1, -1, 0, 0, 0], atol=1e-8)
    np.testing.assert_allclose(gy, 0.0, atol=1e-8)


# --- csv / sidecar emission ------------------------------------------------------


def test_csv_cell_formats(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ("a", "b", "c", "d", "e"),
              [[0.1, 1e-06, True, 7, 'say "hi", ok']])
    content = path.read_bytes().decode()
    assert content.splitlines()[0] == "a,b,c,d,e"
    assert content.splitlines()[1] == '0.1,1e-06,1,7,"say ""hi"", ok"'
    assert content.endswith("\n")
    # repr round-trip: parsing the float cells recovers the exact doubles
    assert float(content.splitlines()[1].split(",")[0]) == 0.1


def test_sidecar_sorted_and_valid(tmp_path):
    path = tmp_path / "x.json"
    write_sidecar(path, {"zeta": 1, "alpha": [1.5, None], "mid": {"b": 2}})
    raw = path.read_text()
    assert raw.index('"alpha"') < raw.index('"mid"') < raw.index('"zeta"')
    assert raw.endswith("\n")
    assert json.loads(raw) == {"zeta": 1, "alpha": [1.5, None],
                               "mid": {"b": 2}}


# --- runners ---------------------------------------------------------------------


def test_run_solve_single_row(tmp_path):
    cfg = make_config(tmp_path)
    result = run_solve(cfg)
    assert result.command == "solve"
    assert result.columns == EpsRecord.COLUMNS
    assert len(result.rows) == 1
    assert not result.failed
    assert result.csv_path == str(tmp_path / "out.csv")
    assert result.sidecar_path == str(tmp_path / "out.csv") + ".json"
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == ",".join(EpsRecord.COLUMNS)
    assert len(lines) == 2
    side = json.loads((tmp_path / "out.csv.json").read_text())
    assert side["command"] == "solve"
    assert side["config"]["mesh.h"] == "0.3"
    assert side["version"]
    assert side["failures"] == []
    assert side["ellipticity_audit"]["satisfied"] is True
    assert set(side["ellipticity_audit"]) == {
        "lower", "upper", "low_margin", "high_margin", "satisfied",
        "n_samples"}
    assert side["mesh"]["n_points"] > 0
    assert side["exponent"] == {"p1": 2.0, "p2": 2.0, "lip": 0.0}


def test_run_solve_byte_identical_reruns(tmp_path):
    # s.exponent is accepted with any value, or left out, and changes nothing
    run_solve(make_config(tmp_path, name="a.csv"))
    run_solve(make_config(tmp_path, name="b.csv"))
    run_solve(make_config(tmp_path, name="c.csv", **{"s.exponent": None}))
    run_solve(make_config(tmp_path, name="d.csv", **{"s.exponent": "2"}))
    sides = []
    for name in "abcd":
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / "a.csv").read_bytes())
        side = json.loads((tmp_path / f"{name}.csv.json").read_text())
        side["config"].pop("output.path")
        side["config"].pop("s.exponent", None)
        sides.append(side)
    assert all(side == sides[0] for side in sides)


def test_run_eps_sweep_rows(tmp_path):
    cfg = make_config(tmp_path, **{"eps.start": "1", "eps.stop": "0.01",
                                   "p.expr": "1.8"})
    result = run_eps_sweep(cfg)
    spec = cfg.problem_spec()
    assert len(result.rows) == len(spec.eps_schedule())
    eps_col = [row[0] for row in result.rows]
    assert eps_col == sorted(eps_col, reverse=True)
    assert eps_col[-1] == 0.01
    assert not result.failed


def test_runs_build_only_the_records_they_write(tmp_path, monkeypatch):
    import plapx.regularity
    calls = []
    h2_dq = plapx.regularity.h2_estimate_dq

    def counted(u, window):
        calls.append(u)
        return h2_dq(u, window)

    monkeypatch.setattr(plapx.regularity, "h2_estimate_dq", counted)
    overrides = {"eps.start": "1", "eps.stop": "0.01", "p.expr": "1.8"}
    assert len(run_solve(make_config(tmp_path, **overrides)).rows) == 1
    assert len(calls) == 1
    calls.clear()
    assert len(run_eps_sweep(make_config(tmp_path, **overrides)).rows) == 5
    assert len(calls) == 5
    calls.clear()
    run_convergence(make_config(tmp_path, **overrides, **{
        "u.exact.expr": "x*y", "mesh.refinements": "2"}))
    assert calls == []


def test_run_eps_sweep_records_failure(tmp_path):
    cfg = make_config(tmp_path, **{"newton.tol": "1e-30"})
    result = run_eps_sweep(cfg)
    assert result.failed
    fail = result.payload["failures"][0]
    assert fail["eps"] == 0.5
    assert "no convergence" in fail["reason"]
    # the failed record still lands in the CSV, flagged unconverged
    assert len(result.rows) == 1


def test_run_convergence_requires_exact(tmp_path):
    with pytest.raises(ConfigError) as err:
        run_convergence(make_config(tmp_path))
    assert "u.exact.expr" in str(err.value)
    with pytest.raises(ConfigError):
        run_convergence(make_config(
            tmp_path, **{"u.exact.expr": "x*y", "mesh.refinements": "1"}))


def test_run_convergence_orders(tmp_path, monkeypatch):
    # harmonic exact solution x*y for the p = 2 problem
    cfg = make_config(tmp_path, **{"u.exact.expr": "x*y", "f.expr": "0",
                                   "g.expr": "x*y", "mesh.refinements": "3",
                                   "mesh.h": "0.4"})
    built = []
    init = QuadratureContext.__init__

    def counting(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(QuadratureContext, "__init__", counting)
    result = run_convergence(cfg)
    # one quadrature context per level: the errors reuse the solve's
    assert len(built) == 3 == len({id(mesh) for mesh in built})
    assert len(result.rows) == 3
    level, h, l2, h1, l2o, h1o = result.rows[0]
    assert level == 0 and math.isnan(l2o) and math.isnan(h1o)
    hs = [row[1] for row in result.rows]
    assert hs[1] == pytest.approx(hs[0] / 2) and hs[2] == pytest.approx(hs[1] / 2)
    # last refinement step shows the expected orders
    assert result.rows[-1][4] > 1.5   # l2 order about 2
    assert result.rows[-1][5] > 0.8   # h1 order about 1
    errs = [row[2] for row in result.rows]
    assert errs[0] > errs[1] > errs[2]


# zero data on the demo physics: P1 reproduces u = 0 exactly, so every
# error and every H2 estimate is 0
ZERO = {"p.expr": "2 - 0.5*x", "f.expr": "0", "g.expr": "0",
        "eps.start": "1", "eps.stop": "1e-2"}


def test_cli_convergence_with_zero_errors_has_nan_orders(tmp_path, capsys):
    path = write_config(tmp_path, **ZERO, **{"u.exact.expr": "0",
                                             "mesh.refinements": "2"})
    assert cli_main(["convergence", str(path)]) == 0
    err = capsys.readouterr().err
    assert "error:" not in err and "Traceback" not in err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == []
    assert side["diagnostic_warnings"] == [
        "l2_order/h1_order: nan next to a level whose error is not positive"]
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert [line.split(",")[2:] for line in lines[1:]] == [
        ["0.0", "0.0", "nan", "nan"]] * 2


def test_cli_p1_sweep_of_a_zero_solution_fits_nothing(tmp_path, capsys):
    path = write_config(tmp_path, **ZERO, **{"p1.list": "1.5, 1.8"})
    assert cli_main(["sweep-p1", str(path)]) == 0
    assert "error:" not in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == []
    for key, column in (("scaling_dq", "h2_dq"),
                        ("scaling_recovery", "h2_recovery")):
        assert side[key] == {"error": f"fewer than 2 sweep members with a "
                                      f"positive finite {column}"}
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


@pytest.mark.parametrize("f", ["1e300", "1e160"])
def test_cli_overflowing_load_is_a_named_failure(tmp_path, capsys, f):
    path = write_config(tmp_path, **{"p.expr": "2 - 0.5*x", "g.expr": "x",
                                     "f.expr": f, "mesh.h": "0.2"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["solve", str(path)]) == 1
    assert "RuntimeWarning" not in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == [{
        "eps": None,
        "reason": "right-hand side norm ||b||_2 is not finite (inf)"}]


@pytest.mark.parametrize("f,reason", [
    ("1e153", "non-finite flux kernel v2 value at point ("),
    ("1e154", "non-finite Jacobian entry at point (")])
def test_cli_overflow_inside_a_solve_is_a_named_failure(tmp_path, capsys, f,
                                                       reason):
    # ||b||_2 is finite: at 1e153 CG's residual norm overflows first (a
    # breakdown), at 1e154 the Jacobian's (grad phi . grad u)^2
    path = write_config(tmp_path, **{"p.expr": "2 - 0.5*x", "g.expr": "x",
                                     "f.expr": f, "mesh.h": "0.2"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["solve", str(path)]) == 1
    assert "RuntimeWarning" not in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    (failure,) = side["failures"]
    assert failure["eps"] is not None and failure["reason"].startswith(reason)


def test_run_p1_sweep(tmp_path):
    cfg = make_config(tmp_path, **{"p1.list": "1.8, 1.5",
                                   "eps.start": "0.1", "eps.stop": "0.1"})
    result = run_p1_sweep(cfg)
    assert len(result.rows) == 2
    assert [row[0] for row in result.rows] == [1.8, 1.5]
    assert result.columns[0] == "p1"
    fit = result.payload["scaling_dq"]
    for key in ("scaling_dq", "scaling_recovery"):
        assert set(result.payload[key]) == {
            "slope", "intercept", "kappa", "bound", "within_bound",
            "degenerate", "warning"}
    assert not fit["degenerate"]
    assert result.payload["scaling_recovery"]["bound"] == 1.5


def test_run_p1_sweep_records_the_configured_exponent(tmp_path):
    # the members solve with constant exponents; the sidecar keeps p.expr's
    cfg = make_config(tmp_path, **{"p1.list": "1.8, 1.5", "p.expr": "2 - 0.5*x",
                                   "eps.start": "0.1", "eps.stop": "0.1"})
    run_p1_sweep(cfg)
    side = json.loads((tmp_path / "out.csv.json").read_text())
    assert side["exponent"] == {"p1": 1.5, "p2": 2.0, "lip": 0.5}


def test_run_p1_sweep_degenerate_fit(tmp_path):
    cfg = make_config(tmp_path, **{"p1.list": "1.8, 1.8",
                                   "eps.start": "0.1", "eps.stop": "0.1"})
    result = run_p1_sweep(cfg)
    fit = result.payload["scaling_dq"]
    assert fit["degenerate"]
    assert fit["slope"] == 0.0
    assert "no spread" in fit["warning"]


def test_run_p1_sweep_validation(tmp_path):
    with pytest.raises(ConfigError):
        run_p1_sweep(make_config(tmp_path))
    with pytest.raises(ConfigError):
        run_p1_sweep(make_config(tmp_path, **{"p1.list": "1.5, 0.9"}))


def test_run_domain_sweep(tmp_path):
    cfg = make_config(tmp_path, **{"radius.list": "0.3, 0.15",
                                   "mesh.h": "0.25",
                                   "eps.start": "0.5", "eps.stop": "0.5"})
    result = run_domain_sweep(cfg)
    assert len(result.rows) == 2
    r0, r1 = result.rows
    assert r0[0] == 0.3 and r1[0] == 0.15
    # rounding removes (4 - pi) r^2 of area from a unit square
    assert r0[2] == pytest.approx((4 - math.pi) * 0.09, rel=0.05)
    assert r1[2] == pytest.approx((4 - math.pi) * 0.0225, rel=0.05)
    assert math.isnan(r0[5])
    assert r1[5] > 0.0
    assert "window" in result.payload


def test_domain_sweep_recovers_each_gradient_once(tmp_path, monkeypatch):
    import plapx.experiments
    from plapx.assembly import P1Function

    solve, recovered = (plapx.experiments.continuation_solve,
                        P1Function.recovered_gradient)
    reports, returned = [], []

    def recorded(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    def counted(u):
        returned.append(recovered(u))
        return returned[-1]

    monkeypatch.setattr(plapx.experiments, "continuation_solve", recorded)
    monkeypatch.setattr(P1Function, "recovered_gradient", counted)
    result = run_domain_sweep(make_config(
        tmp_path, **{"radius.list": "0.3, 0.2, 0.1", "mesh.h": "0.25",
                     "eps.stop": "0.05"}))
    assert [math.isnan(row[5]) for row in result.rows] == [True, False, False]
    # one build per member, for its final record; the window distances
    # reuse the solutions'
    assert len({id(r) for r in returned}) == len(reports) == 3


def test_run_domain_sweep_validation(tmp_path):
    with pytest.raises(ConfigError):
        run_domain_sweep(make_config(tmp_path))
    with pytest.raises(ConfigError):
        run_domain_sweep(make_config(tmp_path, **{"radius.list": "0.1, 0.2"}))
    with pytest.raises(ConfigError):
        run_domain_sweep(make_config(tmp_path, **{"radius.list": "0.2, 0"}))
    # a NaN radius would be the unrounded polygon
    with pytest.raises(ConfigError):
        run_domain_sweep(make_config(tmp_path,
                                     **{"radius.list": "0.3, nan, 0.1"}))


def test_run_identity_check_default_trio(tmp_path):
    result = run_identity_check(make_config(tmp_path))
    assert len(result.rows) == 3
    assert [row[0] for row in result.rows] == list(DEFAULT_IDENTITY_EXPRS)
    for row in result.rows:
        assert row[3] <= 1e-8
    assert not result.failed


def test_run_identity_check_records_bad_expression(tmp_path):
    cfg = make_config(tmp_path,
                      **{"identity.exprs": "1 - x^2 - y^2; x"})
    result = run_identity_check(cfg)
    assert len(result.rows) == 1
    assert result.failed
    fail = result.payload["failures"][0]
    assert fail["expr"] == "x"
    assert "PreconditionError" in fail["reason"]


def test_run_identity_check_raises_an_error_outside_the_list(tmp_path,
                                                             monkeypatch):
    # only the recorded errors become failures entries; anything else is a
    # bug and surfaces
    import plapx.regularity

    def broken(src):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(plapx.regularity, "curvature_identity_check", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_identity_check(make_config(tmp_path))


# --- threading -------------------------------------------------------------------


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("PLAPX_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("PLAPX_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("PLAPX_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.setenv("PLAPX_THREADS", "lots")
    with pytest.raises(ConfigError):
        thread_count()


def test_threaded_run_matches_single_thread(tmp_path, monkeypatch):
    kw = {"p1.list": "1.8, 1.6, 1.4", "eps.start": "0.1", "eps.stop": "0.1"}
    monkeypatch.delenv("PLAPX_THREADS", raising=False)
    run_p1_sweep(make_config(tmp_path, name="single.csv", **kw))
    monkeypatch.setenv("PLAPX_THREADS", "3")
    run_p1_sweep(make_config(tmp_path, name="pool.csv", **kw))
    assert ((tmp_path / "single.csv").read_bytes()
            == (tmp_path / "pool.csv").read_bytes())


# --- command line ----------------------------------------------------------------


def write_config(tmp_path, name="cfg.txt", **overrides):
    path = tmp_path / name
    path.write_text(config_text(tmp_path / "cli_out.csv", **overrides),
                    encoding="utf-8")
    return path


def test_cli_solve_success(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli_main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "(1 rows)" in out and ".json" in out
    assert (tmp_path / "cli_out.csv").exists()
    assert (tmp_path / "cli_out.csv.json").exists()


def test_cli_missing_config(tmp_path, capsys):
    assert cli_main(["solve", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_bad_threads_env(tmp_path, capsys, monkeypatch):
    # even commands that never reach the thread pool must flag a
    # malformed PLAPX_THREADS
    path = write_config(tmp_path)
    monkeypatch.setenv("PLAPX_THREADS", "lots")
    assert cli_main(["solve", str(path)]) == 1
    assert "PLAPX_THREADS" in capsys.readouterr().err


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("what is this\n", encoding="utf-8")
    assert cli_main(["sweep-eps", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_validate_clean(tmp_path, capsys):
    path = write_config(tmp_path, **{"p.expr": "2 - 0.5*x"})
    assert cli_main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exponent: p1 1.5, p2 2.0, lip 0.5",
        "ok: hypotheses hold at the mesh's quadrature nodes"]


def test_cli_validate_warnings_and_strict(tmp_path, capsys):
    path = write_config(tmp_path, **{"p.expr": "2.5"})
    assert cli_main(["validate", str(path)]) == 0
    assert "warning:" in capsys.readouterr().out
    assert cli_main(["validate", "--strict", str(path)]) == 2


def test_cli_validate_meshes_once_and_saves_that_mesh(tmp_path, capsys,
                                                    monkeypatch):
    # validate checks the working mesh's nodes; --mesh-out writes that mesh
    import plapx.experiments
    calls = []
    real = plapx.experiments.triangulate_convex

    def counted(dom, h):
        calls.append(h)
        return real(dom, h)

    monkeypatch.setattr(plapx.experiments, "triangulate_convex", counted)
    path = write_config(tmp_path, **{"mesh.refinements": "1"})
    assert cli_main(["validate", str(path)]) == 0
    assert calls == [0.3]
    mesh_path = tmp_path / "grid.mesh"
    assert cli_main(["validate", str(path), "--mesh-out",
                     str(mesh_path)]) == 0
    assert calls == [0.3, 0.3]
    saved = load_mesh(mesh_path)
    want = ExperimentConfig.load(path).working_mesh()
    np.testing.assert_array_equal(saved.points, want.points)
    np.testing.assert_array_equal(saved.triangles, want.triangles)


def test_cli_validate_prints_the_exponent_before_warnings(tmp_path, capsys):
    path = write_config(tmp_path, **{"p.expr": "2.5"})
    assert cli_main(["validate", "--strict", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exponent: p1 2.5, p2 2.5, lip 0.0"
    assert len(lines) > 1
    assert all(line.startswith("warning:") for line in lines[1:])


def test_cli_strict_propagates_runner_warnings(tmp_path, capsys):
    path = write_config(tmp_path, **{"p.expr": "2.5"})
    assert cli_main(["solve", "--strict", str(path)]) == 2
    err = capsys.readouterr().err
    assert "warning:" in err


@pytest.mark.parametrize("command,key,values", [
    ("sweep-p1", "p1.list", "2.5, 3"),
    ("sweep-domain", "radius.list", "0.2, 0.1"),
])
def test_cli_strict_sweeps_report_member_warnings(tmp_path, capsys, command,
                                                  key, values):
    # every member has p > 2 and f = 1: the same warning, recorded once
    path = write_config(tmp_path, **{"p.expr": "2.5", key: values})
    assert cli_main([command, "--strict", str(path)]) == 2
    assert "warning: source is nonzero where p > 2" in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert len(side["validation_warnings"]) == 1
    assert side["validation_warnings"][0].startswith(
        "source is nonzero where p > 2")


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, **{"newton.tol": "1e-30"})
    assert cli_main(["sweep-eps", str(path)]) == 1
    assert "failure:" in capsys.readouterr().err


def test_cli_p1_sweep_records_a_failed_member(tmp_path, capsys):
    # one Newton step cannot solve p = 1.5 at eps = 1; p = 2 needs none
    path = write_config(tmp_path, **{"p1.list": "2, 1.5",
                                     "newton.max_iter": "1",
                                     "eps.start": "1", "eps.stop": "1e-2"})
    assert cli_main(["sweep-p1", str(path)]) == 1
    assert "failure:" in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    [failure] = side["failures"]
    assert failure["p1"] == 1.5
    assert failure["reason"].startswith("no convergence at eps=1.000e+00: ")
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2.0"]
    for key in ("scaling_dq", "scaling_recovery"):
        assert side[key] == {"error": "fewer than 2 successful sweep members"}


def test_cli_mesh_out(tmp_path, capsys):
    path = write_config(tmp_path)
    mesh_path = tmp_path / "grid.mesh"
    # the identity check uses no mesh, so it offers none to write
    with pytest.raises(SystemExit) as exc:
        cli_main(["check-identity", str(path), "--mesh-out", str(mesh_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mesh-out" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt"]
    assert cli_main(["solve", str(path), "--mesh-out", str(mesh_path)]) == 0
    saved = load_mesh(mesh_path)
    want = ExperimentConfig.load(path).working_mesh()
    np.testing.assert_array_equal(saved.points, want.points)
    np.testing.assert_array_equal(saved.triangles, want.triangles)


def test_cli_identity_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli_main(["check-identity", str(path)]) == 0
    assert "(3 rows)" in capsys.readouterr().out


def test_cli_identity_rejects_an_invalid_spec(tmp_path, capsys):
    # check-identity reads no spec value, but the config is still checked
    path = write_config(tmp_path, **{"eps.start": "1e-6", "eps.stop": "0.5"})
    assert cli_main(["check-identity", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need 0 < eps_stop <= eps_start <= 1\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt"]


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0
    assert "plapx" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_console_script_runs(tmp_path):
    import plapx
    path = write_config(tmp_path)
    # the child interpreter imports the same plapx as this test run, also
    # from a checkout that is on sys.path only through pytest's pythonpath
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(plapx.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plapx.cli", "validate", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "ok:" in proc.stdout


# --- failures go to the sidecar, not to a bare error -----------------------------


def test_cli_linear_solve_failure_keeps_csv_and_sidecar(tmp_path, capsys):
    # p close to 1 with a strong source on a fine mesh: the Newton systems
    # are so ill-conditioned that no solve reaches the relative residual
    # 1e-12, though the direct solve's backward error is at roundoff.  The
    # run either converges, or records the failure with a partial CSV, a
    # sidecar entry and exit code 1; a backward-stable solve is accepted, so
    # a failure is Newton's, not the linear solver's.
    path = write_config(tmp_path, **{
        "p.expr": "1.05", "f.expr": "20", "g.expr": "0", "eps.start": "1",
        "eps.stop": "1e-6", "mesh.h": "0.1", "mesh.refinements": "2"})
    code = cli_main(["sweep-eps", str(path)])
    csv_path = tmp_path / "cli_out.csv"
    assert csv_path.exists()
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(EpsRecord.COLUMNS)
    if code == 0:
        assert side["failures"] == [] and len(lines) == 1 + 13
    else:
        assert code == 1
        assert side["failures"] and side["failures"][0]["eps"] is not None
        assert "failure:" in capsys.readouterr().err
        reason = side["failures"][0]["reason"]
        assert "relative residual" not in reason
        assert reason.startswith("no convergence at eps=")


def test_cli_unmeshable_domain_member_is_recorded(tmp_path, capsys,
                                                  monkeypatch):
    import plapx.experiments
    from plapx.experiments import DOMAIN_COLUMNS
    from plapx.geometry import GeometryError
    real = plapx.experiments.triangulate_convex

    def triangulate(dom, h):
        if dom.corner_radius == 0.2:
            raise GeometryError("could not reach min angle 20.0 deg")
        return real(dom, h)

    monkeypatch.setattr(plapx.experiments, "triangulate_convex", triangulate)
    path = write_config(tmp_path, **{"radius.list": "0.3, 0.2, 0.1",
                                     "mesh.h": "0.25"})
    assert cli_main(["sweep-domain", str(path)]) == 1
    err = capsys.readouterr().err
    assert "failure:" in err and "error:" not in err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == [
        {"radius": 0.2, "reason": "could not reach min angle 20.0 deg"}]
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines[0] == ",".join(DOMAIN_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["0.3", "0.1"]
    # the member after the failed one has no predecessor to compare with
    assert lines[2].split(",")[-1] == "nan"


@pytest.mark.parametrize("command,overrides", [
    ("solve", {}),
    ("sweep-eps", {}),
    ("sweep-p1", {"p1.list": "1.8, 1.5"}),
    ("convergence", {"u.exact.expr": "x*y", "mesh.refinements": "2"}),
])
def test_cli_mesh_failure_is_recorded(tmp_path, capsys, monkeypatch,
                                      command, overrides):
    # commands that solve on one mesh (or one refinement ladder) build it
    # before any solve; a failure there is a "failures" entry too
    import plapx.experiments
    from plapx.geometry import GeometryError

    def triangulate(dom, h):
        raise GeometryError("could not reach min angle 20.0 deg")

    monkeypatch.setattr(plapx.experiments, "triangulate_convex", triangulate)
    path = write_config(tmp_path, **overrides)
    mesh_path = tmp_path / "grid.mesh"
    assert cli_main([command, str(path), "--mesh-out", str(mesh_path)]) == 1
    err = capsys.readouterr().err
    assert "failure:" in err and "error:" not in err
    assert not mesh_path.exists()
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == [
        {"mesh": "could not reach min angle 20.0 deg"}]
    assert "mesh" not in side
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines == [",".join(side["columns"])]


@pytest.mark.parametrize("command,overrides", [
    ("solve", {}),
    ("sweep-eps", {}),
    ("sweep-p1", {"p1.list": "1.5, 1.8"}),
    ("convergence", {"u.exact.expr": "x*y", "mesh.refinements": "2"}),
    ("sweep-domain", {"radius.list": "0.2, 0.1"}),
])
def test_cli_too_small_mesh_h_is_recorded(tmp_path, capsys, command,
                                          overrides):
    # a mesh.h below the triangle cap raises before meshing; it used to end
    # every command with a bare error and no output
    path = write_config(tmp_path, **{"mesh.h": "0.001"}, **overrides)
    mesh_path = tmp_path / "grid.mesh"
    assert cli_main([command, str(path), "--mesh-out", str(mesh_path)]) == 1
    err = capsys.readouterr().err
    assert "failure:" in err and "error:" not in err
    assert not mesh_path.exists()
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines == [",".join(side["columns"])]
    if command == "sweep-domain":
        assert [item["radius"] for item in side["failures"]] == [0.2, 0.1]
        reasons = [item["reason"] for item in side["failures"]]
    else:
        [item] = side["failures"]
        reasons = [item["mesh"]]
    assert all(r.startswith("h_target 0.001 absurdly small: about ")
               for r in reasons)


STRIP = {"domain.vertices": "0,0; 1,0; 1,0.03; 0,0.03", "mesh.h": "0.05",
         "p.expr": "2 - 0.5*x", "g.expr": "x", "eps.start": "1",
         "eps.stop": "1e-2"}


# convergence builds no h2_dq, so it needs no window; sweep-domain's
# members mesh finer near their rounded corners, so their own h2_dq windows
# fit, but the shared window of h1_window_dist (twice mesh.h) does not
@pytest.mark.parametrize("command,overrides,nan_columns", [
    ("solve", {}, ["h2_dq"]),
    ("sweep-eps", {}, ["h2_dq"]),
    ("sweep-p1", {"p1.list": "1.5, 1.8"}, ["h2_dq"]),
    ("convergence", {"u.exact.expr": "x*y", "mesh.refinements": "2"}, []),
    ("sweep-domain", {"radius.list": "0.01, 0.005"}, ["h1_window_dist"]),
])
def test_cli_thin_strip_without_window_still_solves(tmp_path, capsys,
                                                    command, overrides,
                                                    nan_columns):
    # a 1 x 0.03 strip fits no lattice window with margin at this mesh
    # size: every solve still runs and writes its row, with the window's
    # column nan and one diagnostic warning naming the requested spacing
    path = write_config(tmp_path, **STRIP, **overrides)
    assert cli_main([command, str(path)]) == 0
    err = capsys.readouterr().err
    assert "failure:" not in err and "error:" not in err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == []
    with open(tmp_path / "cli_out.csv", encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    assert header == side["columns"] and rows
    for k, column in enumerate(header):
        if column in nan_columns:
            assert all(row[k] == "nan" for row in rows)
        elif column in ("h2_dq", "h2_recovery", "energy", "h1_error"):
            assert all(row[k] != "nan" for row in rows)
    # h2_dq asks for a spacing of twice its mesh's size, the shared window
    # for twice mesh.h; the other warnings are under-resolved windows
    nan_warnings = [w for w in side["diagnostic_warnings"] if " is nan: " in w]
    assert [w.split(" ")[0] for w in nan_warnings] == nan_columns
    for warning in nan_warnings:
        assert re.search(r": no lattice window with margin fits inside the "
                         r"domain \(requested spacing 0\.\d+\)$", warning)
    if command == "sweep-domain":
        assert nan_warnings[0].endswith("(requested spacing 0.1)")
    if command == "sweep-p1":
        # no h2_dq was measured, so there is no fit to judge by the bound
        assert side["scaling_dq"] == {
            "error": "fewer than 2 sweep members with a positive finite h2_dq"}
        assert "within_bound" in side["scaling_recovery"]
    assert "NaN" not in (tmp_path / "cli_out.csv.json").read_text()
    assert all(f"diagnostic: {w}" in err for w in side["diagnostic_warnings"])


def test_cli_field_evaluation_failure_is_recorded(tmp_path, capsys):
    path = write_config(tmp_path, **{"f.expr": "sqrt(x - 0.5)"})
    assert cli_main(["sweep-eps", str(path)]) == 1
    assert "sqrt of a negative argument" in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert "sqrt of a negative argument" in side["failures"][0]["reason"]
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines == [",".join(EpsRecord.COLUMNS)]


def test_cli_exponent_reaching_1_is_recorded(tmp_path, capsys):
    # p = 1 + x loads (its sampled p1 is 1) and breaks p > 1: the check at
    # the quadrature nodes fails the solve like any other recorded failure
    path = write_config(tmp_path, **{"p.expr": "1 + x"})
    assert cli_main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "failure:" in err and "error:" not in err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    [failure] = side["failures"]
    assert failure["reason"].startswith("exponent reaches 1 <= 1 (least at")
    assert failure["eps"] is None  # no eps solve started
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines == [",".join(EpsRecord.COLUMNS)]


def test_cli_convergence_records_a_failed_validation_per_level(
        tmp_path, capsys, monkeypatch):
    import plapx.solver
    from plapx.experiments import CONVERGENCE_COLUMNS
    calls = []
    real = plapx.solver.validate_spec

    def counted(spec, *args, **kwargs):
        calls.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(plapx.solver, "validate_spec", counted)
    path = write_config(tmp_path, **{"f.expr": "sqrt(x - 0.5)",
                                     "u.exact.expr": "x*y",
                                     "mesh.refinements": "3"})
    assert cli_main(["convergence", str(path)]) == 1
    assert "sqrt of a negative argument" in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert [item["level"] for item in side["failures"]] == [0, 1, 2]
    assert all("sqrt of a negative argument" in item["reason"]
               for item in side["failures"])
    assert side["validation_warnings"] == []
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert lines == [",".join(CONVERGENCE_COLUMNS)]
    # the source fails at the quadrature nodes, where the problem is built
    # before validate_spec runs on it
    assert len(calls) == 0


def test_failed_run_keeps_validation_warnings(tmp_path):
    cfg = make_config(tmp_path, **{"p.expr": "1.8", "q.expr": "2",
                                   "newton.tol": "1e-30"})
    result = run_eps_sweep(cfg)
    assert result.failed
    warnings = result.payload["validation_warnings"]
    assert any("q <= 2" in w for w in warnings)


def test_convergence_rejects_an_exact_solution_without_derivative(
        tmp_path, monkeypatch):
    import plapx.experiments

    calls = []
    monkeypatch.setattr(plapx.experiments, "continuation_solve",
                        lambda *args, **kwargs: calls.append(args))
    cfg = make_config(tmp_path, **{"u.exact.expr": "abs(x - 0.5)",
                                   "mesh.refinements": "2"})
    with pytest.raises(ConfigError) as err:
        run_convergence(cfg)
    assert "'u.exact.expr'" in str(err.value)
    assert "abs has no closed-form derivative" in str(err.value)
    assert calls == []
    assert not (tmp_path / "out.csv").exists()


def test_run_convergence_survives_a_failed_level(tmp_path, monkeypatch):
    import plapx.experiments
    from plapx.solver import LinearSolveError

    cfg = make_config(tmp_path, **{"u.exact.expr": "x*y", "f.expr": "0",
                                   "g.expr": "x*y", "mesh.refinements": "3",
                                   "mesh.h": "0.4"})
    finest = cfg.meshes(3)[-1].n_points
    real = plapx.experiments.continuation_solve

    def failing_on_finest(spec, mesh=None):
        if mesh.n_points == finest:
            raise LinearSolveError("could not reach relative residual 1e-12")
        return real(spec, mesh=mesh)

    monkeypatch.setattr(plapx.experiments, "continuation_solve",
                        failing_on_finest)
    result = run_convergence(cfg)
    assert result.failed
    assert result.payload["failures"] == [
        {"level": 2, "reason": "could not reach relative residual 1e-12"}]
    assert [row[0] for row in result.rows] == [0, 1]
    assert math.isnan(result.rows[0][4]) and result.rows[1][4] > 1.5
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_audit_samples_only_the_meshed_region(tmp_path, capsys):
    # the mesh's chord polygon leaves slivers of a rounded domain uncovered;
    # an audit point drawn there used to end the run with a bare error and
    # no output once the solve had finished (square benchmark physics)
    path = write_config(tmp_path, **{
        "domain.corner_radius": "0.2", "p.expr": "2 - 0.5*x", "g.expr": "x",
        "eps.start": "1", "eps.stop": "1e-4", "mesh.h": "0.12"})
    assert cli_main(["solve", str(path)]) == 0
    assert "error:" not in capsys.readouterr().err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == []
    assert side["ellipticity_audit"]["n_samples"] == 2000
    assert side["ellipticity_audit"]["satisfied"] is True
    assert len((tmp_path / "cli_out.csv").read_text().splitlines()) == 2


def test_cli_audit_failure_is_recorded(tmp_path, capsys, monkeypatch):
    import plapx.regularity
    from plapx.varexp import EvaluationError

    def failing(*args, **kwargs):
        raise EvaluationError("point outside the mesh", 0.5, 0.5)

    monkeypatch.setattr(plapx.regularity, "coefficients", failing)
    path = write_config(tmp_path, **{"eps.start": "1", "eps.stop": "0.1"})
    assert cli_main(["sweep-eps", str(path)]) == 1
    err = capsys.readouterr().err
    assert "failure:" in err and "error:" not in err
    side = json.loads((tmp_path / "cli_out.csv.json").read_text())
    assert side["failures"] == [
        {"audit": "point outside the mesh at point (0.5, 0.5)"}]
    assert "ellipticity_audit" not in side
    lines = (tmp_path / "cli_out.csv").read_text().splitlines()
    assert len(lines) == 1 + 3


def test_ellipticity_audit_samples_the_mesh(monkeypatch):
    import dataclasses

    import plapx.regularity
    from plapx.assembly import P1Function
    from plapx.experiments import _ellipticity_audit, _sample_mesh_points
    from plapx.geometry import (ConvexDomain, TriMesh, round_corners,
                                triangulate_convex)
    from plapx.solver import ProblemSpec
    from plapx.varexp import ExponentField

    # the coarse chord polygon of a rounded square leaves slivers of the
    # domain uncovered; the audit draws from the mesh, so none is drawn
    dom = round_corners(ConvexDomain.unit_square(), 0.2)
    mesh = triangulate_convex(dom, 0.3)
    u = P1Function.interpolate(mesh, lambda x, y: x * x - 0.5 * y)
    spec = ProblemSpec(domain=dom, p=ExponentField.constant(1.7), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), seed=3)
    calls, samples = [], []
    locate, coefficients = TriMesh.locate, plapx.regularity.coefficients

    def counted_locate(mesh, pts):
        calls.append(len(pts))
        return locate(mesh, pts)

    def recorded(u, p, f, eps, pts, tri):
        samples.append((pts, tri))
        return coefficients(u, p, f, eps, pts, tri)

    monkeypatch.setattr(TriMesh, "locate", counted_locate)
    monkeypatch.setattr(plapx.regularity, "coefficients", recorded)
    reports = [_ellipticity_audit(u, spec, 1e-2) for _ in range(2)]
    assert calls == []
    monkeypatch.undo()
    (pts, tri), again = samples
    assert pts.shape == (2000, 2) and tri.shape == (2000,)
    # each point's barycentric coordinates in its own triangle
    v = mesh.points[mesh.triangles[tri]]
    ab = np.linalg.solve(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]],
                                  axis=2), (pts - v[:, 0])[:, :, None])[..., 0]
    assert np.min(ab) >= -1e-12 and np.min(1.0 - ab.sum(axis=1)) >= -1e-12
    # the same seed draws the same points
    np.testing.assert_array_equal(pts, again[0])
    np.testing.assert_array_equal(tri, again[1])
    assert reports[0] == reports[1]
    # the points come from the first stream spawned from the seed, and the
    # report is the check of the coefficients there
    points_seed = np.random.SeedSequence(spec.seed).spawn(1)[0]
    rng = np.random.Generator(np.random.Philox(points_seed))
    np.testing.assert_array_equal(pts, _sample_mesh_points(mesh, 2000, rng)[0])
    assert reports[0] == dataclasses.asdict(plapx.regularity.ellipticity_check(
        coefficients(u, spec.p, spec.f, 1e-2, pts, tri), spec.p.p1,
        spec.p.p2))
