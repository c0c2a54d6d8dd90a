"""Every file under ``demos/`` runs and shows what it is there to show.

Each config runs through the command it is written for, with its
``output.path`` moved into a temporary directory; each script runs in
this process with its standard output captured.
"""

import contextlib
import csv
import io
import json
import math
import os
import runpy

import pytest

from plapx.cli import main as cli_main

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")

COMMANDS = [
    ("validate", "square.cfg"),
    ("sweep-eps", "square.cfg"),
    ("check-identity", "square.cfg"),
    ("sweep-domain", "rounding.cfg"),
    ("convergence", "convergence.cfg"),
]
SCRIPTS = ["convergence_study.py", "ellipticity_audit.py"]


def test_every_demo_file_runs_here():
    demos = [n for n in os.listdir(DEMOS) if n.endswith((".cfg", ".py"))]
    assert sorted(demos) == sorted(
        {name for _, name in COMMANDS} | set(SCRIPTS))


def run_demo_config(tmp_path, command, name):
    """Exit code, stdout and rows (None for ``validate``) of ``plapx
    command demos/name`` writing into ``tmp_path``; a run that writes files
    must record no failure."""
    out = tmp_path / "out.csv"
    with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
        lines = [f"output.path = {out}"
                 if line.split("=", 1)[0].strip() == "output.path" else line
                 for line in fh.read().splitlines()]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main([command, str(cfg)])
    if command == "validate":
        return code, stdout.getvalue(), None
    with open(f"{out}.json", encoding="utf-8") as fh:
        assert json.load(fh)["failures"] == []
    with open(out, encoding="utf-8", newline="") as fh:
        rows = [{k: v if k == "expr" else float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    return code, stdout.getvalue(), rows


def check_validate(stdout, rows):
    assert "ok: hypotheses hold" in stdout


def check_sweep_eps(stdout, rows):
    # the uniform-in-eps bound of criterion 5
    norms = [row["grad_lp_norm"] for row in rows]
    assert len(rows) == 13 and max(norms) / min(norms) <= 1.5


def check_identity(stdout, rows):
    assert len(rows) == 5
    assert all(row["abs_err"] <= 1e-12 for row in rows)
    # for the paraboloid both sides are -4 pi
    assert rows[0]["expr"] == "1 - x^2 - y^2"
    assert rows[0]["lhs"] == pytest.approx(-4.0 * math.pi, abs=1e-12)


def check_sweep_domain(stdout, rows):
    # rounding each corner at r removes (4 - pi) r^2 of area, and
    # successive solutions draw together as the domains fill the square
    assert [row["radius"] for row in rows] == [0.4, 0.2, 0.1, 0.05, 0.025]
    for row in rows:
        assert row["area_deficit"] == pytest.approx(
            (4.0 - math.pi) * row["radius"] ** 2, rel=0.02)
    dists = [row["h1_window_dist"] for row in rows[1:]]
    assert math.isnan(rows[0]["h1_window_dist"])
    assert all(b < a for a, b in zip(dists, dists[1:]))


def check_convergence(stdout, rows):
    assert len(rows) == 4 and rows[-1]["l2_order"] > 1.9


CHECKS = {"validate": check_validate, "sweep-eps": check_sweep_eps,
          "check-identity": check_identity,
          "sweep-domain": check_sweep_domain,
          "convergence": check_convergence}


@pytest.mark.parametrize("command,name", COMMANDS,
                         ids=[f"{c}-{n}" for c, n in COMMANDS])
def test_demo_config(tmp_path, command, name):
    code, stdout, rows = run_demo_config(tmp_path, command, name)
    assert code == 0
    CHECKS[command](stdout, rows)


def run_script(name):
    """The globals of demos/name after running it, its output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return runpy.run_path(os.path.join(DEMOS, name),
                              run_name="__main__")


def test_disk_convergence_script():
    orders = run_script("convergence_study.py")["orders"]
    assert len(orders) == 2 and orders[-1] > 1.9


def test_ellipticity_audit_script():
    script = run_script("ellipticity_audit.py")
    rep = script["rep"]
    assert rep.satisfied
    assert rep.low_margin == pytest.approx(1.6107024397293834e-04, rel=1e-9)
    assert rep.high_margin == pytest.approx(5.2529930845146566e-05, rel=1e-9)
    assert not script["bad"].satisfied
