"""The three benchmark workloads: their inputs, how to run them and how to
check what they produce.

Every workload uses the physics of the square benchmark (p = 2 - x/2,
f = 1, g = x, q = 4, Newton tolerance 1e-10).  The benchmark seed becomes
the config ``seed``, which drives the ellipticity-audit RNG; the physics and
the meshes do not depend on it, so every CSV value is compared against one
reference per workload (``reference.json``).

Each workload loads a different layer:

* ``square_h0.01``: the top of the problem ladder.  The only workload where
  the linear solve, lattice point location, per-eps diagnostics and meshing
  all carry real weight.
* ``mollified_h0.1``: a mollified exponent, reachable only through the
  library (no CLI path).  Field evaluation is most of its time and the
  linear solve almost none, so caching p and f at the quadrature nodes
  shows here and not on ``square_h0.01``.
* ``rounding_sweep``: the criterion-8 corner-rounding sweep on two pool
  threads.  Five meshes of about 3k vertices and about a hundred small
  factorizations: per-call overhead, repeated meshing and GIL-held Python
  show here.  The only threaded workload.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

SQUARE_PHYSICS = {
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
}

MOLLIFIER_DELTA = 0.05

# Reference comparison.  Not byte equality: a change of summation order, or
# a Newton path that stops at another residual below newton.tol, moves the
# solution functionals in the last digits.  The set measures count whole
# triangles, so they get an absolute tolerance of about one triangle at
# h = 0.1.  Newton iteration counts and final residuals are not compared:
# they describe the path, not the solution (final residuals are checked
# against newton.tol instead).
REL_TOL = 1e-5
ABS_TOL = 1e-9
MEASURE_ABS_TOL = 5e-3
PATH_COLUMNS = ("newton_iterations", "final_residual")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Span names every workload reaches (see layertrace.SITES).
_COMMON_SITES = (
    "geometry.mesh", "geometry.locate", "geometry.basis_gradients",
    "varexp.field_values", "varexp.quadrature", "varexp.luxemburg",
    "assembly.residual", "assembly.jacobian", "assembly.energy",
    "assembly.load", "assembly.stiffness", "assembly.dirichlet",
    "solver.linear_solve", "solver.eps_step", "solver.validate",
    "solver.continuation",
    "regularity.h2_dq", "regularity.h2_recovery", "regularity.lp_norm",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str | None          # CLI subcommand; None for a library call
    overrides: dict
    threads: int                 # PLAPX_THREADS of the workload process
    operations: int              # continuation solves per repetition
    expected_sites: tuple = field(default=())

    def config_text(self, seed: int, output_path: str) -> str:
        entries = dict(SQUARE_PHYSICS)
        entries.update(self.overrides)
        entries["seed"] = str(seed)
        entries["output.path"] = output_path
        return "".join(f"{k} = {v}\n" for k, v in entries.items())


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="square_h0.01", command="sweep-eps",
            overrides={"mesh.h": "0.01"}, threads=1, operations=1,
            expected_sites=_COMMON_SITES + (
                "regularity.audit", "experiments.run", "experiments.member",
                "experiments.emit")),
        Workload(
            name="mollified_h0.1", command=None,
            overrides={"mesh.h": "0.1", "eps.stop": "1e-3"}, threads=1,
            operations=1, expected_sites=_COMMON_SITES),
        Workload(
            name="rounding_sweep", command="sweep-domain",
            overrides={"radius.list": "0.4, 0.2, 0.1, 0.05, 0.025",
                       "mesh.h": "0.12", "mesh.refinements": "2",
                       "eps.stop": "1e-4"},
            threads=2, operations=5,
            expected_sites=_COMMON_SITES + (
                "regularity.h1_window", "experiments.run",
                "experiments.member", "experiments.map",
                "experiments.emit")),
    )
}


class Inputs:
    """What a repetition needs after set-up: a loaded config or spec."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        from plapx.experiments import ExperimentConfig
        from plapx.solver import with_mollified_exponent

        self.workload = workload
        self.csv_path = os.path.join(workdir, "out.csv")
        self.config_path = os.path.join(workdir, "bench.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed, self.csv_path))
        self.config = ExperimentConfig.load(self.config_path)
        self.spec = None
        if workload.command is None:
            self.spec = with_mollified_exponent(self.config.problem_spec(),
                                                MOLLIFIER_DELTA)


@dataclass
class Outcome:
    exit_code: int
    columns: list
    rows: list
    payload: dict


def run(inputs: Inputs) -> Outcome:
    """The measured call: one CLI command in-process, or one library solve.

    Module attributes are looked up at call time so that the tracer's
    wrappers, when installed, see the call.
    """
    import plapx.cli
    import plapx.solver

    wl = inputs.workload
    if wl.command is None:
        report = plapx.solver.continuation_solve(inputs.spec)
        columns = list(report.records[0].COLUMNS) if report.records else []
        rows = [r.row() for r in report.records]
        return Outcome(0, columns, rows, {"failures": []})
    code = plapx.cli.main([wl.command, inputs.config_path])
    with open(inputs.csv_path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    with open(inputs.csv_path + ".json", encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = [[float(v) for v in row] for row in table[1:]]
    return Outcome(code, table[0], rows, payload)


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want, column):
    if math.isnan(want):
        return math.isnan(got)
    if column.startswith("meas_"):
        return abs(got - want) <= MEASURE_ABS_TOL
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def compare_reference(outcome: Outcome, ref: dict):
    """Problems found comparing an outcome with its reference table."""
    if outcome.columns != ref["columns"]:
        return [f"columns {outcome.columns} differ from reference "
                f"{ref['columns']}"]
    if len(outcome.rows) != len(ref["rows"]):
        return [f"{len(outcome.rows)} rows, reference has "
                f"{len(ref['rows'])}"]
    problems = []
    for i, (row, want_row) in enumerate(zip(outcome.rows, ref["rows"])):
        for column, got, want in zip(outcome.columns, row, want_row):
            if column in PATH_COLUMNS:
                continue
            if not _close(got, want, column):
                problems.append(f"row {i} {column} = {got!r}, reference "
                                f"{want!r}")
    return problems


def _column(outcome, name):
    return [row[outcome.columns.index(name)] for row in outcome.rows]


def _check_square(outcome, wl):
    problems = []
    if len(outcome.rows) != 13:
        return [f"{len(outcome.rows)} rows, expected 13"]
    tol = float(SQUARE_PHYSICS["newton.tol"])
    if max(_column(outcome, "final_residual")) > tol:
        problems.append("a final residual exceeds newton.tol")
    norms = _column(outcome, "grad_lp_norm")
    ratio = max(norms) / min(norms)
    if not ratio <= 1.5:
        problems.append(f"criterion 5: gradient norm ratio {ratio:.4f} > 1.5")
    eps = _column(outcome, "eps")
    tail = [i for i, e in enumerate(eps) if e <= 1e-4 * (1 + 1e-9)]
    if len(tail) != 5:
        problems.append(f"criterion 5: {len(tail)} tail rows, expected 5")
    for key in ("h2_dq", "h2_recovery"):
        vals = [_column(outcome, key)[i] for i in tail]
        swing = max(vals) / min(vals) - 1.0
        if not swing <= 0.10:
            problems.append(f"criterion 5: {key} tail swing "
                            f"{100 * swing:.2f}% > 10%")
    audit = outcome.payload.get("ellipticity_audit", {})
    if audit.get("satisfied") is not True:
        problems.append(f"ellipticity audit not satisfied: {audit}")
    return problems


def _check_mollified(outcome, wl):
    if len(outcome.rows) != 7:
        return [f"{len(outcome.rows)} records, expected 7"]
    tol = float(SQUARE_PHYSICS["newton.tol"])
    bad = [r for r in _column(outcome, "final_residual") if not r <= tol]
    return [f"final residuals above newton.tol: {bad}"] if bad else []


def _check_rounding(outcome, wl):
    if len(outcome.rows) != 5:
        return [f"{len(outcome.rows)} rows, expected 5"]
    problems = []
    for r, deficit in zip(_column(outcome, "radius"),
                          _column(outcome, "area_deficit")):
        want = (4.0 - math.pi) * r * r
        if not abs(deficit - want) <= 2e-2 * want:
            problems.append(f"criterion 8: deficit {deficit!r} at radius "
                            f"{r} not within 2% of (4 - pi) r^2")
    dists = _column(outcome, "h1_window_dist")
    tail = dists[1:]
    if not math.isnan(dists[0]) or not all(d > 0 for d in tail):
        problems.append(f"criterion 8: H1 distances {dists}")
    if not all(a > b for a, b in zip(tail, tail[1:])):
        problems.append(f"criterion 8: H1 distances not decreasing {tail}")
    for key in ("h2_dq", "h2_recovery"):
        vals = _column(outcome, key)
        if not max(vals) / min(vals) <= 2.0:
            problems.append(f"criterion 8: {key} corridor {vals}")
    return problems


_CHECKS = {
    "square_h0.01": _check_square,
    "mollified_h0.1": _check_mollified,
    "rounding_sweep": _check_rounding,
}


def check(outcome: Outcome, wl: Workload, reference: dict):
    """Every problem with a workload's output; empty when it is correct."""
    problems = []
    if outcome.exit_code != 0:
        problems.append(f"exit code {outcome.exit_code}")
    if outcome.payload.get("failures"):
        problems.append(f"failures: {outcome.payload['failures']}")
    problems += _CHECKS[wl.name](outcome, wl)
    problems += compare_reference(outcome, reference[wl.name])
    return problems
