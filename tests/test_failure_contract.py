"""The failure contract, searched by property: every run of a config that
loads exits 0, 1 or 2, and an exit 1 leaves a CSV and a sidecar whose
``"failures"`` entry says why, never a bare ``error:`` line.  A config
that does not load raises ConfigError, and its command prints an
``error:`` line and exits 1.

Configs derive from ``demos/square.cfg``.  Each draw sets the domain, the
corner radius, mesh.h, mesh.refinements, eps.stop, eps.factor,
newton.tol, newton.max_iter, p, q, g, the seed and (for sweep-domain, and
at random otherwise) the radius list, all to good values but at most one,
which takes a bad value: one that does not load (a non-convex polygon, a
negative, NaN or too-large radius, p undefined on part of the domain, q
below 1, a negative seed, 0 Newton steps, an eps schedule past its cap,
a NaN, zero or negative radius in the list) or one that fails at run time
(mesh.h below the triangle cap, refinements past it, a Newton tolerance
out of reach, p reaching 1, g undefined on part of the boundary).  Each
oversized member must fail before its mesh or schedule is built, and the
meshes that are built stay coarse, so the search runs in a few seconds.
The bad members that the seeded search never draws run first, as
explicit examples on the demo config.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from plapx.cli import main as cli_main
from plapx.experiments import ConfigError, ExperimentConfig

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos", "square.cfg")

# keys each command needs beyond the demo's
COMMAND_KEYS = {
    "solve": {},
    "sweep-eps": {},
    "sweep-p1": {"p1.list": "1.5, 2.5"},
    "sweep-domain": {},
    "convergence": {"u.exact.expr": "x*y"},
}


def demo_text(overrides):
    """demos/square.cfg with each overridden key's line replaced (or
    appended)."""
    lines = []
    with open(DEMO, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key = line.split("=", 1)[0].strip()
            if key not in overrides:
                lines.append(line)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    return "\n".join(lines) + "\n"


# each domain's good mesh sizes, corner radii and sweep radii: the unit
# square, and a 1 x 0.03 strip that fits no lattice window with margin
# (h2_dq is nan)
DOMAINS = {
    "0,0; 1,0; 1,1; 0,1": {
        "mesh.h": [0.2, 0.3, 0.45], "domain.corner_radius": [0.0, 0.05, 0.2],
        "radii": [0.4, 0.3, 0.2, 0.15, 0.1, 0.05, 0.025]},
    "0,0; 1,0; 1,0.03; 0,0.03": {
        "mesh.h": [0.05], "domain.corner_radius": [0.0],
        "radii": [0.01, 0.005]},
}

# the good values of the other keys, and the bad values of every key
GOOD = {
    "eps.stop": [1.0, 1e-2, 1e-4, 1e-6],
    "eps.factor": [10 ** -0.5, 0.1],
    "mesh.refinements": [0, 0, 1],
    "newton.tol": [1e-10, 1e-6],
    "newton.max_iter": [30],
    "p.expr": ["2 - 0.5*x", "1.6 + 0.3*y"],
    "q.expr": ["4", "2.5"],
    "g.expr": ["x", "0"],
    "seed": [0, 7],
}
BAD = {
    "domain.vertices": ["0,0; 1,0; 0,1; 1,1"],
    "domain.corner_radius": [-0.1, math.nan, 0.6],
    "mesh.h": [1e-4],
    "eps.stop": [2.0],
    "eps.factor": [0.999999],
    "mesh.refinements": [12],
    "newton.tol": [1e-14, 1e-30],
    "newton.max_iter": [0],
    # p = 1 + x reaches 1 on the left edge; sqrt(x - 0.5) is undefined
    # where x < 0.5
    "p.expr": ["1 + x", "sqrt(x - 0.5)"],
    "q.expr": ["0.5"],
    "g.expr": ["sqrt(x - 0.5)"],
    "seed": [-1],
    "radius.list": [0.0, -0.1, math.nan, 0.6],
}


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    vertices = draw(st.sampled_from(sorted(DOMAINS)))
    domain = DOMAINS[vertices]
    # a third of the draws carry no bad member
    bad = draw(st.sampled_from([None] * (len(BAD) // 2) + sorted(BAD)))
    overrides = {"domain.vertices": vertices}
    for key in sorted(GOOD) + ["mesh.h", "domain.corner_radius"]:
        overrides[key] = draw(st.sampled_from(domain.get(key, GOOD.get(key))))
    if command == "convergence":
        overrides["mesh.refinements"] = 2  # two levels for an order
    if bad is not None and bad != "radius.list":
        overrides[bad] = draw(st.sampled_from(BAD[bad]))
    if command == "sweep-domain" or bad == "radius.list" or draw(
            st.booleans()):
        radii = sorted(draw(st.lists(st.sampled_from(domain["radii"]),
                                     min_size=1, max_size=3, unique=True)),
                       reverse=True)
        if bad == "radius.list":
            # too large goes first, NaN and too small last
            r = draw(st.sampled_from(BAD[bad]))
            radii.insert(0 if r > 0 else len(radii), r)
        overrides["radius.list"] = ", ".join(repr(r) for r in radii)
    overrides = {k: v if isinstance(v, str) else repr(v)
                 for k, v in overrides.items()}
    overrides.update(COMMAND_KEYS[command])
    return command, overrides, draw(st.booleans())


@seed(20240617)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
# the bad members that the seeded search does not draw
@example(("solve", {"domain.vertices": "0,0; 1,0; 0,1; 1,1"}, False))
@example(("sweep-domain", {"radius.list": "0.2, 0.1, nan"}, False))
@example(("solve", {"domain.corner_radius": "0.6"}, False))
@example(("solve", {"domain.corner_radius": "nan"}, False))
@example(("solve", {"newton.max_iter": "0"}, False))
@example(("solve", {"p.expr": "1 + x"}, False))
@example(("solve", {"g.expr": "sqrt(x - 0.5)"}, False))
def test_every_failed_run_leaves_csv_and_failures(run):
    command, overrides, mesh_out = run
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        cfg = os.path.join(tmp, "run.cfg")
        mesh_path = os.path.join(tmp, "run.mesh")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(demo_text(dict(overrides, **{"output.path": out})))
        argv = [command, cfg] + (["--mesh-out", mesh_path] if mesh_out
                                 else [])
        err = io.StringIO()
        try:
            ExperimentConfig.load(cfg)
        except ConfigError:
            # a config that does not load is an error line and exit 1
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(argv) == 1
            assert err.getvalue().startswith("error:")
            return
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code in (0, 1, 2), err.getvalue()
        assert "error:" not in err.getvalue()
        with open(out + ".json", encoding="utf-8") as fh:
            side = json.load(fh)
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        assert header == ",".join(side["columns"])
        assert bool(side["failures"]) == (code == 1)
        if mesh_out and code != 1:
            assert os.path.exists(mesh_path)
