"""The failure contract, searched by property: every run of a config that
loads exits 0, 1 or 2, and an exit 1 leaves a CSV and a sidecar whose
``"failures"`` entry says why, never a bare ``error:`` line.

Configs derive from ``demos/square.cfg``; the domain, the corner radius,
mesh.h, eps.stop, newton.tol and the radius list vary, and the lists carry
NaN, zero, negative and too-large members.  Meshes stay coarse, so the
search runs in a few seconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from plapx.cli import main as cli_main
from plapx.experiments import ExperimentConfig

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos", "square.cfg")

# keys each command needs beyond the demo's
COMMAND_KEYS = {
    "solve": {},
    "sweep-eps": {},
    "sweep-p1": {"p1.list": "1.5, 2.5"},
    "sweep-domain": {},
    "convergence": {"u.exact.expr": "x*y", "mesh.refinements": "2"},
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


# each domain's vertices with the mesh sizes drawn for it: the unit square,
# and a 1 x 0.03 strip that fits no lattice window with margin
DOMAINS = {
    "0,0; 1,0; 1,1; 0,1": [0.2, 0.3, 0.45],
    "0,0; 1,0; 1,0.03; 0,0.03": [0.05],
}

# mostly valid radii, so most lists load; each bad kind still comes up
radii = st.sampled_from([0.4, 0.3, 0.2, 0.15, 0.1, 0.05, 0.025, 0.0, -0.1,
                         math.nan, 0.6])


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    vertices = draw(st.sampled_from(sorted(DOMAINS)))
    overrides = {
        "domain.vertices": vertices,
        "domain.corner_radius": repr(draw(st.sampled_from(
            [0.0, 0.0, 0.05, 0.2, 0.45, 0.45, -0.1, math.nan]))),
        "mesh.h": repr(draw(st.sampled_from(DOMAINS[vertices]))),
        "eps.stop": repr(draw(st.sampled_from([1.0, 1e-2, 1e-4, 1e-6,
                                               2.0]))),
        "newton.tol": repr(draw(st.sampled_from([1e-10, 1e-6, 1e-14,
                                                 1e-30, 1e-30]))),
    }
    if command == "sweep-domain" or draw(st.booleans()):
        overrides["radius.list"] = ", ".join(repr(r) for r in sorted(
            draw(st.lists(radii, min_size=1, max_size=3)), reverse=True))
    overrides.update(COMMAND_KEYS[command])
    return command, overrides, draw(st.booleans())


@pytest.mark.filterwarnings("ignore:mesh size .* exceeds lattice spacing")
@seed(20240617)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
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
        except ValueError:
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
