"""Command line front end.

Exit codes: 0 success, 1 failure (bad config, solver breakdown, I/O), 2
when --strict turns validation warnings into errors.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (ExperimentConfig, run_convergence,
                          run_domain_sweep, run_eps_sweep,
                          run_identity_check, run_p1_sweep, run_solve,
                          thread_count)
from .expressions import FieldEvaluationError
from .geometry import GeometryError, save_mesh
from .solver import DiscreteProblem, LinearSolveError, NewtonError
from .varexp import NonconvergenceError

_RUNNERS = {
    "solve": run_solve,
    "sweep-eps": run_eps_sweep,
    "sweep-p1": run_p1_sweep,
    "sweep-domain": run_domain_sweep,
    "convergence": run_convergence,
    "check-identity": run_identity_check,
}

_HELP = {
    "solve": "continuation solve; CSV holds the final record",
    "sweep-eps": "continuation solve; CSV holds one row per eps",
    "sweep-p1": "continuation per constant exponent in p1.list",
    "sweep-domain": "corner-rounding sweep over radius.list",
    "convergence": "refinement study against u.exact.expr",
    "check-identity": "curvature identity on the unit disk",
    "validate": "check the standing hypotheses, print warnings",
}

_KNOWN_ERRORS = (GeometryError, LinearSolveError, NewtonError,
                 FieldEvaluationError, NonconvergenceError, OSError,
                 ValueError)


def build_parser():
    from . import __version__
    ap = argparse.ArgumentParser(
        prog="plapx",
        description="P1 finite element solver and diagnostics for the "
                    "regularized Dirichlet p(x)-Laplacian on convex domains")
    ap.add_argument("--version", action="version",
                    version="plapx " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in list(_RUNNERS) + ["validate"]:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("config", help="experiment config file")
        sp.add_argument("--mesh-out", metavar="PATH", default=None,
                        help="also write the working mesh in the plain-text "
                             "mesh format")
        sp.add_argument("--strict", action="store_true",
                        help="treat validation warnings as errors (exit 2)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # surface a malformed PLAPX_THREADS on every command, not only the
        # ones that reach the thread pool
        thread_count()
        config = ExperimentConfig.load(args.config)
        if args.command == "validate":
            spec, p = config.spec, config.spec.p
            print(f"exponent: p1 {p.p1!r}, p2 {p.p2!r}, lip {p.lip!r}")
            problem = DiscreteProblem.build(spec, config.working_mesh())
            for w in problem.warnings:
                print(f"warning: {w}")
            if args.mesh_out:
                save_mesh(problem.mesh, args.mesh_out)
                print(f"wrote mesh to {args.mesh_out}")
            if problem.warnings:
                return 2 if args.strict else 0
            print("ok: hypotheses hold at the mesh's quadrature nodes")
            return 0

        result = _RUNNERS[args.command](config)
        if args.mesh_out:
            mesh = result.mesh
            # a failed run without a mesh may have failed to build it: do
            # not try again outside the recorded call
            if mesh is None and not result.failed:
                mesh = config.working_mesh()
            if mesh is not None:
                save_mesh(mesh, args.mesh_out)
                print(f"wrote mesh to {args.mesh_out}")
        for w in result.payload.get("validation_warnings", []):
            print(f"warning: {w}", file=sys.stderr)
        print(f"wrote {result.csv_path} ({len(result.rows)} rows) "
              f"and {result.sidecar_path}")
        if result.failed:
            for item in result.payload["failures"]:
                print(f"failure: {item}", file=sys.stderr)
            return 1
        if args.strict and result.payload.get("validation_warnings"):
            return 2
        return 0
    except _KNOWN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
