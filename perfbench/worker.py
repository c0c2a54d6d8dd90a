"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (import plapx and load the workload's config or spec,
nothing else, and report when that was done), ``run`` (also run the
workload once, untraced) or ``trace`` (run it once under the layer tracer).
The last line of standard output is one JSON object.  ``run.py`` starts
this script; it imports plapx from the ``src`` directory next to the
benchmark's directory and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_plapx():
    sys.path.insert(0, SRC)
    import plapx
    if not os.path.abspath(plapx.__file__).startswith(SRC + os.sep):
        raise ImportError(f"plapx imported from {plapx.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--tag", default="0",
                    help="names the span file of a traced repetition")
    args = ap.parse_args(argv)

    _import_plapx()
    import layertrace
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    # fixed-length directory names keep the sidecar size, and so
    # experiments.bytes_written, the same from run to run
    workdir = tempfile.mkdtemp(prefix=wl.name + "-", dir=OUT)
    try:
        inputs = workloads.Inputs(wl, args.seed, workdir)
        # CLOCK_MONOTONIC is system-wide, so run.py can subtract the time
        # it started this process
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        reference = workloads.load_reference()
        tracer = None
        if args.mode == "trace":
            tracer = layertrace.Tracer(
                f"{wl.name}-seed{args.seed}-{args.tag}")
            tracer.install()
        problems = []
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workloads.run(inputs)
            else:
                outcome = tracer.call(layertrace.ROOT_SPAN, workloads.run,
                                      (inputs,), {})
        except Exception:  # noqa: BLE001 - a failed operation, reported
            outcome = None
            problems.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
        if outcome is not None:
            problems += workloads.check(outcome, wl, reference)
        result = {
            "wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime)
                     + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "ready": ready,
            "problems": problems,
            "env": environment(),
        }
        if tracer is not None:
            metrics, unreached, unexpected = layertrace.summarize(
                tracer.spans, wl.expected_sites)
            metrics["trace.wall_s"] = wall
            result.update(trace=metrics, unreached=unreached,
                          unexpected=unexpected)
            tracer.write(os.path.join(
                OUT, f"spans-{wl.name}-{args.tag}.json"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
