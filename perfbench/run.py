"""plapx benchmark: one command, three workloads, end-to-end metrics or a
layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: square_h0.01, mollified_h0.1,
rounding_sweep (see workloads.py and README.md).

``--trace 0`` measures the end-to-end metrics.  Until ``--seconds`` have
passed it repeats a cycle: one set-up alone, then one repetition of the
workload (which sets up as well), each in a fresh interpreter.  Every metric
is a median: ``setup_s`` over all set-ups, the others over the repetitions.
``--trace 1`` runs a traced, an untraced and a traced repetition and
reports the per-layer metrics of the first traced one; the counts of the two
traced repetitions must agree exactly.

Every repetition's output is checked (workloads.check).  Workload processes
run with OMP/OPENBLAS/MKL_NUM_THREADS=1.  Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of every
sample and of the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Every run ends well inside the three minutes a run may take.
DEADLINE_S = 165.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def worker_env(threads):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PLAPX_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC
    return env


def call_worker(args, env, timeout):
    """Run one worker and return its result, the last line of its output.

    ``setup_s`` is added to the result: the time from starting the
    interpreter to the worker's inputs being ready.
    """
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerFailed(f"worker {args} printed no result: {lines[-1]}")
    result["setup_s"] = result.pop("ready") - spawned
    return result


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "plapx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_environment(threads):
    env = {var: "1" for var in BLAS_THREAD_VARS}
    env.update(PLAPX_THREADS=str(threads), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), git_sha=git_sha(),
               src_sha256=source_digest())
    return env


def measure(wl, seed, seconds, deadline, env):
    """End-to-end run: set-up and repetition cycles for ``seconds``.

    Each cycle is a set-up alone, then a repetition (which sets up as well),
    so the set-up samples spread over the whole run like the repetitions.
    """
    args = ["--workload", wl.name, "--seed", str(seed)]
    setups, reps = [], []
    start = time.perf_counter()
    longest = 0.0
    while time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if reps and now + 1.5 * longest > deadline:
            break
        setups.append(call_worker(args + ["--mode", "setup"], env,
                                  deadline - now)["setup_s"])
        rep = call_worker(args + ["--mode", "run"], env,
                          deadline - time.perf_counter())
        reps.append(rep)
        setups.append(rep["setup_s"])
        longest = max(longest, time.perf_counter() - now)
    samples = {"setup_s": setups}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in reps]
    metrics = {name: statistics.median(samples[name])
               for name, _ in END_TO_END}
    return metrics, samples, reps


def traced(wl, seed, deadline, env):
    """Traced run: traced, untraced and traced repetitions, in that order,
    so that a drift of machine speed does not bias the overhead."""
    import layertrace

    args = ["--workload", wl.name, "--seed", str(seed)]
    reps = [call_worker(args + mode, env, deadline - time.perf_counter())
            for mode in (["--mode", "trace", "--tag", "1"], ["--mode", "run"],
                         ["--mode", "trace", "--tag", "2"])]
    first, plain, second = reps[0]["trace"], reps[1], reps[2]["trace"]
    problems = []
    differ = [k for k in layertrace.COUNT_METRICS if first[k] != second[k]]
    if differ:
        problems.append("counts differ between two traced runs: " + ", ".join(
            f"{k} {first[k]} != {second[k]}" for k in differ))
    m = dict(first)
    m["trace.untraced_wall_s"] = plain["wall_s"]
    m["trace.overhead_s"] = (0.5 * (first["trace.wall_s"]
                                    + second["trace.wall_s"])
                             - plain["wall_s"])
    m["experiments.parallel_eff"] = plain["cpu_s"] / (wl.threads
                                                      * plain["wall_s"])
    m["trace.unreached_sites"] = len(reps[0]["unreached"])
    metrics = {name: m[name] for name, _ in layertrace.PER_LAYER}
    return metrics, reps, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plapx", "__init__.py")):
        print(f"error: no plapx sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import layertrace
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env(wl.threads)
    os.makedirs(OUT, exist_ok=True)
    problems = []
    try:
        if args.trace:
            metrics, reps, problems = traced(wl, args.seed, deadline, env)
            units = dict(layertrace.PER_LAYER)
            samples = {}
        else:
            metrics, samples, reps = measure(wl, args.seed, args.seconds,
                                             deadline, env)
            units = dict(END_TO_END)
    except WorkerFailed as err:
        # a worker crashed or timed out: no measurement exists
        print(f"error: {err}", file=sys.stderr)
        return 1

    failed_reps = [r for r in reps if r.get("problems")]
    attempted = len(reps) * wl.operations
    failed = len(failed_reps) * wl.operations
    for rep in failed_reps:
        for problem in rep["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    correct = not failed and not problems

    env_record = host_environment(wl.threads)
    env_record.update(next((r["env"] for r in reps if "env" in r), {}))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, {attempted} operations")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, value in metrics.items():
        spread = ""
        if samples.get(name):
            spread = (f"  (median of {len(samples[name])}, min "
                      f"{min(samples[name]):.4g}, max "
                      f"{max(samples[name]):.4g})")
        print(f"{name:36s} {value:14.6g} {units[name]}{spread}")
    print(f"{'fail_frac':36s} {failed / attempted:14.6g} ratio")
    if args.trace:
        unreached = reps[0].get("unreached", [])
        print("trace overhead: traced minus untraced wall_s = "
              f"{metrics.get('trace.overhead_s', float('nan')):.3f} s")
        print("unreached expected sites: " + (", ".join(unreached)
                                               or "none"))
        print("reached unexpected sites: "
              + (", ".join(reps[0].get("unexpected", [])) or "none"))
        if (metrics["solver.linear_solve_calls"]
                < metrics["solver.eps_steps"]):
            print("self-check: solver.linear_solve_calls < solver.eps_steps")

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env_record, "metrics": metrics,
              "samples": samples, "repetitions": reps}
    with open(os.path.join(OUT, f"result-{wl.name}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
