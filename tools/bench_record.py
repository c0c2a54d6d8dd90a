"""Build a BENCH_<n>.json record from perfbench result files.

    python3 tools/bench_record.py count [--root DIR] --out COUNTS.json
    python3 tools/bench_record.py build --out BENCH_<n>.json \\
        --title TEXT --claim WORKLOAD:METRIC \\
        --parent RESULT.json ... --change RESULT.json ... \\
        [--counts-parent COUNTS.json --counts-change COUNTS.json] [--note TEXT]

``perfbench/run.py`` writes ``perfbench/out/result-<workload>-trace<t>.json``
and overwrites it on the next run, so copy each one away before the next
run starts.  ``build`` takes those copies for the parent commit and for the
change, in run order: the k-th ``--trace 0`` file of a workload on one side
pairs with the k-th on the other.  For each workload and end-to-end metric
it records the per-run medians, their median and quartiles, the pooled
samples' median and quartiles, and in how many pairs the change was better.
From ``--trace 1`` files it records every per-layer metric of both sides
and the counts that differ.

perfbench counts neither SuperLU's triangular solves nor Qhull's calls.
``count`` runs each perfbench workload once, in this process, on the plapx
sources under ``DIR/src`` (default: this repository), with
``plapx.solver._factor`` and ``plapx.geometry.Delaunay`` wrapped.  Under
``lu`` it counts the factorizations, the ``solve`` calls on them (one call
is one forward and one backward triangular solve) and the reads of a
factor's ``L`` or ``U`` (on its first such read scipy builds CSC copies of
both and keeps them on the factor); under ``delaunay``, the Qhull calls and
the points they triangulate.  BLAS runs on one thread and
``PLAPX_THREADS`` is set as perfbench sets it.  ``build`` copies one such
file per side into each workload's ``counts``.

Only the standard library is imported here; ``count`` imports plapx and
``perfbench/workloads.py`` from DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
# per-layer metrics that count work rather than time it
COUNT_SUFFIXES = ("_calls", "_points", "eps_steps", "newton_steps",
                  "halvings", "fallback_steps", "line_search_evals",
                  "bytes_written", "trace.spans", "unreached_sites")


def quartiles(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load(paths):
    """Result files grouped by (workload, trace), each group in the order
    the paths were given."""
    groups = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        key = (record["workload"], int(record["trace"]))
        groups.setdefault(key, []).append(record)
    return groups


def end_to_end(records):
    """Per-run medians and pooled samples of each end-to-end metric."""
    out = {}
    for name in END_TO_END:
        per_run = [r["metrics"][name] for r in records]
        pooled = [v for r in records for v in r["samples"][name]]
        out[name] = {"per_run_medians": per_run,
                     "over_runs": quartiles(per_run),
                     "pooled_samples": quartiles(pooled)}
    reps = [rep for r in records for rep in r["repetitions"]]
    out["repetitions"] = len(reps)
    out["repetitions_with_problems"] = sum(1 for rep in reps
                                           if rep.get("problems"))
    return out


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)


def side_info(records):
    env = records[0]["env"]
    return {"git_sha": env.get("git_sha"), "src_sha256": env.get("src_sha256")}


def build(args):
    parent, change = load(args.parent), load(args.change)
    claim_workload, claim_metric = args.claim.split(":")
    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "nproc", "affinity", "numpy", "scipy", "blas", "python")
    first = next(iter(parent.values()))[0]["env"]
    bench = {
        "title": args.title,
        "claim": {"workload": claim_workload, "metric": claim_metric},
        "sides": {"parent": side_info(next(iter(parent.values()))),
                  "change": side_info(next(iter(change.values())))},
        "env": {k: first[k] for k in env_keys if k in first},
        "method": ("per side and workload: the per-run medians of each "
                   "end-to-end metric with their median and quartiles, and "
                   "the pooled samples' median and quartiles; pair k is the "
                   "k-th run of each side; 'change_better' counts pairs whose "
                   "change per-run median is lower"),
        "workloads": {},
    }
    if args.note:
        bench["note"] = args.note
    for (workload, trace), p_records in sorted(parent.items()):
        c_records = change.get((workload, trace))
        if not c_records:
            continue
        entry = bench["workloads"].setdefault(workload, {})
        seeds = sorted({r["seed"] for r in p_records + c_records})
        if trace == 0:
            pairs = min(len(p_records), len(c_records))
            entry["PLAPX_THREADS"] = int(p_records[0]["env"]["PLAPX_THREADS"])
            entry["seconds"] = p_records[0]["seconds"]
            entry["seeds"] = seeds
            entry["pairs"] = pairs
            entry["parent"] = end_to_end(p_records[:pairs])
            entry["change"] = end_to_end(c_records[:pairs])
            entry["change_better"] = {
                name: sum(1 for p, c in zip(p_records, c_records)
                          if c["metrics"][name] < p["metrics"][name])
                for name in END_TO_END}
            entry["median_change"] = {
                name: (entry["change"][name]["over_runs"]["median"]
                       - entry["parent"][name]["over_runs"]["median"])
                for name in END_TO_END}
        else:
            p_m, c_m = p_records[0]["metrics"], c_records[0]["metrics"]
            entry["traced"] = {"seeds": seeds, "parent": p_m, "change": c_m}
            entry["count_changes"] = {
                name: [p_m[name], c_m[name]] for name in p_m
                if is_count(name) and p_m[name] != c_m.get(name)}
            entry["traced_correct"] = {
                "parent": not any(rep.get("problems")
                                  for rep in p_records[0]["repetitions"]),
                "change": not any(rep.get("problems")
                                  for rep in c_records[0]["repetitions"])}
    if args.counts_parent and args.counts_change:
        with open(args.counts_parent, encoding="utf-8") as fh:
            counts_parent = json.load(fh)
        with open(args.counts_change, encoding="utf-8") as fh:
            counts_change = json.load(fh)
        for workload, entry in bench["workloads"].items():
            if workload in counts_parent and workload in counts_change:
                entry["counts"] = {"parent": counts_parent[workload],
                                   "change": counts_change[workload]}
        bench["counts_how"] = counts_parent.get("_how")

    claimed = bench["workloads"].get(claim_workload, {})
    if "parent" in claimed:
        p = claimed["parent"][claim_metric]["over_runs"]
        c = claimed["change"][claim_metric]["over_runs"]
        spread = p["q3"] - p["q1"]
        better = claimed["change_better"][claim_metric]
        bench["claim"]["result"] = {
            "parent_median": p["median"], "change_median": c["median"],
            "relative_change": c["median"] / p["median"] - 1.0,
            "parent_quartile_spread": spread,
            "change_better_pairs": better, "pairs": claimed["pairs"],
            "gain_exceeds_parent_spread": p["median"] - c["median"] > spread}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


class _CountedFactor:
    """A SuperLU factor whose ``solve`` calls and ``L``/``U`` reads are
    counted."""

    def __init__(self, lu, counts, lock):
        self._lu, self._counts, self._lock = lu, counts, lock

    def solve(self, *args, **kwargs):
        with self._lock:
            self._counts["solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        if name in ("L", "U"):
            with self._lock:
                self._counts["lu_reads"] += 1
        return getattr(self._lu, name)


def count_record(root, names=None):
    """Per workload in ``names`` (default: all), one run at seed 1 with
    ``plapx.solver._factor`` and ``plapx.geometry.Delaunay`` wrapped: the
    SuperLU factorizations, their solve calls and their ``L``/``U`` reads
    (``lu``), the Qhull calls and the points they triangulate
    (``delaunay``), and whether the outputs passed the checks."""
    _import_sources(os.path.abspath(root))
    import plapx.geometry
    import plapx.solver
    import workloads

    factor, delaunay = plapx.solver._factor, plapx.geometry.Delaunay
    lock = threading.Lock()
    lu, qhull = {}, {}

    def counted_factor(A):
        with lock:
            lu["factorizations"] += 1
        return _CountedFactor(factor(A), lu, lock)

    def counted_delaunay(points, *args, **kwargs):
        with lock:
            qhull["calls"] += 1
            qhull["points"] += len(points)
        return delaunay(points, *args, **kwargs)

    result = {"_how": ("lu: SuperLU factorizations, solve calls (one "
                       "forward and one backward triangular solve each) and "
                       "reads of a factor's L or U, counted by wrapping "
                       "plapx.solver._factor; delaunay: Qhull calls and the "
                       "points they triangulate, counted by wrapping "
                       "plapx.geometry.Delaunay; one run per workload, "
                       "seed 1")}
    plapx.solver._factor = counted_factor
    plapx.geometry.Delaunay = counted_delaunay
    try:
        for name in names or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            os.environ["PLAPX_THREADS"] = str(wl.threads)
            lu.update(factorizations=0, solves=0, lu_reads=0)
            qhull.update(calls=0, points=0)
            with tempfile.TemporaryDirectory() as workdir:
                outcome = workloads.run(workloads.Inputs(wl, 1, workdir))
                problems = workloads.check(outcome, wl,
                                           workloads.load_reference())
            result[name] = {"lu": dict(lu), "delaunay": dict(qhull),
                            "correct": not problems}
            print(f"{name}: {result[name]}", file=sys.stderr)
    finally:
        plapx.solver._factor = factor
        plapx.geometry.Delaunay = delaunay
    return result


def count(args):
    result = count_record(args.root)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


def _import_sources(root):
    """Pin BLAS to one thread and put DIR/src and DIR/perfbench first on
    the import path."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    counts = sub.add_parser(
        "count", help="count LU factorizations, solves and Qhull calls")
    counts.add_argument("--root", default=ROOT)
    counts.add_argument("--out", required=True)
    b = sub.add_parser("build", help="write a BENCH json")
    b.add_argument("--out", required=True)
    b.add_argument("--title", required=True)
    b.add_argument("--claim", required=True, help="WORKLOAD:METRIC")
    b.add_argument("--parent", nargs="+", required=True)
    b.add_argument("--change", nargs="+", required=True)
    b.add_argument("--counts-parent")
    b.add_argument("--counts-change")
    b.add_argument("--note")
    args = ap.parse_args(argv)
    commands = {"count": count, "build": build}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
