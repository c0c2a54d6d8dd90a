"""Build a BENCH_<n>.json record from perfbench result files.

    python3 tools/bench_record.py count [--root DIR] --out COUNTS.json
    python3 tools/bench_record.py ladder [--root DIR] --out LADDER.json
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

perfbench counts neither SuperLU's triangular solves, Qhull's calls nor
flux-kernel misses.  ``count`` runs each perfbench workload once, in this
process, on the plapx sources under ``DIR/src`` (default: this
repository), under ``counting()``, which wraps plapx functions to count:
under ``lu`` the factorizations, the ``solve`` calls on them (one call is
one forward and one backward triangular solve) and the reads of a factor's
``L`` or ``U`` (on its first such read scipy builds CSC copies of both and
keeps them on the factor); under ``delaunay``, the Qhull calls and the
points they triangulate; under ``solver``, the Newton steps and linear
solves; under ``kernel``, the flux-kernel misses and the Luxemburg modular
evaluations.  Under ``memory`` it records the run's ``tracemalloc`` peak:
the most bytes that Python and numpy allocations held at once, which does
not depend on the machine's allocator.  BLAS runs on one thread and
``PLAPX_THREADS`` is set as perfbench sets it.  ``build`` copies one such
file per side into each workload's ``counts``.

``ladder`` meshes every (domain, h) pair of ``LADDER_DOMAINS`` x
``LADDER_H`` with the plapx sources under ``DIR/src``, under
``counting()`` as ``count`` runs.  Per pair it records the sha256 of the
mesh's points, triangles and boundary-flag bytes (``mesh_digest`` of
``tests/test_geometry.py``), the point and triangle counts, the min angle,
the mesh size, the Qhull calls and the seconds, or the error raised.  Run
it on two checkouts and compare the files to see which meshes a meshing
change moves.

Only the standard library is imported here; ``count`` imports plapx and
``perfbench/workloads.py`` from DIR, and ``ladder`` imports plapx from DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import sys
import tempfile
import threading
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
# the meshing ladder: (name, constructor) pairs, the constructor applied to
# plapx.geometry, and the target sizes each domain is meshed at
LADDER_DOMAINS = (
    ("square", lambda g: g.ConvexDomain.unit_square()),
    ("disk1", lambda g: g.ConvexDomain.disk(1.0)),
    ("disk0.5", lambda g: g.ConvexDomain.disk(0.5)),
    ("triangle", lambda g: g.ConvexDomain([(0, 0), (2, 0), (0.7, 1.4)])),
    *((f"polygon{n}", lambda g, n=n: g.ConvexDomain.regular_polygon(n))
      for n in (3, 5, 6, 7, 8, 9, 10, 11, 12)),
    *((f"rounded{r}",
       lambda g, r=r: g.round_corners(g.ConvexDomain.unit_square(), r))
      for r in (0.025, 0.05, 0.1, 0.2, 0.3, 0.4)),
)
LADDER_H = (0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06)
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


@contextlib.contextmanager
def counting():
    """Count the work plapx does inside the block; yields the counts, a
    dict of dicts filled in place:

    - ``lu``: SuperLU factorizations, their ``solve`` calls and their
      ``L``/``U`` reads (``plapx.solver._factor`` wrapped);
    - ``delaunay``: Qhull calls and the points they triangulate
      (``plapx.geometry.Delaunay``);
    - ``solver``: Newton steps of the fixed-eps solves that return
      (``plapx.solver.solve_regularized``) and linear solves
      (``plapx.solver.linear_solve``);
    - ``kernel``: flux-kernel misses, the ``plapx.assembly._gradient_data``
      calls that compute, and Luxemburg modular evaluations, the calls of
      ``plapx.varexp._log_modular`` (None where the sources have none).
    """
    import plapx.assembly as assembly
    import plapx.geometry as geometry
    import plapx.solver as solver
    import plapx.varexp as varexp

    lock = threading.Lock()
    counts = {"lu": {"factorizations": 0, "solves": 0, "lu_reads": 0},
              "delaunay": {"calls": 0, "points": 0},
              "solver": {"newton_steps": 0, "linear_solves": 0},
              "kernel": {"flux_misses": 0, "luxemburg_evaluations": None}}

    def add(section, name, value=1):
        with lock:
            counts[section][name] += value

    def counted_delaunay(points, *args, **kwargs):
        add("delaunay", "calls")
        add("delaunay", "points", len(points))
        return real["Delaunay"](points, *args, **kwargs)

    def counted_factor(A):
        add("lu", "factorizations")
        return _CountedFactor(real["_factor"](A), counts["lu"], lock)

    def counted_solve_regularized(*args, **kwargs):
        u, stats = real["solve_regularized"](*args, **kwargs)
        add("solver", "newton_steps", stats.iterations)
        return u, stats

    def counted_linear_solve(*args, **kwargs):
        add("solver", "linear_solves")
        return real["linear_solve"](*args, **kwargs)

    def counted_gradient_data(u, *args):
        kept = u._flux
        data = real["_gradient_data"](u, *args)
        if u._flux is not kept:
            add("kernel", "flux_misses")
        return data

    def counted_log_modular(*args):
        add("kernel", "luxemburg_evaluations")
        return real["_log_modular"](*args)

    wrappers = {
        (solver, "_factor"): counted_factor,
        (solver, "solve_regularized"): counted_solve_regularized,
        (solver, "linear_solve"): counted_linear_solve,
        (geometry, "Delaunay"): counted_delaunay,
        (assembly, "_gradient_data"): counted_gradient_data,
    }
    if hasattr(varexp, "_log_modular"):
        counts["kernel"]["luxemburg_evaluations"] = 0
        wrappers[varexp, "_log_modular"] = counted_log_modular
    real = {name: getattr(module, name) for module, name in wrappers}
    try:
        for (module, name), wrapper in wrappers.items():
            setattr(module, name, wrapper)
        yield counts
    finally:
        for (module, name) in wrappers:
            setattr(module, name, real[name])


def count_record(root, names=None):
    """Per workload in ``names`` (default: all), one run at seed 1 under
    :func:`counting` and ``tracemalloc``: its counts, its traced peak in
    bytes, and whether the outputs passed the checks."""
    _import_sources(os.path.abspath(root))
    import workloads

    result = {"_how": ("counted by wrapping plapx functions (see counting() "
                       "in tools/bench_record.py): lu: SuperLU "
                       "factorizations, solve calls (one forward and one "
                       "backward triangular solve each) and reads of a "
                       "factor's L or U; delaunay: Qhull calls and the "
                       "points they triangulate; solver: Newton steps of "
                       "the fixed-eps solves that return, and linear "
                       "solves; kernel: flux-kernel misses and Luxemburg "
                       "modular evaluations; memory: the tracemalloc peak "
                       "of the run in bytes (Python and numpy allocations); "
                       "one run per workload, seed 1")}
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        os.environ["PLAPX_THREADS"] = str(wl.threads)
        with counting() as counts, tempfile.TemporaryDirectory() as workdir:
            tracemalloc.start()
            try:
                outcome = workloads.run(workloads.Inputs(wl, 1, workdir))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            problems = workloads.check(outcome, wl,
                                       workloads.load_reference())
        result[name] = dict(counts, memory={"tracemalloc_peak_bytes": peak},
                            correct=not problems)
        print(f"{name}: {result[name]}", file=sys.stderr)
    return result


def ladder_record(root, pairs=None):
    """``triangulate_convex`` on each (domain name, h) in ``pairs``
    (default: the whole ladder), under :func:`counting`.
    A pair's entry holds its mesh's digest, sizes, min angle and h, or the
    error; either way its Qhull calls and seconds."""
    _import_sources(os.path.abspath(root))
    import plapx.geometry as geometry

    domains = dict(LADDER_DOMAINS)
    if pairs is None:
        pairs = [(name, h) for name, _ in LADDER_DOMAINS for h in LADDER_H]
    entries = []
    for name, h in pairs:
        dom = domains[name](geometry)
        entry = {"domain": name, "h": h}
        start = time.perf_counter()
        with counting() as counts:
            try:
                mesh = geometry.triangulate_convex(dom, h)
            except geometry.GeometryError as err:
                entry["error"] = str(err)
            else:
                digest = hashlib.sha256()
                for arr in (mesh.points, mesh.triangles, mesh.is_boundary):
                    digest.update(arr.tobytes())
                entry.update(digest=digest.hexdigest(), points=mesh.n_points,
                             triangles=mesh.n_triangles,
                             min_angle=mesh.min_angle(), mesh_h=mesh.h)
        entry.update(qhull_calls=counts["delaunay"]["calls"],
                     seconds=time.perf_counter() - start)
        entries.append(entry)
        print(f"{name} h={h}: {entry}", file=sys.stderr)
    return {"_how": ("triangulate_convex per (domain, h), with "
                     "plapx.geometry.Delaunay wrapped to count Qhull calls; "
                     "digest is the sha256 of the points, triangles and "
                     "boundary-flag bytes; one run per pair"),
            "total": {"qhull_calls": sum(e["qhull_calls"] for e in entries),
                      "seconds": sum(e["seconds"] for e in entries),
                      "errors": sum(1 for e in entries if "error" in e)},
            "pairs": entries}


def _write(record, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


def count(args):
    return _write(count_record(args.root), args.out)


def ladder(args):
    return _write(ladder_record(args.root), args.out)


def _import_sources(root):
    """Pin BLAS to one thread and put DIR/src and DIR/perfbench first on
    the import path."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in (
            ("count", "count factorizations, solves, Qhull calls, "
                      "kernel misses and the tracemalloc peak"),
            ("ladder", "mesh the domain ladder: digests and Qhull calls")):
        runs = sub.add_parser(name, help=text)
        runs.add_argument("--root", default=ROOT)
        runs.add_argument("--out", required=True)
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
    commands = {"count": count, "ladder": ladder, "build": build}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
