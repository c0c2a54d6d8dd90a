"""``tools/bench_record.py build`` on synthetic perfbench result files."""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_record.py")
DEMOS = os.path.join(ROOT, "demos")


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(tmp_path, name, trace, wall, counts=None):
    """A result file as perfbench/run.py writes it, with one repetition
    per wall_s sample."""
    env = {"OPENBLAS_NUM_THREADS": "1", "PLAPX_THREADS": "1", "nproc": 2,
           "git_sha": "abc", "src_sha256": name[:6]}
    if trace:
        metrics, samples = dict(counts), {}
    else:
        samples = {"wall_s": wall, "cpu_s": wall, "setup_s": [0.5] * len(wall),
                   "peak_rss_mb": [100.0] * len(wall)}
        metrics = {k: sorted(v)[len(v) // 2] for k, v in samples.items()}
    record = {"workload": "square", "seed": 1, "trace": trace, "seconds": 5,
              "env": env, "metrics": metrics, "samples": samples,
              "repetitions": [{"problems": []} for _ in wall or [0]]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_build_pairs_runs_and_reports_the_claim(tmp_path, bench_record):
    parent = [result(tmp_path, f"parent{k}", 0, w)
              for k, w in enumerate(([4.0, 4.2, 4.4], [3.8, 4.0, 4.1],
                                     [4.4, 4.6, 4.5]))]
    change = [result(tmp_path, f"change{k}", 0, w)
              for k, w in enumerate(([3.0, 3.1, 3.2], [4.1, 4.2, 4.3],
                                     [2.9, 3.0, 3.1]))]
    counts = {"solver.newton_steps": 21, "geometry.locate_calls": 3,
              "solver.linear_solve_s": 1.5}
    parent.append(result(tmp_path, "parent_t", 1, [], counts))
    change.append(result(tmp_path, "change_t", 1, [],
                         dict(counts, **{"geometry.locate_calls": 2,
                                         "solver.linear_solve_s": 0.7})))
    counted = []
    for side, calls, reads in (("parent", 10, 1), ("change", 2, 0)):
        path = tmp_path / f"counts-{side}.json"
        path.write_text(json.dumps({"_how": "counted", "square": {
            "lu": {"factorizations": 1 + reads, "lu_reads": reads},
            "delaunay": {"calls": calls}}}))
        counted.append(str(path))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["build", "--out", str(out), "--title", "t",
                              "--claim", "square:wall_s", "--parent",
                              *parent, "--change", *change,
                              "--counts-parent", counted[0],
                              "--counts-change", counted[1]]) == 0
    bench = json.loads(out.read_text())
    assert bench["counts_how"] == "counted"
    entry = bench["workloads"]["square"]
    assert entry["counts"] == {
        "parent": {"lu": {"factorizations": 2, "lu_reads": 1},
                   "delaunay": {"calls": 10}},
        "change": {"lu": {"factorizations": 1, "lu_reads": 0},
                   "delaunay": {"calls": 2}}}
    assert entry["pairs"] == 3
    assert entry["parent"]["wall_s"]["per_run_medians"] == [4.2, 4.0, 4.5]
    assert entry["change"]["wall_s"]["over_runs"]["median"] == 3.1
    assert entry["parent"]["wall_s"]["pooled_samples"]["n"] == 9
    assert entry["change_better"]["wall_s"] == 2
    assert entry["count_changes"] == {"geometry.locate_calls": [3, 2]}
    claim = bench["claim"]["result"]
    assert claim["change_better_pairs"] == 2 and claim["pairs"] == 3
    assert claim["parent_median"] == 4.2 and claim["change_median"] == 3.1
    assert claim["parent_quartile_spread"] == pytest.approx(0.25)
    assert claim["gain_exceeds_parent_spread"] is True


def test_counted_factor_counts_l_and_u_reads(bench_record):
    import threading

    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    counts = {"solves": 0, "lu_reads": 0}
    lu = bench_record._CountedFactor(
        spla.splu(sp.csc_matrix(np.diag([2.0, 3.0]))), counts,
        threading.Lock())
    lu.solve(np.ones(2))
    assert lu.shape == (2, 2) and counts["lu_reads"] == 0
    lu.U.diagonal()
    lu.L.diagonal()
    assert counts == {"solves": 1, "lu_reads": 2}


def _isolate(monkeypatch):
    """One BLAS and plapx thread, and the environment and import path that
    ``count_record`` and ``ladder_record`` set restored afterwards."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PLAPX_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))


def _count(bench_record, monkeypatch):
    """``count_record`` on mollified_h0.1, with one BLAS thread."""
    _isolate(monkeypatch)
    record = bench_record.count_record(bench_record.ROOT, ["mollified_h0.1"])
    assert record["mollified_h0.1"]["correct"] is True
    return record["mollified_h0.1"]


def test_count_delaunay_counts_qhull_calls(bench_record, monkeypatch):
    from plapx import geometry

    real = geometry.Delaunay
    record = _count(bench_record, monkeypatch)
    assert geometry.Delaunay is real
    # two meshing attempts at h = 0.1 (251 and 334 points), one call each
    assert record["delaunay"] == {"calls": 2, "points": 585}


def test_count_lu_counts_factorizations_and_lu_reads(bench_record,
                                                     monkeypatch):
    from plapx import solver

    real = solver._factor
    record = _count(bench_record, monkeypatch)
    assert solver._factor is real
    # the Poisson start is certified SPD and kept, and no L or U is read;
    # the certificate of that Z-matrix takes one of the 107 solves
    assert record["lu"] == {"factorizations": 1, "solves": 107,
                            "lu_reads": 0}


def test_count_kernel_counts_flux_misses_and_luxemburg_evaluations(
        bench_record, monkeypatch):
    from plapx import assembly, varexp

    real = assembly._gradient_data, varexp._log_modular
    record = _count(bench_record, monkeypatch)
    assert (assembly._gradient_data, varexp._log_modular) == real
    # one kernel per residual evaluation and one for the Poisson start;
    # 7 Luxemburg norms (one per eps record) of 3 modular evaluations each
    assert record["solver"] == {"newton_steps": 16, "linear_solves": 17}
    assert record["kernel"] == {"flux_misses": 24,
                                "luxemburg_evaluations": 21}


def test_count_records_the_tracemalloc_peak(bench_record, monkeypatch):
    import tracemalloc

    record = _count(bench_record, monkeypatch)
    assert not tracemalloc.is_tracing()
    # numpy's allocations are traced too: one run of the mollified solve
    # peaks near 2.1 MB
    peak = record["memory"]["tracemalloc_peak_bytes"]
    assert isinstance(peak, int) and 1_000_000 < peak < 4_000_000


def run_demo(tmp_path, command, name):
    """``plapx command demos/name`` with its output moved to tmp_path."""
    from plapx.cli import main as cli_main

    with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith("output.path")]
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines + [f"output.path = {tmp_path / 'out.csv'}"])
                   + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([command, str(cfg)])


# Newton steps, linear solves, SuperLU factorizations, SuperLU solve calls,
# L/U reads, flux-kernel misses and Qhull calls of the two demo sweeps; no
# L or U is read, since the certificate proves each factored matrix SPD
DEMO_COUNTS = [("sweep-eps", "square.cfg", (20, 21, 1, 114, 0, 34, 1)),
               ("sweep-domain", "rounding.cfg", (85, 90, 5, 563, 0, 135, 8))]


@pytest.mark.parametrize("command,name,want", DEMO_COUNTS,
                         ids=[f"{c}-{n}" for c, n, _ in DEMO_COUNTS])
def test_demo_work_counts(bench_record, monkeypatch, tmp_path, command, name,
                          want):
    # machine-independent work: a change that moves one of these counts
    # changes what the solver does, not only how fast
    _isolate(monkeypatch)
    with bench_record.counting() as counts:
        assert run_demo(tmp_path, command, name) == 0
    solver, lu = counts["solver"], counts["lu"]
    assert (solver["newton_steps"], solver["linear_solves"],
            lu["factorizations"], lu["solves"], lu["lu_reads"],
            counts["kernel"]["flux_misses"],
            counts["delaunay"]["calls"]) == want


def test_ladder_records_meshes_and_qhull_calls(bench_record, monkeypatch):
    from plapx import geometry

    real = geometry.Delaunay
    _isolate(monkeypatch)
    record = bench_record.ladder_record(bench_record.ROOT,
                                        [("square", 0.3), ("triangle", 0.12)])
    assert geometry.Delaunay is real
    square, triangle = record["pairs"]
    # the digests pinned for these meshes in tests/test_geometry.py
    assert square["digest"] == ("d7137cbf9165152e0e6bc9688411fd6bba946fa4"
                                "1c492916dfd44a419ec5fc7c")
    assert triangle["digest"] == ("a13ee254053b2b9df9ab560ac9273fcf725dfb92"
                                  "7a05e1d203cf50dbe54e2f42")
    assert (square["qhull_calls"], triangle["qhull_calls"]) == (1, 2)
    assert (triangle["domain"], triangle["h"]) == ("triangle", 0.12)
    assert triangle["points"] == 346 and triangle["triangles"] == 613
    assert triangle["min_angle"] >= 20.0 and triangle["mesh_h"] <= 0.12
    assert record["total"]["qhull_calls"] == 3
    assert record["total"]["errors"] == 0


def test_ladder_records_a_meshing_error(bench_record, monkeypatch):
    from plapx import geometry

    # no triangle has every angle above 60 degrees
    monkeypatch.setattr(geometry, "MIN_ANGLE_DEG", 60.5)
    _isolate(monkeypatch)
    record = bench_record.ladder_record(bench_record.ROOT, [("square", 0.3)])
    (entry,) = record["pairs"]
    assert entry["error"].startswith("could not reach min angle 60.5 deg")
    assert "digest" not in entry and entry["qhull_calls"] > 0
    assert record["total"]["errors"] == 1
