"""What is computed once per mesh or once per solve, and stays fixed.

Basis gradients, the P1 sparsity pattern and the location of a lattice
window's points are cached on the mesh; p, f, the load vector and the
Dirichlet values are evaluated once per continuation solve, and so is the
sparse factorization that preconditions every later linear solve.  Only
iterate-dependent work runs per Newton step.
"""

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import plapx.solver
from plapx.assembly import P1Function, assemble_jacobian, weighted_stiffness
from plapx.experiments import ExperimentConfig, run_domain_sweep, run_p1_sweep
from plapx.geometry import (ConvexDomain, TriMesh, refine_uniform,
                            triangulate_convex)
from plapx.solver import ProblemSpec, continuation_solve
from plapx.varexp import ExponentField, QuadratureContext

SQUARE = ConvexDomain.unit_square()


class CountingField:
    """A field that counts its evaluations at one array shape."""

    def __init__(self, fn, shape):
        self.fn = fn
        self.shape = shape
        self.calls = 0

    def __call__(self, x, y):
        if np.shape(x) == self.shape:
            self.calls += 1
        return self.fn(x, y)


def counted_solve(mesh, eps_stop):
    qshape = (mesh.n_triangles, 6)
    p = CountingField(lambda x, y: 1.5 + 0.4 * x, qshape)
    f = CountingField(lambda x, y: 1.0 + x * y, qshape)
    spec = ProblemSpec(domain=SQUARE,
                       p=ExponentField(p, p1=1.5, p2=1.9, lip=0.4),
                       f=f, g=0.0, q=ExponentField.constant(4.0),
                       eps_start=1.0, eps_stop=eps_stop, mesh_h=0.25)
    report = continuation_solve(spec, mesh=mesh)
    steps = sum(r.newton_iterations for r in report.records)
    return p.calls, f.calls, len(report.records), steps


def test_fields_at_quadrature_nodes_evaluated_once_per_solve():
    mesh = triangulate_convex(SQUARE, 0.25)
    short = counted_solve(mesh, eps_stop=1.0)
    long = counted_solve(mesh, eps_stop=1e-3)
    # the longer sweep takes more eps steps and more Newton steps ...
    assert long[2] > short[2] and long[3] > short[3]
    # ... but evaluates p and f at the quadrature nodes no more often
    assert long[:2] == short[:2] == (1, 1)


def test_lattice_located_once_per_mesh_and_window(monkeypatch):
    calls = []
    locate = TriMesh.locate

    def counted(mesh, pts, tol=1e-10):
        calls.append(len(pts))
        return locate(mesh, pts, tol)

    monkeypatch.setattr(TriMesh, "locate", counted)
    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(1.7), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), eps_start=1.0,
                       eps_factor=0.1, mesh_h=0.1)
    per_solve = []
    for eps_stop in (1e-2, 1e-6):
        mesh = triangulate_convex(SQUARE, 0.1)
        calls.clear()
        report = continuation_solve(
            dataclasses.replace(spec, eps_stop=eps_stop), mesh=mesh)
        per_solve.append((len(report.records), list(calls)))
        # a second solve on the same mesh finds the lattice located
        calls.clear()
        continuation_solve(dataclasses.replace(spec, eps_stop=eps_stop),
                           mesh=mesh)
        assert calls == []
    (short_steps, short_calls), (long_steps, long_calls) = per_solve
    assert (short_steps, long_steps) == (3, 7)
    assert short_calls == long_calls and len(short_calls) == 1


def test_factorizations_do_not_grow_with_eps_steps(monkeypatch):
    splu_calls, solves = [], []
    splu, linear_solve = plapx.solver.spla.splu, plapx.solver.linear_solve

    def counted_splu(A, **kw):
        splu_calls.append(A.shape)
        return splu(A, **kw)

    def counted_solve(A, b, *args, **kw):
        solves.append(len(b))
        return linear_solve(A, b, *args, **kw)

    monkeypatch.setattr(plapx.solver.spla, "splu", counted_splu)
    monkeypatch.setattr(plapx.solver, "linear_solve", counted_solve)
    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(1.7), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), eps_start=1.0,
                       eps_factor=0.1, mesh_h=0.1)
    mesh = triangulate_convex(SQUARE, 0.1)
    per_solve = []
    for eps_stop in (1e-2, 1e-6):
        splu_calls.clear()
        solves.clear()
        report = continuation_solve(
            dataclasses.replace(spec, eps_stop=eps_stop), mesh=mesh)
        steps = sum(r.newton_iterations for r in report.records)
        # one linear solve per Newton step, plus the initial Poisson solve
        assert len(solves) == steps + 1
        per_solve.append((len(report.records), len(splu_calls)))
    (short_steps, short_splu), (long_steps, long_splu) = per_solve
    assert (short_steps, long_steps) == (3, 7)
    assert short_splu == long_splu


def test_basis_gradients_cached_read_only():
    mesh = triangulate_convex(SQUARE, 0.3)
    g = mesh.basis_gradients()
    assert mesh.basis_gradients() is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0, 0] = 1.0


def test_p1_pattern_cached_read_only():
    mesh = triangulate_convex(SQUARE, 0.3)
    pat = mesh.p1_pattern()
    assert mesh.p1_pattern() is pat
    assert not pat.scatter.flags.writeable
    assert not pat.indices.flags.writeable


def test_mesh_caches_built_by_racing_threads():
    mesh = triangulate_convex(SQUARE, 0.1)
    window = ((0.2, 0.2), 0.05, 13, 13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: (mesh.basis_gradients(),
                                            mesh.p1_pattern(),
                                            mesh.locate_lattice(window)))
                       for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    g, pat = mesh.basis_gradients(), mesh.p1_pattern()
    tri, bary = mesh.locate_lattice(window)
    assert mesh.basis_gradients() is g and mesh.p1_pattern() is pat
    assert mesh.locate_lattice(window)[0] is tri
    for g_seen, pat_seen, (tri_seen, bary_seen) in results:
        np.testing.assert_array_equal(g_seen, g)
        for name in ("scatter", "indptr", "indices", "interior_slots"):
            np.testing.assert_array_equal(getattr(pat_seen, name),
                                          getattr(pat, name))
        np.testing.assert_array_equal(tri_seen, tri)
        np.testing.assert_array_equal(bary_seen, bary)


def vertex_graph(mesh):
    """(row, col) pairs of the P1 vertex graph plus the diagonal."""
    pairs = set()
    for tri in mesh.triangles:
        pairs.update((int(i), int(j)) for i in tri for j in tri)
    return pairs


@pytest.mark.parametrize("assemble", [assemble_jacobian, weighted_stiffness])
def test_operator_exactly_symmetric_on_vertex_graph(assemble):
    mesh = refine_uniform(triangulate_convex(SQUARE, 0.3))
    qctx = QuadratureContext(mesh)
    x, y = mesh.points[:, 0], mesh.points[:, 1]
    u = P1Function(mesh, np.sin(3.0 * x) * np.cos(2.0 * y) + x * x)
    p = ExponentField.from_expression("1.4 + 0.5*x*y", SQUARE)
    A = assemble(u, p, 0.05, qctx)
    assert (A - A.T).nnz == 0
    coo = A.tocoo()
    stored = list(zip(coo.row.tolist(), coo.col.tolist()))
    assert len(stored) == len(set(stored))
    assert set(stored) == vertex_graph(mesh)


def test_threaded_p1_sweep_shares_mesh_caches(tmp_path, monkeypatch):
    text = "\n".join([
        "domain.vertices = 0,0; 1,0; 1,1; 0,1", "domain.corner_radius = 0",
        "p.expr = 2", "f.expr = 1", "g.expr = x", "q.expr = 4",
        "eps.start = 1", "eps.stop = 0.01",
        "eps.factor = 0.31622776601683794", "mesh.h = 0.2",
        "mesh.refinements = 0", "newton.tol = 1e-10",
        "newton.max_iter = 30", "s.exponent = 0.5", "seed = 0",
        "p1.list = 1.9, 1.7, 1.5, 1.3"]) + "\n"
    sides = []
    for threads, name in (("1", "single.csv"), ("2", "pool.csv")):
        monkeypatch.setenv("PLAPX_THREADS", threads)
        cfg = ExperimentConfig.from_text(
            text + f"output.path = {tmp_path / name}\n")
        result = run_p1_sweep(cfg)
        assert not result.failed and len(result.rows) == 4
        side = json.loads((tmp_path / (name + ".json")).read_text())
        side["config"].pop("output.path")
        sides.append(side)
    assert ((tmp_path / "single.csv").read_bytes()
            == (tmp_path / "pool.csv").read_bytes())
    assert sides[0] == sides[1]


def test_threaded_domain_sweep_matches_single_thread(tmp_path, monkeypatch):
    # each member solves with its own kept factor: a factor shared between
    # pool threads would precondition another mesh's systems
    out = tmp_path / "dom.csv"
    text = "\n".join([
        "domain.vertices = 0,0; 1,0; 1,1; 0,1", "domain.corner_radius = 0",
        "p.expr = 2 - 0.5*x", "f.expr = 1", "g.expr = x", "q.expr = 4",
        "eps.start = 1", "eps.stop = 1e-3",
        "eps.factor = 0.31622776601683794", "mesh.h = 0.2",
        "mesh.refinements = 0", "newton.tol = 1e-10",
        "newton.max_iter = 30", "s.exponent = 0.5", "seed = 0",
        "radius.list = 0.3, 0.2, 0.15, 0.1", f"output.path = {out}"]) + "\n"
    sides = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PLAPX_THREADS", threads)
        result = run_domain_sweep(ExperimentConfig.from_text(text))
        assert not result.failed and len(result.rows) == 4
        sides.append((out.read_bytes(),
                      (tmp_path / "dom.csv.json").read_bytes()))
    assert sides[0] == sides[1]
