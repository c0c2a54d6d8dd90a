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
from plapx.expressions import parse_field
from plapx.geometry import (ConvexDomain, TriMesh, refine_uniform,
                            triangulate_convex)
from plapx.solver import (DiscreteProblem, NewtonError, ProblemSpec,
                          continuation_solve, validate_spec,
                          with_mollified_exponent)
from plapx.varexp import (ExponentField, QuadratureContext, field_values,
                          mollify_exponent)

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


class CountingBase:
    """An exponent with an ``evaluate`` method that counts the points it
    evaluates."""

    def __init__(self, text):
        self.expr = parse_field(text)
        self.points = 0

    def evaluate(self, x, y):
        self.points += np.broadcast(x, y).size
        return self.expr.evaluate(x, y)


def test_mollified_exponent_evaluated_once_per_point_set():
    base = CountingBase("1.6 + 0.3*x")
    p = ExponentField(base, p1=1.6, p2=1.9, lip=0.3, domain=SQUARE)
    spec = with_mollified_exponent(
        ProblemSpec(domain=SQUARE, p=p, f=1.0, g=0.0,
                    q=ExponentField.constant(4.0), eps_start=1.0,
                    eps_stop=0.1, mesh_h=0.15), 0.05)
    mesh = triangulate_convex(SQUARE, 0.15)
    qctx = QuadratureContext(mesh)
    # the base runs once at every (node, offset) pair, in batches
    pairs = len(spec.p.field.offsets) * qctx.x.size
    base.points = 0
    for _ in range(2):
        continuation_solve(spec, mesh=mesh)
        # p and the masked source share one evaluation on the quadrature
        # nodes; validate_spec reads the problem's values, so nothing
        # evicts them and a second solve on the mesh is served from them
        assert base.points == pairs
    # the last solve left the quadrature nodes' values; a fresh context
    # has the same bits, so both calls below are served from them
    first = spec.p.field.evaluate(qctx.x, qctx.y)
    kept = first.copy()
    first[:] = 0.0
    again = spec.p.field.evaluate(qctx.x, qctx.y)
    assert again is not first and np.array_equal(again, kept)
    assert base.points == pairs


def test_validate_spec_evaluates_no_mollified_exponent():
    base = CountingBase("1.6 + 0.3*x")
    p = ExponentField(base, p1=1.6, p2=1.9, lip=0.3, domain=SQUARE)
    spec = with_mollified_exponent(
        ProblemSpec(domain=SQUARE, p=p, f=1.0, g=0.0,
                    q=ExponentField.constant(4.0), mesh_h=0.15), 0.05)
    problem = DiscreteProblem.build(spec, triangulate_convex(SQUARE, 0.15))
    qctx = problem.qctx
    fv = field_values(spec.f, qctx.x, qctx.y)
    base.points = 0
    assert validate_spec(spec, qctx, problem.pv, fv) == []
    assert base.points == 0


def test_mollified_memo_shared_across_threads():
    """Threads that evaluate one mollified field on different point sets
    each get their own points' values, whichever entry the others left."""
    p = ExponentField.from_expression(parse_field("1.6 + 0.3*x*y"), SQUARE)
    field = mollify_exponent(p, 0.1).field
    rng = np.random.default_rng(3)
    sets = [rng.uniform(-0.2, 1.2, size=(2, n)) for n in (40, 41, 40)]
    expected = [field.evaluate(x, y) for x, y in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(field.evaluate, *sets[k % 3])
                       for k in range(48)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert np.array_equal(got, expected[k % 3])


def test_lattice_located_once_per_mesh_and_window(monkeypatch):
    calls = []
    locate = TriMesh.locate

    def counted(mesh, pts):
        calls.append(len(pts))
        return locate(mesh, pts)

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


def test_backward_error_acceptance_keeps_no_factor(monkeypatch):
    """p = 1.05, f = 20: nearly every Newton system misses the 1e-12
    residual and is accepted on its backward error.  Such a solve keeps no
    factor, so the next system is factored at once, without a futile PCG
    attempt and the second factorization it would end in."""
    splu_calls, accepted = [], []
    splu = plapx.solver.spla.splu
    backward_error = plapx.solver._backward_error

    def counted_splu(A, **kw):
        splu_calls.append(A.shape)
        return splu(A, **kw)

    def counted_error(A, b, x):
        accepted.append(len(b))
        return backward_error(A, b, x)

    monkeypatch.setattr(plapx.solver.spla, "splu", counted_splu)
    monkeypatch.setattr(plapx.solver, "_backward_error", counted_error)
    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(1.05),
                       f=20.0, g=0.0, q=ExponentField.constant(4.0),
                       eps_start=1.0, eps_stop=1.0)
    mesh = refine_uniform(refine_uniform(triangulate_convex(SQUARE, 0.1)))
    with pytest.raises(NewtonError,
                       match=r"no convergence at eps=1\.000e\+00") as err:
        continuation_solve(spec, mesh=mesh)
    steps = err.value.stats.iterations
    assert str(err.value).endswith(f" after {steps} steps")
    assert len(accepted) >= steps - 1
    # the Poisson start and at most steps + 1 Newton corrections: one
    # factorization per solve, plus the kept factor of each that reached
    # its target (at most steps + 5 <= 35 factorizations)
    solves = steps + 2
    assert len(splu_calls) <= len(accepted) + 2 * (solves - len(accepted))


@pytest.mark.parametrize("newton_max_iter", [30, 1])
def test_flux_kernel_runs_once_per_residual(monkeypatch, newton_max_iter):
    """p at the quadrature nodes enters the flux kernel once per residual
    evaluation and once for the initial stiffness matrix.  The Jacobian at
    an accepted line-search trial and the energy of each eps record, the
    failed one included, reuse the residual's evaluation."""
    import plapx.assembly

    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(1.6), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), eps_start=1.0,
                       eps_stop=1e-2, eps_factor=0.1, mesh_h=0.15,
                       newton_tol=1e-9, newton_max_iter=newton_max_iter)
    mesh = triangulate_convex(SQUARE, 0.15)
    node_shape = (mesh.n_triangles, 6)
    exponent_evals = []
    calls = {"assemble_residual": 0, "assemble_jacobian": 0,
             "weighted_stiffness": 0, "energy": 0}
    field_values = plapx.assembly.field_values
    assemble_load = plapx.solver.assemble_load
    loading = []

    def counted_field_values(f, x, y):
        # the load reads the source's values at the nodes, not p
        if np.shape(x) == node_shape and not loading:
            exponent_evals.append(type(f).__name__)
        return field_values(f, x, y)

    def load(*args, **kwargs):
        loading.append(True)
        try:
            return assemble_load(*args, **kwargs)
        finally:
            loading.pop()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(plapx.assembly, "field_values", counted_field_values)
    monkeypatch.setattr(plapx.solver, "assemble_load", load)
    for name in calls:
        monkeypatch.setattr(plapx.solver, name,
                            counted(name, getattr(plapx.solver, name)))
    if newton_max_iter == 1:
        # one Newton step misses 1e-9 at the first eps, and the solve gives
        # up with that step's iterate as the failed record
        with pytest.raises(NewtonError, match=r"eps=1\.000e\+00.* after 1 "
                           r"steps$") as err:
            continuation_solve(spec, mesh=mesh)
        records = err.value.report.records
        assert [r.converged for r in records] == [False]
    else:
        records = continuation_solve(spec, mesh=mesh).records
        assert len(records) == 3
    assert len(exponent_evals) == calls["assemble_residual"] + 1
    assert calls["assemble_jacobian"] >= 1
    assert calls["energy"] == len(records)
    # the Poisson start is the one frozen-coefficient matrix
    assert calls["weighted_stiffness"] == 1


def test_iterate_owns_its_coefficients():
    mesh = triangulate_convex(SQUARE, 0.3)
    base = np.zeros((2, mesh.n_points))
    base[0] = mesh.points[:, 0]
    u = P1Function(mesh, base[0])
    u.triangle_gradients()
    base[0] = 5.0 * mesh.points[:, 1]
    np.testing.assert_array_equal(u.coeffs, mesh.points[:, 0])
    np.testing.assert_allclose(u.triangle_gradients(),
                               np.tile([1.0, 0.0], (mesh.n_triangles, 1)),
                               rtol=0, atol=1e-12)


def test_triangle_gradients_cached_read_only():
    u = P1Function.interpolate(triangulate_convex(SQUARE, 0.3),
                               lambda x, y: x * y)
    g = u.triangle_gradients()
    assert g is u.triangle_gradients()
    assert not g.flags.writeable


def test_basis_gradients_cached_read_only():
    mesh = triangulate_convex(SQUARE, 0.3)
    g = mesh.basis_gradients()
    assert mesh.basis_gradients() is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0, 0] = 1.0
    # the gradient operator's data are the one stored copy
    G = mesh.gradient_operator()
    assert mesh.gradient_operator() is G
    assert G.shape == (2 * mesh.n_triangles, mesh.n_points)
    assert np.shares_memory(G.data, g)
    for arr in (G.data, G.indices, G.indptr):
        assert not arr.flags.writeable
    assert G.indices.dtype == G.indptr.dtype == np.int32
    # row 2 t + d: derivative d of triangle t's corner functions in order
    rows = G.toarray().reshape(mesh.n_triangles, 2, mesh.n_points)
    for t in (0, mesh.n_triangles // 2, mesh.n_triangles - 1):
        for d in (0, 1):
            want = np.zeros(mesh.n_points)
            want[mesh.triangles[t]] = g[t, :, d]
            assert np.array_equal(rows[t, d], want)


def test_basis_products_cached_read_only_and_bitwise():
    mesh = triangulate_convex(SQUARE, 0.3)
    k = mesh.basis_products()
    assert mesh.basis_products() is k
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0, 0] = 1.0
    gb = mesh.basis_gradients()
    assert np.array_equal(k, np.einsum("tid,tjd->tij", gb, gb))


@pytest.mark.parametrize("linearize", [True, False])
def test_flux_operator_bitwise_with_products_formed_per_call(linearize):
    _check_flux_operator_bitwise(linearize)


@pytest.mark.parametrize("linearize", [True, False])
def test_flux_operator_bitwise_in_batches_ending_mid_list(monkeypatch,
                                                         linearize):
    import plapx.assembly

    # batches that end inside the triangle list give the same bits
    monkeypatch.setattr(plapx.assembly, "OPERATOR_BATCH", 7)
    _check_flux_operator_bitwise(linearize)


def _check_flux_operator_bitwise(linearize):
    from plapx.assembly import _gradient_data

    mesh = refine_uniform(triangulate_convex(SQUARE, 0.3))
    qctx = QuadratureContext(mesh)
    x, y = mesh.points[:, 0], mesh.points[:, 1]
    u = P1Function(mesh, np.sin(3.0 * x) * np.cos(2.0 * y) + x * x)
    pv = 1.5 + 0.3 * qctx.x
    eps = 1e-3
    build = assemble_jacobian if linearize else weighted_stiffness
    got = build(u, pv, eps, qctx)
    # the per-call form the cached products replace
    gu, v2, _, s1, s2 = _gradient_data(u, pv, eps, qctx)
    gb = mesh.basis_gradients()
    local = s1[:, None, None] * np.einsum("tid,tjd->tij", gb, gb)
    if linearize:
        du = np.einsum("tid,td->ti", gb, gu)
        local = local + ((s2 / v2)[:, None, None]
                         * np.einsum("ti,tj->tij", du, du))
    pat = mesh.p1_pattern()
    want = np.bincount(pat.scatter, weights=local.ravel(),
                       minlength=len(pat.indices))
    assert np.array_equal(got.indices, pat.indices)
    assert np.array_equal(got.data, want)


def test_kernel_exponent_derived_once_per_read_only_array():
    import plapx.assembly

    mesh = triangulate_convex(SQUARE, 0.3)
    qctx = QuadratureContext(mesh)
    frozen = 1.5 + 0.3 * qctx.x
    frozen.setflags(write=False)
    for scale in (1.0, 2.0):
        u = P1Function.interpolate(mesh, lambda x, y: scale * x * y)
        plapx.assembly.energy(u, frozen, 0.5, qctx)
        kept_pv, half = qctx.kernel_exponent
        if scale == 1.0:
            first = half
        assert kept_pv is frozen and half is first
    assert not half.flags.writeable
    assert np.array_equal(half, 0.5 * (frozen - 2.0))
    # a writable array may change between calls, so nothing is kept for it
    plapx.assembly.energy(u, 1.5 + 0.3 * qctx.x, 0.5, qctx)
    assert qctx.kernel_exponent[1] is first
    # a continuation solve releases what it kept
    spec = ProblemSpec(domain=SQUARE, p=ExponentField.constant(1.6), f=1.0,
                       g=0.0, q=ExponentField.constant(4.0), eps_start=1.0,
                       eps_stop=1.0, mesh_h=0.3)
    report = continuation_solve(spec, mesh=mesh)
    assert report.problem.qctx.kernel_exponent is None


def test_exponent_array_checked_on_every_miss(monkeypatch):
    import plapx.assembly
    from plapx.varexp import EvaluationError

    mesh = triangulate_convex(SQUARE, 0.3)
    qctx = QuadratureContext(mesh)
    checked = []
    check_finite = plapx.assembly._check_finite

    def counted(vals, ctx, what):
        checked.append(what)
        return check_finite(vals, ctx, what)

    monkeypatch.setattr(plapx.assembly, "_check_finite", counted)
    u = P1Function.interpolate(mesh, lambda x, y: x * y)
    frozen = 1.5 + 0.3 * qctx.x
    frozen.setflags(write=False)
    for p in (frozen, 1.5 + 0.3 * qctx.x, ExponentField.constant(1.7)):
        checked.clear()
        plapx.assembly.energy(P1Function(mesh, u.coeffs), p, 0.5, qctx)
        assert checked == ["exponent"]
    # a hit on the read-only array is not checked again
    v = P1Function(mesh, u.coeffs)
    plapx.assembly.energy(v, frozen, 0.5, qctx)
    checked.clear()
    plapx.assembly.energy(v, frozen, 0.5, qctx)
    assert checked == []
    # a NaN is caught in a read-only array as in a writable one
    bad = 1.5 + 0.3 * qctx.x
    bad[0, 0] = np.nan
    for p in (bad, np.broadcast_to(bad, bad.shape)):
        with pytest.raises(EvaluationError, match="non-finite exponent"):
            plapx.assembly.energy(P1Function(mesh, u.coeffs), p, 0.5, qctx)


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
            futures = [pool.submit(lambda: (mesh.gradient_operator(),
                                            mesh.basis_gradients(),
                                            mesh.p1_pattern(),
                                            mesh.locate_lattice(window)))
                       for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    G, g, pat = (mesh.gradient_operator(), mesh.basis_gradients(),
                 mesh.p1_pattern())
    tri, bary = mesh.locate_lattice(window)
    assert mesh.basis_gradients() is g and mesh.p1_pattern() is pat
    assert mesh.gradient_operator() is G and np.shares_memory(G.data, g)
    assert mesh.locate_lattice(window)[0] is tri
    # the single-thread build of a fresh copy of the mesh
    alone = TriMesh(mesh.points, mesh.triangles,
                    mesh.is_boundary).gradient_operator()
    for G_seen, g_seen, pat_seen, (tri_seen, bary_seen) in results:
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(G_seen, name),
                                          getattr(alone, name))
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
