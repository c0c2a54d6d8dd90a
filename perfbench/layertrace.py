"""Outside-in layer tracer.

The tracer wraps the names plapx's callers look up (module attributes such
as ``plapx.solver.linear_solve`` and methods such as
``plapx.geometry.TriMesh.locate``), so the package itself is not changed.
Each wrapped call records one span: id, parent span, name, thread id,
start and end, plus counts (points, bytes, Newton statistics).  Parents come
from a per-thread stack, so spans of the experiment pool threads nest
correctly and self time is computed per thread.  Spans are kept in memory
and written out once, at the end of the traced repetition.

Layer times under the thread pool include time spent waiting for the GIL,
so on ``rounding_sweep`` the per-layer times can sum to more than the
wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict


def _points(args, kwargs, result):
    return {"points": int(math.prod(getattr(args[1], "shape", ())))}


def _located(args, kwargs, result):
    pts = args[1]
    shape = getattr(pts, "shape", ())
    return {"points": int(shape[0]) if len(shape) == 2 else 1}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _newton(args, kwargs, result):
    """Newton statistics of one eps step, from the returned SolveStats.

    A step of length 2**-k took k halvings and k + 1 line-search residual
    evaluations.  A line search that failed (the fallback then runs before
    newton_max_iter steps were taken) evaluated and halved 31 times.
    """
    spec = args[0]
    stats = result[1]
    halvings = sum(round(-math.log2(t)) for t in stats.step_sizes)
    failed_search = (stats.used_fallback
                     and len(stats.step_sizes) < spec.newton_max_iter)
    fallback = len(stats.residual_history) - 1 - len(stats.step_sizes)
    return {
        "newton_steps": len(stats.step_sizes),
        "halvings": halvings + 31 * failed_search,
        "line_search_evals": (len(stats.step_sizes) + halvings
                              + 31 * failed_search),
        "fallback_steps": fallback,
    }


def _is_p1_function(args, kwargs):
    from plapx.assembly import P1Function
    return isinstance(args[0], P1Function)


# (module, attribute, span name, counter, skip).  Field evaluation of a P1
# function (lattice sampling of the discrete solution) is not coefficient
# field evaluation: it is left to the enclosing regularity span and to
# geometry.locate.
SITES = (
    ("plapx.experiments", "triangulate_convex", "geometry.mesh", None, None),
    ("plapx.experiments", "refine_uniform", "geometry.mesh", None, None),
    ("plapx.solver", "triangulate_convex", "geometry.mesh", None, None),
    ("plapx.geometry", "TriMesh.locate", "geometry.locate", _located, None),
    ("plapx.geometry", "TriMesh.basis_gradients", "geometry.basis_gradients",
     None, None),
    ("plapx.assembly", "field_values", "varexp.field_values", _points,
     _is_p1_function),
    ("plapx.solver", "field_values", "varexp.field_values", _points,
     _is_p1_function),
    ("plapx.regularity", "field_values", "varexp.field_values", _points,
     _is_p1_function),
    ("plapx.solver", "QuadratureContext", "varexp.quadrature", None, None),
    ("plapx.regularity", "luxemburg_norm", "varexp.luxemburg", None, None),
    ("plapx.solver", "assemble_residual", "assembly.residual", None, None),
    ("plapx.solver", "assemble_jacobian", "assembly.jacobian", None, None),
    ("plapx.solver", "energy", "assembly.energy", None, None),
    ("plapx.solver", "assemble_load", "assembly.load", None, None),
    ("plapx.solver", "weighted_stiffness", "assembly.stiffness", None, None),
    ("plapx.solver", "apply_dirichlet", "assembly.dirichlet", None, None),
    ("plapx.solver", "linear_solve", "solver.linear_solve", None, None),
    ("plapx.solver", "solve_regularized", "solver.eps_step", _newton, None),
    ("plapx.solver", "validate_spec", "solver.validate", None, None),
    ("plapx.solver", "continuation_solve", "solver.continuation", None,
     None),
    ("plapx.regularity", "h2_estimate_dq", "regularity.h2_dq", None, None),
    ("plapx.regularity", "h2_estimate_recovery", "regularity.h2_recovery",
     None, None),
    ("plapx.regularity", "lp_gradient_norm", "regularity.lp_norm", None,
     None),
    ("plapx.regularity", "h1_window_distance", "regularity.h1_window", None,
     None),
    ("plapx.regularity", "coefficients", "regularity.audit", None, None),
    ("plapx.regularity", "ellipticity_check", "regularity.audit", None,
     None),
    ("plapx.experiments", "continuation_solve", "experiments.member", None,
     None),
    ("plapx.experiments", "_map_ordered", "experiments.map", None, None),
    ("plapx.experiments", "write_csv", "experiments.emit", _bytes, None),
    ("plapx.experiments", "write_sidecar", "experiments.emit", _bytes, None),
)

# The experiment runners are called through the plapx.cli._RUNNERS table.
RUNNER_SPAN = "experiments.run"
ROOT_SPAN = "bench.workload"
LAYERS = ("geometry", "varexp", "assembly", "solver", "regularity",
          "experiments")

# Per-layer metrics of a traced run, with their units, in print order.
PER_LAYER = (
    ("geometry.mesh_s", "s"), ("geometry.mesh_calls", "count"),
    ("geometry.locate_s", "s"), ("geometry.locate_calls", "count"),
    ("geometry.locate_points", "count"),
    ("geometry.basis_gradients_s", "s"),
    ("geometry.basis_gradients_calls", "count"),
    ("geometry.self_s", "s"),
    ("varexp.field_values_s", "s"), ("varexp.field_values_calls", "count"),
    ("varexp.field_values_points", "count"),
    ("varexp.quadrature_s", "s"), ("varexp.quadrature_calls", "count"),
    ("varexp.luxemburg_s", "s"), ("varexp.luxemburg_calls", "count"),
    ("varexp.self_s", "s"),
    ("assembly.residual_s", "s"), ("assembly.residual_calls", "count"),
    ("assembly.jacobian_s", "s"), ("assembly.jacobian_calls", "count"),
    ("assembly.energy_s", "s"), ("assembly.energy_calls", "count"),
    ("assembly.load_s", "s"), ("assembly.load_calls", "count"),
    ("assembly.stiffness_s", "s"), ("assembly.stiffness_calls", "count"),
    ("assembly.dirichlet_s", "s"), ("assembly.dirichlet_calls", "count"),
    ("assembly.self_s", "s"),
    ("solver.linear_solve_s", "s"), ("solver.linear_solve_calls", "count"),
    ("solver.eps_step_p50_s", "s"), ("solver.eps_step_max_s", "s"),
    ("solver.eps_steps", "count"), ("solver.newton_steps", "count"),
    ("solver.halvings", "count"), ("solver.fallback_steps", "count"),
    ("solver.line_search_evals", "count"),
    ("solver.line_search_accept_ratio", "ratio"),
    ("solver.validate_s", "s"), ("solver.validate_calls", "count"),
    ("solver.continuation_s", "s"), ("solver.continuation_calls", "count"),
    ("solver.continuation_self_s", "s"),
    ("solver.self_s", "s"),
    ("regularity.h2_dq_s", "s"), ("regularity.h2_dq_calls", "count"),
    ("regularity.h2_recovery_s", "s"),
    ("regularity.h2_recovery_calls", "count"),
    ("regularity.lp_norm_s", "s"), ("regularity.lp_norm_calls", "count"),
    ("regularity.h1_window_s", "s"), ("regularity.h1_window_calls", "count"),
    ("regularity.audit_s", "s"), ("regularity.audit_calls", "count"),
    ("regularity.self_s", "s"),
    ("experiments.run_s", "s"), ("experiments.run_calls", "count"),
    ("experiments.member_p50_s", "s"), ("experiments.member_max_s", "s"),
    ("experiments.member_calls", "count"),
    ("experiments.member_wait_s", "s"), ("experiments.pool_wait_s", "s"),
    ("experiments.parallel_eff", "ratio"),
    ("experiments.emit_s", "s"), ("experiments.emit_calls", "count"),
    ("experiments.bytes_written", "bytes"),
    ("experiments.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.other_s", "s"),
    ("trace.spans", "count"), ("trace.unreached_sites", "count"),
)

# Metrics that do not depend on the machine: two traced runs of the same
# code must give them identically.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "bytes")
                      and name != "trace.unreached_sites")


class Tracer:
    """Span recorder; ``install`` patches plapx, ``uninstall`` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, parent, name, thread, start, end, counts)
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._patched = []       # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counter=None):
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = (counter(args, kwargs, result)
                      if returned and counter is not None else None)
            with self._lock:
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   start, end, counts))

    def _wrap(self, fn, name, counter=None, skip=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, counter)

        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        for module_name, attribute, name, counter, skip in SITES:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                cls, attribute = attribute.split(".")
                owner = getattr(owner, cls)
            fn = getattr(owner, attribute)
            if name == "experiments.member":
                # call the solver's wrapped entry point, so a member span
                # holds its solver.continuation span
                fn = importlib.import_module("plapx.solver").continuation_solve
            self._patch(owner, attribute, self._wrap(fn, name, counter, skip))
        runners = importlib.import_module("plapx.cli")._RUNNERS
        for command, fn in list(runners.items()):
            self._patched.append((runners, command, fn))
            runners[command] = self._wrap(fn, RUNNER_SPAN)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    def write(self, path):
        fields = ("id", "parent", "name", "thread", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [dict(zip(fields, s)) for s in self.spans]},
                      fh)
            fh.write("\n")


def summarize(spans, expected_sites):
    """Per-layer metrics of one traced repetition, from its spans.

    ``<span>_s`` is the inclusive time of the outermost calls of that span
    name (a nested call of the same name is not counted twice) and
    ``<span>_calls`` counts every call.  ``<layer>.self_s`` is the time in
    the layer's spans not covered by their child spans on the same thread.
    Returns (metrics, unreached expected span names, unexpected ones).
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, parent, name, thread, start, end, counts in spans:
        if parent:
            child_time[parent] += end - start

    def nested_in_same_name(span):
        parent = span[1]
        while parent:
            up = by_id[parent]
            if up[2] == span[2]:
                return True
            parent = up[1]
        return False

    inclusive = defaultdict(float)
    calls = defaultdict(int)
    counts_sum = defaultdict(int)
    durations = defaultdict(list)
    self_time = defaultdict(float)
    for span in spans:
        sid, parent, name, thread, start, end, counts = span
        calls[name] += 1
        durations[name].append(end - start)
        self_time[name] += (end - start) - child_time[sid]
        if not nested_in_same_name(span):
            inclusive[name] += end - start
        for key, value in (counts or {}).items():
            counts_sum[(name, key)] += value

    m = {}
    for name in set(calls) | {site[2] for site in SITES} | {RUNNER_SPAN}:
        m[f"{name}_s"] = inclusive[name]
        m[f"{name}_calls"] = calls[name]
    m["geometry.locate_points"] = counts_sum[("geometry.locate", "points")]
    m["varexp.field_values_points"] = counts_sum[("varexp.field_values",
                                                  "points")]
    steps = durations["solver.eps_step"]
    m["solver.eps_step_p50_s"] = statistics.median(steps) if steps else 0.0
    m["solver.eps_step_max_s"] = max(steps, default=0.0)
    m["solver.eps_steps"] = calls["solver.eps_step"]
    for key in ("newton_steps", "halvings", "fallback_steps",
                "line_search_evals"):
        m[f"solver.{key}"] = counts_sum[("solver.eps_step", key)]
    evals = m["solver.line_search_evals"]
    m["solver.line_search_accept_ratio"] = (m["solver.newton_steps"] / evals
                                            if evals else 0.0)
    m["solver.continuation_self_s"] = self_time["solver.continuation"]
    members = durations["experiments.member"]
    m["experiments.member_p50_s"] = (statistics.median(members)
                                     if members else 0.0)
    m["experiments.member_max_s"] = max(members, default=0.0)
    run_starts = [s[4] for s in spans if s[2] == RUNNER_SPAN]
    member_starts = [s[4] for s in spans if s[2] == "experiments.member"]
    m["experiments.member_wait_s"] = (max(member_starts) - min(run_starts)
                                      if run_starts and member_starts
                                      else 0.0)
    m["experiments.pool_wait_s"] = self_time["experiments.map"]
    m["experiments.bytes_written"] = counts_sum[("experiments.emit",
                                                 "bytes")]
    # the sweep thread's wait for pool members is pool_wait_s, not work
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in self_time.items()
                                   if name.startswith(layer + ".")
                                   and name != "experiments.map")
    m["trace.other_s"] = self_time[ROOT_SPAN]
    m["trace.spans"] = len(spans)

    reached = {name for name, n in calls.items() if n}
    unreached = sorted(set(expected_sites) - reached)
    unexpected = sorted(reached - set(expected_sites) - {ROOT_SPAN})
    return m, unreached, unexpected
