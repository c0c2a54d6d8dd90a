"""Config-driven experiment runs with CSV/JSON emission.

A config is a flat UTF-8 text file of ``section.key = value`` lines with
``#`` comments.  Field inputs (p, f, g, q, exact solutions, identity test
functions) are expression strings over x and y.  Every run writes a CSV
whose float cells are ``repr`` round-trips (byte-identical reruns with one
thread) and a JSON sidecar holding the resolved config, the package
version, and run-specific extras (validation and diagnostic warnings,
ellipticity audit, scaling fits, failures).

Once a config has loaded, every error of :data:`~plapx.solver.SOLVE_ERRORS`
that a run meets (meshing, solving, the audit, an identity check) is a
``"failures"`` entry, with the CSV and sidecar still written;
:func:`_attempt` is the one place that catches it.  A diagnostic that
cannot be computed (a domain that fits no lattice window, an estimator
that fails) is not a failure: its cell is ``nan`` and the sidecar's
``"diagnostic_warnings"`` says why.  A run builds only the per-eps
records of the rows it writes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import regularity
from .expressions import DifferentiationError, parse_field
from .geometry import (MAX_TRIANGLES, ConvexDomain, GeometryError,
                       ParameterError, refine_uniform, round_corners,
                       triangulate_convex)
from .solver import (FIELD_CHECKS, SOLVE_ERRORS, EpsRecord, ProblemSpec,
                     continuation_solve)
from .varexp import ExponentField, QuadratureContext, field_values

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "run_solve",
    "run_eps_sweep",
    "run_convergence",
    "run_p1_sweep",
    "run_domain_sweep",
    "run_identity_check",
    "l2_h1_errors",
    "thread_count",
    "DEFAULT_IDENTITY_EXPRS",
]


class ConfigError(ValueError):
    pass


REQUIRED_KEYS = (
    "domain.vertices", "domain.corner_radius",
    "p.expr", "f.expr", "g.expr", "q.expr",
    "eps.start", "eps.stop", "eps.factor",
    "mesh.h", "mesh.refinements",
    "newton.tol", "newton.max_iter",
    "output.path", "seed",
)

# s.exponent is accepted for older configs and ignored
OPTIONAL_KEYS = ("u.exact.expr", "p1.list", "radius.list", "identity.exprs",
                 "s.exponent")

DEFAULT_IDENTITY_EXPRS = (
    "1 - x^2 - y^2",
    "(1 - x^2 - y^2) * exp(x)",
    "(1 - x^2 - y^2) * sin(x + 2*y)",
)


def _parse_lines(text):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if key not in REQUIRED_KEYS and key not in OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        raw[key] = value
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    return raw


def _read(raw, key, parse, default=None):
    """``parse(raw[key])``, or ``default`` for an absent key.  The config
    reader's one catch: a rejected value is a ConfigError naming ``key``."""
    if key not in raw:
        return default
    try:
        return parse(raw[key])
    except (ValueError, ArithmeticError, GeometryError) as err:
        raise ConfigError(f"key '{key}': {err}")


def _scalar(convert, kind):
    """A parser of one value that ``convert`` reads (``kind`` names it)."""
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"not {kind} ({text!r})")
    return parse


_number, _integer = _scalar(float, "a number"), _scalar(int, "an integer")


def _checked(field, parse=_number):
    """A parser of the value of ``ProblemSpec`` field ``field`` that applies
    the spec's own check of it (:data:`~plapx.solver.FIELD_CHECKS`)."""
    test, reason = FIELD_CHECKS[field]

    def read(text):
        value = parse(text)
        if not test(value):
            raise ValueError(reason)
        return value
    return read


def _count(text):
    n = _integer(text)
    if n < 0:
        raise ValueError("must be >= 0")
    return n


def _pieces(text, sep):
    """The non-blank ``sep``-separated pieces of ``text``, stripped."""
    return [piece for piece in map(str.strip, text.split(sep)) if piece]


def _numbers(text):
    out = []
    for piece in _pieces(text, ","):
        try:
            out.append(float(piece))
        except ValueError:
            raise ValueError(f"bad entry {piece!r}")
    return out


def _exponents(text):
    values = _numbers(text)
    if any(not v > 1.0 for v in values):
        raise ValueError("exponents must exceed 1")
    return values


def _polygon(text):
    """The unrounded convex polygon of ``x,y; x,y; ...`` text."""
    pts = []
    for pair in _pieces(text, ";"):
        halves = pair.split(",")
        if len(halves) != 2:
            raise ValueError(f"expected 'x,y' pairs, got {pair!r}")
        try:
            pts.append((float(halves[0]), float(halves[1])))
        except ValueError:
            raise ValueError(f"bad coordinate in {pair!r}")
    return ConvexDomain(pts)


def _radii(text, polygon):
    radii = _numbers(text)
    if any(not r > 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(not b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    for r in radii[:1]:  # the largest: if it rounds, all do
        round_corners(polygon, r)
    return radii


def _identity_exprs(text):
    exprs = _pieces(text, ";")
    for piece in exprs:
        parse_field(piece)
    return exprs


@dataclass
class ExperimentConfig:
    raw: dict
    spec: ProblemSpec
    refinements: int
    output_path: str
    u_exact: object
    p1_list: list
    radius_list: list
    identity_exprs: list

    @classmethod
    def from_text(cls, text):
        raw = _parse_lines(text)
        polygon = _read(raw, "domain.vertices", _polygon)
        domain = _read(raw, "domain.corner_radius", lambda text: ConvexDomain(
            polygon.vertices, corner_radius=_number(text)))

        def exponent(text):
            return ExponentField.from_expression(text, domain)

        spec_values = dict(
            domain=domain,
            p=_read(raw, "p.expr", exponent),
            f=_read(raw, "f.expr", parse_field),
            g=_read(raw, "g.expr", parse_field),
            q=_read(raw, "q.expr", exponent),
            eps_start=_read(raw, "eps.start", _number),
            eps_stop=_read(raw, "eps.stop", _number),
            eps_factor=_read(raw, "eps.factor", _checked("eps_factor")),
            mesh_h=_read(raw, "mesh.h", _checked("mesh_h")),
            newton_tol=_read(raw, "newton.tol", _checked("newton_tol")),
            newton_max_iter=_read(raw, "newton.max_iter",
                                  _checked("newton_max_iter", _integer)),
            seed=_read(raw, "seed", _count))
        try:
            spec = ProblemSpec(**spec_values)
        except ValueError as err:
            raise ConfigError(str(err))
        return cls(
            raw=raw, spec=spec, output_path=raw["output.path"],
            refinements=_read(raw, "mesh.refinements", _count),
            u_exact=_read(raw, "u.exact.expr", parse_field),
            p1_list=_read(raw, "p1.list", _exponents, []),
            radius_list=_read(raw, "radius.list",
                              lambda text: _radii(text, polygon), []),
            identity_exprs=_read(raw, "identity.exprs", _identity_exprs, []))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def problem_spec(self, **overrides) -> ProblemSpec:
        """A copy of the configured spec with ``overrides`` such as ``p=``
        or ``domain=``."""
        return dataclasses.replace(self.spec, **overrides)

    def meshes(self, levels, domain=None):
        """The base mesh of ``domain`` (the configured one by default) and
        ``levels - 1`` uniform refinements, coarsest first; ParameterError,
        before refining, when the finest would pass the triangle cap."""
        out = [triangulate_convex(domain or self.spec.domain,
                                  self.spec.mesh_h)]
        count = out[0].n_triangles * 4 ** (levels - 1)
        if count > MAX_TRIANGLES:
            raise ParameterError(
                f"{levels - 1} uniform refinements of {out[0].n_triangles} "
                f"triangles make {count}, more than {MAX_TRIANGLES:.0f}")
        while len(out) < levels:
            out.append(refine_uniform(out[-1]))
        return out

    def working_mesh(self, domain=None):
        return self.meshes(self.refinements + 1, domain)[-1]


def thread_count():
    """Worker count from PLAPX_THREADS (default 1)."""
    value = os.environ.get("PLAPX_THREADS")
    if value is None:
        return 1
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"PLAPX_THREADS must be an integer, got {value!r}")
    if n < 1:
        raise ConfigError("PLAPX_THREADS must be >= 1")
    return n


def _map_ordered(fn, items):
    """Run fn over items, possibly concurrently; results in input order."""
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))


def _fmt_cell(v):
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"'
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def write_sidecar(path, payload):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ExperimentResult:
    command: str
    columns: tuple
    rows: list
    csv_path: str
    sidecar_path: str
    payload: dict
    mesh: object = None

    @property
    def failed(self):
        return bool(self.payload.get("failures"))


def _payload_base(config: ExperimentConfig, command: str, columns):
    from . import __version__
    p = config.spec.p
    return {
        "version": __version__,
        "command": command,
        "config": dict(config.raw),
        "columns": list(columns),
        "seed": config.spec.seed,
        "exponent": {"p1": p.p1, "p2": p.p2, "lip": p.lip},
        "validation_warnings": [],
        "diagnostic_warnings": [],
        "failures": [],
    }


def _attempt(fn):
    """(fn(), None), or (None, error) when ``fn`` fails with one of
    :data:`SOLVE_ERRORS`: the run layer's one catch of a failure that a
    run records and survives."""
    try:
        return fn(), None
    except SOLVE_ERRORS as err:
        return None, err


def _mesh_or_failure(payload, build):
    """The mesh ``build()`` returns, or None with its failure entered in
    the payload's failures."""
    mesh, err = _attempt(build)
    if err is not None:
        payload["failures"].append({"mesh": str(err)})
    return mesh


def _solve_members(member, items):
    """Build and solve the (spec, mesh) ``member(item)`` of each item,
    possibly in threads: (report, None) or (None, error) per item, in
    order."""
    return _map_ordered(
        lambda item: _attempt(lambda: continuation_solve(*member(item))),
        items)


def _emit(config, payload, rows, results=(), mesh=None):
    """Write a run's CSV and sidecar, the command and columns read from
    ``payload``.  First each validation and diagnostic warning of the
    (report, error) ``results`` enters the payload once, in order: here,
    after the rows, because records are built on read and warn then."""
    reports = [report or getattr(err, "report", None)
               for report, err in results]
    for key, attr in (("validation_warnings", "warnings"),
                      ("diagnostic_warnings", "diagnostic_warnings")):
        payload[key] = list(dict.fromkeys(
            payload[key] + [w for r in reports if r is not None
                            for w in getattr(r, attr)]))
    path = config.output_path
    write_csv(path, payload["columns"], rows)
    write_sidecar(path + ".json", payload)
    return ExperimentResult(payload["command"], tuple(payload["columns"]),
                            rows, path, path + ".json", payload, mesh)


def _sample_mesh_points(mesh, n, rng):
    """``n`` uniform points of ``mesh`` and their triangles: a triangle is
    drawn with probability proportional to its area, and a point in it from
    barycentric coordinates (1 - a - b, a, b), with (a, b) reflected into
    the lower-left half of the unit square."""
    r = rng.random((n, 3))
    cum_area = np.cumsum(mesh.areas)
    tri = np.searchsorted(cum_area, cum_area[-1] * r[:, 0])
    ab = r[:, 1:]
    flip = ab[:, 0] + ab[:, 1] > 1.0
    ab[flip] = 1.0 - ab[flip]
    v = mesh.points[mesh.triangles[tri]]
    pts = (v[:, 0] + ab[:, :1] * (v[:, 1] - v[:, 0])
           + ab[:, 1:] * (v[:, 2] - v[:, 0]))
    return pts, tri


def _ellipticity_audit(u, spec: ProblemSpec, eps: float):
    """Post-hoc coefficient audit at uniform random points of the mesh,
    drawn from the first stream spawned from the config seed."""
    points_seed = np.random.SeedSequence(spec.seed).spawn(1)[0]
    rng = np.random.Generator(np.random.Philox(points_seed))
    pts, tri = _sample_mesh_points(u.mesh, 2000, rng)
    sample = regularity.coefficients(u, spec.p, spec.f, eps, pts, tri)
    return dataclasses.asdict(regularity.ellipticity_check(
        sample, spec.p.p1, spec.p.p2))


def _run_continuation(config: ExperimentConfig, command, final_only):
    """Continuation solve; on failure the records that finished (plus the
    failed one) are kept and the failure goes to the sidecar."""
    spec = config.spec
    payload = _payload_base(config, command, EpsRecord.COLUMNS)
    mesh = _mesh_or_failure(payload, config.working_mesh)
    if mesh is None:
        return _emit(config, payload, [])
    report, err = _attempt(lambda: continuation_solve(spec, mesh))
    if err is None:
        audit, audit_err = _attempt(lambda: _ellipticity_audit(
            report.solution, spec, spec.eps_stop))
        if audit_err is None:
            payload["ellipticity_audit"] = audit
        else:
            payload["failures"].append({"audit": str(audit_err)})
    else:
        payload["failures"] = [{"eps": err.report.failed_eps,
                                "reason": str(err)}]
    solved = report or err.report
    records = ([solved.final()] if final_only and solved.steps
               else solved.records)
    payload["mesh"] = {"n_points": mesh.n_points,
                       "n_triangles": mesh.n_triangles, "h": mesh.h}
    return _emit(config, payload, [r.row() for r in records],
                 [(report, err)], mesh)


def run_solve(config: ExperimentConfig) -> ExperimentResult:
    """Continuation solve; CSV holds the final-eps record only."""
    return _run_continuation(config, "solve", final_only=True)


def run_eps_sweep(config: ExperimentConfig) -> ExperimentResult:
    """One CSV row per eps of the continuation, in sweep order."""
    return _run_continuation(config, "sweep-eps", final_only=False)


def l2_h1_errors(u, exact, qctx=None):
    """L2 and H1 errors of a P1 function against an expression.

    The H1 error is the full norm, sqrt(L2^2 + seminorm^2); the exact
    gradient comes from symbolic differentiation of the expression.
    """
    if qctx is None:
        qctx = QuadratureContext(u.mesh)
    uv = u.quadrature_values(qctx)
    ev = field_values(exact, qctx.x, qctx.y)
    l2sq = float(np.sum(qctx.weights * (uv - ev) ** 2))
    gu = u.triangle_gradients()
    gex = field_values(exact.diff("x"), qctx.x, qctx.y)
    gey = field_values(exact.diff("y"), qctx.x, qctx.y)
    semsq = float(np.sum(qctx.weights * ((gu[:, 0:1] - gex) ** 2
                                         + (gu[:, 1:2] - gey) ** 2)))
    return math.sqrt(l2sq), math.sqrt(l2sq + semsq)


CONVERGENCE_COLUMNS = ("level", "h", "l2_error", "h1_error", "l2_order",
                       "h1_order")


def _order(coarse, fine, log_ratio):
    """Observed order between two levels' errors; nan unless both errors
    are positive (P1 can reproduce the exact solution)."""
    if coarse > 0 and fine > 0:
        return math.log(coarse / fine) / log_ratio
    return math.nan


def run_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Refinement study against the configured exact solution."""
    if config.u_exact is None:
        raise ConfigError("convergence study requires key 'u.exact.expr'")
    try:
        config.u_exact.diff("x"), config.u_exact.diff("y")
    except DifferentiationError as err:
        raise ConfigError(f"key 'u.exact.expr': {err}")
    if config.refinements < 2:
        raise ConfigError(
            "key 'mesh.refinements': need at least 2 levels for orders")
    payload = _payload_base(config, "convergence", CONVERGENCE_COLUMNS)
    meshes = _mesh_or_failure(payload,
                              lambda: config.meshes(config.refinements))
    if meshes is None:
        return _emit(config, payload, [])
    results = _solve_members(lambda mesh: (config.spec, mesh), meshes)
    rows = []
    prev = None
    for level, (mesh, (report, err)) in enumerate(zip(meshes, results)):
        if report is None:
            # the next level then has no order: it needs two solved levels
            payload["failures"].append({"level": level, "reason": str(err)})
            prev = None
            continue
        l2, h1 = l2_h1_errors(report.solution, config.u_exact,
                              report.problem.qctx)
        if prev is None:
            l2_order = h1_order = math.nan
        else:
            ratio = math.log(prev[0] / mesh.h)
            l2_order = _order(prev[1], l2, ratio)
            h1_order = _order(prev[2], h1, ratio)
        rows.append([level, mesh.h, l2, h1, l2_order, h1_order])
        prev = (mesh.h, l2, h1)
    if any(not (row[2] > 0 and row[3] > 0) for row in rows):
        payload["diagnostic_warnings"].append(
            "l2_order/h1_order: nan next to a level whose error is not "
            "positive")
    return _emit(config, payload, rows, results, meshes[0])


P1_COLUMNS = ("p1",) + EpsRecord.COLUMNS


def run_p1_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Continuation per constant exponent in p1.list; fit in the sidecar."""
    if not config.p1_list:
        raise ConfigError("key 'p1.list' is required and must be non-empty")
    payload = _payload_base(config, "sweep-p1", P1_COLUMNS)
    mesh = _mesh_or_failure(payload, config.working_mesh)
    if mesh is None:
        return _emit(config, payload, [])

    def member(p1):
        return config.problem_spec(p=ExponentField.constant(p1)), mesh

    rows = []
    results = _solve_members(member, config.p1_list)
    for p1, (report, err) in zip(config.p1_list, results):
        if report is None:
            payload["failures"].append({"p1": p1, "reason": str(err)})
            continue
        rows.append([p1] + report.final().row())

    def fit_payload(column):
        if len(rows) < 2:
            return {"error": "fewer than 2 successful sweep members"}
        i = P1_COLUMNS.index(column)
        # a nan diagnostic was not measured and a zero one has no logarithm:
        # neither fits nor fails
        fit = [(row[0], row[i]) for row in rows
               if math.isfinite(row[i]) and row[i] > 0]
        if len(fit) < 2:
            return {"error": f"fewer than 2 sweep members with a positive "
                             f"finite {column}"}
        return dataclasses.asdict(regularity.p1_scaling_report(*zip(*fit)))

    payload["scaling_dq"] = fit_payload("h2_dq")
    payload["scaling_recovery"] = fit_payload("h2_recovery")
    return _emit(config, payload, rows, results, mesh)


DOMAIN_COLUMNS = ("radius", "area", "area_deficit", "h2_dq", "h2_recovery",
                  "h1_window_dist")


def run_domain_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Corner-rounding sweep: solve on each rounded domain, compare
    successive solutions on a window interior to all of them."""
    radii = config.radius_list
    if not radii:
        raise ConfigError("key 'radius.list' is required and must be "
                          "non-empty")
    base = ConvexDomain(config.spec.domain.vertices)
    domains = [round_corners(base, r) for r in radii]
    payload = _payload_base(config, "sweep-domain", DOMAIN_COLUMNS)
    # nested domains: the first (most rounded) is contained in all others
    window, err = _attempt(lambda: regularity.default_window(
        domains[0], 2.0 * config.spec.mesh_h))
    if err is None:
        payload["window"] = {"origin": list(window[0]),
                             "spacing": window[1], "nx": window[2],
                             "ny": window[3]}
    else:
        payload["diagnostic_warnings"].append(f"h1_window_dist is nan: {err}")

    def member(dom):
        return config.problem_spec(domain=dom), config.working_mesh(dom)

    results = _solve_members(member, domains)
    rows = []
    prev_solution = None
    for r, dom, (report, err) in zip(radii, domains, results):
        if report is None:
            payload["failures"].append({"radius": r, "reason": str(err)})
            prev_solution = None
            continue
        final = report.final()
        if prev_solution is None or window is None:
            dist = math.nan
        else:
            dist = regularity.h1_window_distance(prev_solution,
                                                 report.solution, window)
        rows.append([r, dom.area, base.area - dom.area, final.h2_dq,
                     final.h2_recovery, dist])
        prev_solution = report.solution
    first_mesh = next((r.mesh for r, _ in results if r is not None), None)
    return _emit(config, payload, rows, results, first_mesh)


IDENTITY_COLUMNS = ("expr", "lhs", "rhs", "abs_err")


def run_identity_check(config: ExperimentConfig) -> ExperimentResult:
    """Curvature identity on the unit disk for each configured test
    function (a built-in trio when identity.exprs is absent)."""
    exprs = list(config.identity_exprs) or list(DEFAULT_IDENTITY_EXPRS)
    payload = _payload_base(config, "check-identity", IDENTITY_COLUMNS)
    results = _map_ordered(lambda src: _attempt(
        lambda: regularity.curvature_identity_check(src)), exprs)
    rows = []
    for src, (rep, err) in zip(exprs, results):
        if rep is None:
            payload["failures"].append(
                {"expr": src, "reason": f"{type(err).__name__}: {err}"})
            continue
        rows.append([src, rep.lhs, rep.rhs, rep.abs_err])
    return _emit(config, payload, rows)
