"""Config-driven experiment runs with CSV/JSON emission.

A config is a flat UTF-8 text file of ``section.key = value`` lines with
``#`` comments.  Field inputs (p, f, g, q, exact solutions, identity test
functions) are expression strings over x and y.  Every run writes a CSV
whose float cells are ``repr`` round-trips (byte-identical reruns with one
thread) and a JSON sidecar holding the resolved config, the package
version, and run-specific extras (validation warnings, ellipticity audit,
scaling fits, failures).
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
from .expressions import DifferentiationError, FieldSyntaxError, parse_field
from .geometry import (ConvexDomain, GeometryError, ParameterError,
                       refine_uniform, round_corners, triangulate_convex)
from .solver import SOLVE_ERRORS, EpsRecord, ProblemSpec, continuation_solve
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
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
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


def _get_float(raw, key):
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"key '{key}': not a number ({raw[key]!r})")


def _get_int(raw, key):
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"key '{key}': not an integer ({raw[key]!r})")


def _get_expr(raw, key):
    try:
        return parse_field(raw[key])
    except FieldSyntaxError as err:
        raise ConfigError(f"key '{key}': {err}")


def _get_floats(raw, key):
    """The comma-separated numbers of an optional key ([] when absent)."""
    out = []
    for piece in raw.get(key, "").split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise ConfigError(f"key '{key}': bad entry {piece!r}")
    return out


def _parse_vertices(raw):
    pts = []
    for pair in raw["domain.vertices"].split(";"):
        pair = pair.strip()
        if not pair:
            continue
        halves = pair.split(",")
        if len(halves) != 2:
            raise ConfigError(
                f"key 'domain.vertices': expected 'x,y' pairs, got {pair!r}")
        try:
            pts.append((float(halves[0]), float(halves[1])))
        except ValueError:
            raise ConfigError(
                f"key 'domain.vertices': bad coordinate in {pair!r}")
    if len(pts) < 3:
        raise ConfigError("key 'domain.vertices': need at least 3 vertices")
    return pts


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
        verts = _parse_vertices(raw)
        radius = _get_float(raw, "domain.corner_radius")
        if not radius >= 0:
            raise ConfigError("key 'domain.corner_radius': must be >= 0")
        domain = ConvexDomain(verts, corner_radius=radius)
        p_expr = _get_expr(raw, "p.expr")
        q_expr = _get_expr(raw, "q.expr")
        refinements = _get_int(raw, "mesh.refinements")
        if refinements < 0:
            raise ConfigError("key 'mesh.refinements': must be >= 0")
        seed = _get_int(raw, "seed")
        spec_values = dict(
            domain=domain,
            p=ExponentField.from_expression(p_expr, domain),
            f=_get_expr(raw, "f.expr"),
            g=_get_expr(raw, "g.expr"),
            q=ExponentField.from_expression(q_expr, domain),
            eps_start=_get_float(raw, "eps.start"),
            eps_stop=_get_float(raw, "eps.stop"),
            eps_factor=_get_float(raw, "eps.factor"),
            mesh_h=_get_float(raw, "mesh.h"),
            newton_tol=_get_float(raw, "newton.tol"),
            newton_max_iter=_get_int(raw, "newton.max_iter"),
            seed=seed,
        )
        u_exact = None
        if "u.exact.expr" in raw:
            u_exact = _get_expr(raw, "u.exact.expr")
        p1_list = _get_floats(raw, "p1.list")
        if any(not v > 1.0 for v in p1_list):
            raise ConfigError("key 'p1.list': exponents must exceed 1")
        radius_list = _get_floats(raw, "radius.list")
        if any(not r > 0 for r in radius_list):
            raise ConfigError("key 'radius.list': radii must be positive")
        if any(not b < a for a, b in zip(radius_list, radius_list[1:])):
            raise ConfigError("key 'radius.list': radii must be strictly "
                              "decreasing")
        for r in radius_list[:1]:  # the largest: if it rounds, all do
            try:
                round_corners(ConvexDomain(verts), r)
            except ParameterError as err:
                raise ConfigError(f"key 'radius.list': {err}")
        identity_exprs = []
        for piece in raw.get("identity.exprs", "").split(";"):
            piece = piece.strip()
            if piece:
                try:
                    parse_field(piece)
                except FieldSyntaxError as err:
                    raise ConfigError(f"key 'identity.exprs': {err}")
                identity_exprs.append(piece)
        try:
            spec = ProblemSpec(**spec_values)
        except ValueError as err:
            raise ConfigError(str(err))
        return cls(raw=raw, spec=spec, refinements=refinements,
                   output_path=raw["output.path"], u_exact=u_exact,
                   p1_list=p1_list, radius_list=radius_list,
                   identity_exprs=identity_exprs)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def problem_spec(self, **overrides) -> ProblemSpec:
        """A copy of the configured spec with ``overrides`` such as ``p=``
        or ``domain=``."""
        return dataclasses.replace(self.spec, **overrides)

    def base_mesh(self, domain=None):
        spec = self.spec
        return triangulate_convex(spec.domain if domain is None else domain,
                                  spec.mesh_h)

    def working_mesh(self, domain=None):
        mesh = self.base_mesh(domain)
        for _ in range(self.refinements):
            mesh = refine_uniform(mesh)
        return mesh


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
    solution: object = None

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
        "failures": [],
    }


_RECORDED_ERRORS = SOLVE_ERRORS + (GeometryError,)


def _solve(build):
    """One continuation solve of the (spec, mesh) that ``build()`` returns:
    (report, None), or (None, error) when meshing or the solve fails in a
    way a run records and survives."""
    try:
        return continuation_solve(*build()), None
    except _RECORDED_ERRORS as err:
        return None, err


def _mesh_or_failure(payload, build):
    """The mesh ``build()`` returns, or None with its :class:`GeometryError`
    entered in the payload's failures."""
    try:
        return build()
    except GeometryError as err:
        payload["failures"].append({"mesh": str(err)})
        return None


def _record_warnings(payload, results):
    """Each validation warning of the (report, error) ``results`` enters the
    payload once, in order; returns ``results``."""
    warnings = [w for report, err in results
                for w in getattr(report or err, "warnings", ())]
    payload["validation_warnings"] = list(dict.fromkeys(warnings))
    return results


def _solve_members(payload, member, items):
    """Build and solve the (spec, mesh) ``member(item)`` of each item,
    possibly in threads: (report, None) or (None, error) per item, in
    order."""
    return _record_warnings(payload, _map_ordered(
        lambda item: _solve(lambda: member(item)), items))


def _emit(config, command, columns, rows, payload, mesh=None, solution=None):
    csv_path = config.output_path
    sidecar_path = csv_path + ".json"
    write_csv(csv_path, columns, rows)
    write_sidecar(sidecar_path, payload)
    return ExperimentResult(command, tuple(columns), rows, csv_path,
                            sidecar_path, payload, mesh, solution)


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
    """Post-hoc coefficient audit at uniform random points of the mesh
    (config seed)."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    pts, tri = _sample_mesh_points(u.mesh, 2000, rng)
    sample = regularity.coefficients(u, spec.p, spec.f, eps, pts, tri)
    return dataclasses.asdict(regularity.ellipticity_check(
        sample, spec.p.p1, spec.p.p2, trials=4, seed=spec.seed))


def _run_continuation(config: ExperimentConfig, command, final_only):
    """Continuation solve; on failure the records that finished (plus the
    failed one) are kept and the failure goes to the sidecar."""
    spec = config.spec
    payload = _payload_base(config, command, EpsRecord.COLUMNS)
    mesh = _mesh_or_failure(payload, config.working_mesh)
    if mesh is None:
        return _emit(config, command, EpsRecord.COLUMNS, [], payload)
    [(report, err)] = _record_warnings(payload, [_solve(lambda: (spec, mesh))])
    if report is None:
        records, solution = err.records, None
        payload["failures"] = [{"eps": err.failed_eps, "reason": str(err)}]
    else:
        records, solution = report.records, report.solution
    rows = [r.row() for r in (records[-1:] if final_only else records)]
    if solution is not None:
        try:
            payload["ellipticity_audit"] = _ellipticity_audit(
                solution, spec, spec.eps_stop)
        except _RECORDED_ERRORS as err:
            payload["failures"].append({"audit": str(err)})
    payload["mesh"] = {"n_points": mesh.n_points,
                       "n_triangles": mesh.n_triangles, "h": mesh.h}
    return _emit(config, command, EpsRecord.COLUMNS, rows, payload, mesh,
                 solution)


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
    spec = config.spec
    payload = _payload_base(config, "convergence", CONVERGENCE_COLUMNS)

    def levels():
        meshes = [config.base_mesh()]
        while len(meshes) < config.refinements:
            meshes.append(refine_uniform(meshes[-1]))
        return meshes

    meshes = _mesh_or_failure(payload, levels)
    if meshes is None:
        return _emit(config, "convergence", CONVERGENCE_COLUMNS, [], payload)
    results = _solve_members(payload, lambda mesh: (spec, mesh), meshes)
    rows = []
    prev = None
    solution = None
    for level, (mesh, (report, err)) in enumerate(zip(meshes, results)):
        if report is None:
            # the next level then has no order: it needs two solved levels
            payload["failures"].append({"level": level, "reason": str(err)})
            prev = None
            continue
        solution = report.solution
        l2, h1 = l2_h1_errors(solution, config.u_exact)
        if prev is None:
            l2_order = h1_order = math.nan
        else:
            ratio = math.log(prev[0] / mesh.h)
            l2_order = math.log(prev[1] / l2) / ratio
            h1_order = math.log(prev[2] / h1) / ratio
        rows.append([level, mesh.h, l2, h1, l2_order, h1_order])
        prev = (mesh.h, l2, h1)
    return _emit(config, "convergence", CONVERGENCE_COLUMNS, rows, payload,
                 meshes[0], solution)


P1_COLUMNS = ("p1",) + EpsRecord.COLUMNS


def run_p1_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Continuation per constant exponent in p1.list; fit in the sidecar."""
    if not config.p1_list:
        raise ConfigError("key 'p1.list' is required and must be non-empty")
    payload = _payload_base(config, "sweep-p1", P1_COLUMNS)
    mesh = _mesh_or_failure(payload, config.working_mesh)
    if mesh is None:
        return _emit(config, "sweep-p1", P1_COLUMNS, [], payload)

    def member(p1):
        return config.problem_spec(p=ExponentField.constant(p1)), mesh

    rows = []
    fit_p1, fit_dq, fit_rec = [], [], []
    results = _solve_members(payload, member, config.p1_list)
    for p1, (report, err) in zip(config.p1_list, results):
        if report is None:
            payload["failures"].append({"p1": p1, "reason": str(err)})
            continue
        final = report.final()
        rows.append([p1] + final.row())
        fit_p1.append(p1)
        fit_dq.append(final.h2_dq)
        fit_rec.append(final.h2_recovery)

    def fit_payload(values):
        if len(fit_p1) < 2:
            return {"error": "fewer than 2 successful sweep members"}
        return dataclasses.asdict(regularity.p1_scaling_report(fit_p1,
                                                               values))

    payload["scaling_dq"] = fit_payload(fit_dq)
    payload["scaling_recovery"] = fit_payload(fit_rec)
    return _emit(config, "sweep-p1", P1_COLUMNS, rows, payload, mesh)


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
    try:
        window = regularity.default_window(domains[0],
                                           2.0 * config.spec.mesh_h)
    except regularity.SamplingError as err:
        payload["failures"].append({"window": str(err)})
        return _emit(config, "sweep-domain", DOMAIN_COLUMNS, [], payload)
    payload["window"] = {"origin": list(window[0]), "spacing": window[1],
                         "nx": window[2], "ny": window[3]}

    def member(dom):
        return config.problem_spec(domain=dom), config.working_mesh(dom)

    results = _solve_members(payload, member, domains)
    rows = []
    first_mesh = None
    prev_solution = None
    for r, dom, (report, err) in zip(radii, domains, results):
        if report is None:
            payload["failures"].append({"radius": r, "reason": str(err)})
            prev_solution = None
            continue
        if first_mesh is None:
            first_mesh = report.mesh
        final = report.final()
        if prev_solution is None:
            dist = math.nan
        else:
            dist = regularity.h1_window_distance(prev_solution,
                                                 report.solution, window)
        rows.append([r, dom.area, base.area - dom.area, final.h2_dq,
                     final.h2_recovery, dist])
        prev_solution = report.solution
    return _emit(config, "sweep-domain", DOMAIN_COLUMNS, rows, payload,
                 first_mesh)


IDENTITY_COLUMNS = ("expr", "lhs", "rhs", "abs_err")


def run_identity_check(config: ExperimentConfig) -> ExperimentResult:
    """Curvature identity on the unit disk for each configured test
    function (a built-in trio when identity.exprs is absent)."""
    exprs = list(config.identity_exprs) or list(DEFAULT_IDENTITY_EXPRS)
    payload = _payload_base(config, "check-identity", IDENTITY_COLUMNS)

    def member(src):
        try:
            rep = regularity.curvature_identity_check(src)
        except Exception as err:  # noqa: BLE001 - recorded, not swallowed
            return src, None, f"{type(err).__name__}: {err}"
        return src, rep, None

    rows = []
    for src, rep, reason in _map_ordered(member, exprs):
        if rep is None:
            payload["failures"].append({"expr": src, "reason": reason})
            continue
        rows.append([src, rep.lhs, rep.rhs, rep.abs_err])
    return _emit(config, "check-identity", IDENTITY_COLUMNS, rows, payload)
