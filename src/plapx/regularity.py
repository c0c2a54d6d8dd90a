"""Pointwise coefficient fields and discrete regularity diagnostics.

The linearized regularized operator has the coefficient matrix

    a_ij = delta_ij + (p(x) - 2) u_i u_j / v^2,      v = sqrt(eps + |grad u|^2)

whose eigenvalues are 1 and 1 + (p-2)|grad u|^2/v^2, hence the uniform
ellipticity sandwich min(p1-1, 1) <= xi.a.xi <= max(p2-1, 1) for unit xi.
The rest of the module estimates interior second-derivative mass two
independent ways (lattice difference quotients of the recovered gradient,
and element gradients of the recovered gradient), measures the exponent
split used for sources of low integrability, and checks the boundary
curvature identity that drives the convex-domain estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import P1Function
from .expressions import parse_field
from .varexp import (ExponentField, QuadratureContext, field_values,
                     luxemburg_norm, PreconditionError)

__all__ = [
    "CoefficientSample",
    "coefficients",
    "ellipticity_check",
    "EllipticityReport",
    "default_window",
    "h1_window_distance",
    "h2_estimate_dq",
    "h2_estimate_recovery",
    "lp_gradient_norm",
    "split_exponents",
    "integrability_split_report",
    "SplitReport",
    "curvature_identity_check",
    "IdentityReport",
    "p1_scaling_report",
    "ScalingReport",
    "SamplingError",
]


class SamplingError(ValueError):
    pass


@dataclass
class CoefficientSample:
    """The coefficient matrix (a_ij) sampled at a batch of points."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @classmethod
    def from_state(cls, grad, p_vals, eps):
        """Build the coefficients from gradients, exponents and eps
        (vectorized)."""
        grad = np.atleast_2d(np.asarray(grad, dtype=float))
        p_vals = np.asarray(p_vals, dtype=float)
        eps = np.broadcast_to(np.asarray(eps, dtype=float), p_vals.shape)
        if not np.all((eps > 0) & (eps <= 1)):
            raise ValueError("eps must lie in (0, 1]")
        gx, gy = grad[:, 0], grad[:, 1]
        c = (p_vals - 2.0) / (eps + gx * gx + gy * gy)
        return cls(1.0 + c * gx * gx, c * gx * gy, 1.0 + c * gy * gy)

    def __len__(self):
        return len(self.a11)


def coefficients(u: P1Function, p: ExponentField, eps,
                 pts, tri) -> CoefficientSample:
    """Sample the coefficients of the current iterate at the points ``pts``
    of the mesh triangles ``tri``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return CoefficientSample.from_state(u.triangle_gradients()[tri],
                                        field_values(p, pts[:, 0], pts[:, 1]),
                                        eps)


# Slack on both sides of the ellipticity sandwich: the eigenvalues carry a
# few ulps of rounding from a_ij, and 1e-10 is far above that.
ELLIPTICITY_TOL = 1e-10


@dataclass
class EllipticityReport:
    lower: float
    upper: float
    low_margin: float
    high_margin: float
    satisfied: bool
    n_samples: int


def ellipticity_check(sample: CoefficientSample, p1: float,
                      p2: float) -> EllipticityReport:
    """Uniform ellipticity sandwich on the eigenvalues of each sample.

    The symmetric 2x2 matrix (a_ij) has the eigenvalues
    (a11 + a22)/2 -+ hypot((a11 - a22)/2, a12), the extremes of xi.a.xi over
    unit xi.  Checks min(p1-1, 1) - tol <= lambda_min and
    lambda_max <= max(p2-1, 1) + tol at every sample, with tol =
    ``ELLIPTICITY_TOL``; the margins are the smallest gaps over the samples.
    """
    if not (1.0 < p1 <= p2):
        raise ValueError("need 1 < p1 <= p2")
    mean = 0.5 * (sample.a11 + sample.a22)
    radius = np.hypot(0.5 * (sample.a11 - sample.a22), sample.a12)
    lower = min(p1 - 1.0, 1.0)
    upper = max(p2 - 1.0, 1.0)
    low_margin = float(np.min(mean - radius - lower))
    high_margin = float(np.min(upper - (mean + radius)))
    ok = low_margin >= -ELLIPTICITY_TOL and high_margin >= -ELLIPTICITY_TOL
    return EllipticityReport(lower, upper, low_margin, high_margin, ok,
                             len(sample))


def _polygon_centroid(poly):
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def default_window(domain, spacing):
    """Largest centered axis-aligned lattice window with an interior margin
    of two lattice spacings.  Returns (origin, spacing, nx, ny).

    If the requested spacing leaves no room for at least a 3x3 lattice the
    spacing is halved (at most four times) before giving up; the returned
    spacing is the one actually used.
    """
    c = _polygon_centroid(domain.polyline)
    lo, hi = domain.bounding_box()
    half = 0.5 * (hi - lo)
    corners_dir = np.array([(-1, -1), (-1, 1), (1, -1), (1, 1)], dtype=float)

    def max_extent(req_margin):
        def fits(alpha):
            pts = c + alpha * corners_dir * half
            return bool(np.all(domain.line_distance(pts) >= req_margin))

        if not fits(1e-6):
            return None
        lo_a, hi_a = 1e-6, 1.0
        for _ in range(48):
            mid = 0.5 * (lo_a + hi_a)
            if fits(mid):
                lo_a = mid
            else:
                hi_a = mid
        return lo_a * half

    s = float(spacing)
    for _ in range(5):
        ext = max_extent(2.0 * s)
        if ext is not None:
            nx = int(math.floor(2.0 * ext[0] / s)) + 1
            ny = int(math.floor(2.0 * ext[1] / s)) + 1
            if nx >= 3 and ny >= 3:
                origin = (c[0] - 0.5 * (nx - 1) * s,
                          c[1] - 0.5 * (ny - 1) * s)
                return origin, s, nx, ny
        s *= 0.5
    raise SamplingError(
        f"no lattice window with margin fits inside the domain "
        f"(requested spacing {spacing:.3g})")


def h2_estimate_dq(u: P1Function, window) -> float:
    """Interior H2 seminorm estimate: l2 lattice norm of the forward
    difference quotients of the recovered gradient components.

    The components are sampled on the lattice ``window`` through the
    location of its points cached on the mesh.  A spacing below the mesh
    size under-resolves the quotients; :class:`~plapx.solver.SolveReport`
    warns of that once per report.
    """
    spacing = window[1]
    total = 0.0
    for comp in u.recovered_gradient():
        vals = comp.lattice_values(window)
        for axis in (0, 1):
            total += float(np.sum((np.diff(vals, axis=axis) / spacing) ** 2))
    return math.sqrt(spacing * spacing * total)


def h1_window_distance(ua: P1Function, ub: P1Function, window) -> float:
    """Discrete H1 distance between two solutions on a lattice window.

    The solutions may live on different meshes; both are sampled (values
    and recovered gradients) on the same lattice, which must lie inside
    both domains.
    """
    spacing = window[1]
    total = 0.0
    for fa, fb in ((ua, ub),
                   *zip(ua.recovered_gradient(), ub.recovered_gradient())):
        total += float(np.sum((fa.lattice_values(window)
                               - fb.lattice_values(window)) ** 2))
    return math.sqrt(spacing * spacing * total)


def h2_estimate_recovery(u: P1Function) -> float:
    """Global H2 seminorm estimate: L2 norm of the element gradients of the
    recovered gradient components."""
    mesh = u.mesh
    total = 0.0
    for comp in u.recovered_gradient():
        g = comp.triangle_gradients()
        total += float(np.sum(mesh.areas * np.einsum("td,td->t", g, g)))
    return math.sqrt(total)


def lp_gradient_norm(u: P1Function, p: ExponentField,
                     qctx: QuadratureContext) -> float:
    """Luxemburg norm of |grad u| with the variable exponent."""
    g = u.triangle_gradients()
    gn = np.hypot(g[:, 0], g[:, 1])
    vals = np.broadcast_to(gn[:, None], qctx.weights.shape)
    return luxemburg_norm(vals, p, qctx)


def split_exponents(p_vals, q_vals):
    """Pointwise split exponents on the region where p < 2.

    Returns (f_exponent, weight_exponent, growth_exponent): the Hoelder
    exponent applied to the source, its conjugate partner applied to the
    degenerate weight, and the resulting growth exponent of the weight.
    """
    p_vals = np.asarray(p_vals, dtype=float)
    q_vals = np.asarray(q_vals, dtype=float)
    if np.any(p_vals >= 2.0):
        raise ValueError("split exponents are defined only where p < 2")
    if np.any(q_vals <= 2.0):
        raise ValueError("the integrability exponent must exceed 2")
    branch1 = p_vals >= 1.0 / q_vals + 1.5
    f_exp = np.where(branch1, 1.0 / (2.0 * p_vals - 3.0) + 1.0,
                     0.5 * q_vals + 1.0)
    w_exp = 2.0 * f_exp / (f_exp - 2.0)
    growth = w_exp * (2.0 - p_vals)
    return f_exp, w_exp, growth


@dataclass
class SplitReport:
    vacuous: bool
    meas_A2: float
    q1: float
    q2: float
    f_exponent_range: tuple
    weight_exponent_range: tuple
    growth_range: tuple
    band: tuple
    band_satisfied: bool
    conjugate_defect: float
    direct: float
    split_f: float
    split_weight: float
    split: float
    holder_satisfied: bool


def integrability_split_report(u: P1Function, p: ExponentField, f,
                               q: ExponentField, eps: float,
                               qctx: QuadratureContext) -> SplitReport:
    """Compare the direct weighted-source L2 norm on {p < 2} against the
    Hoelder-split bound 2 |f|_(f_exp) |v^(2-p)|_(w_exp)."""
    x, y = qctx.x, qctx.y
    pv = field_values(p, x, y)
    qv = field_values(q, x, y)
    mask = (pv < 2.0).astype(float)
    meas = float(np.sum(qctx.weights * mask))
    if meas == 0.0:
        return SplitReport(True, 0.0, math.nan, math.nan,
                           (math.nan, math.nan), (math.nan, math.nan),
                           (math.nan, math.nan), (math.nan, math.nan), True,
                           0.0, 0.0, 0.0, 0.0, 0.0, True)
    sel = mask > 0
    q1 = float(np.min(qv[sel]))
    q2 = float(np.max(qv[sel]))
    if q1 <= 2.0:
        raise PreconditionError(
            f"integrability exponent must exceed 2 on the degenerate region, "
            f"found {q1}")

    f_exp = np.full_like(pv, 4.0)
    w_exp = np.full_like(pv, 4.0)
    growth = np.full_like(pv, 0.0)
    fe, we, gr = split_exponents(pv[sel], qv[sel])
    f_exp[sel], w_exp[sel], growth[sel] = fe, we, gr

    band_low = 1.0 + 2.0 / q2
    band_high = max(2.0, 2.0 + 8.0 / (q1 - 2.0))
    band_ok = bool(np.all((gr >= band_low - 1e-12)
                          & (gr <= band_high + 1e-12)))
    conj = float(np.max(np.abs(2.0 / fe + 2.0 / we - 1.0)))

    g = u.triangle_gradients()
    gn2 = np.einsum("td,td->t", g, g)
    v = np.sqrt(gn2[:, None] + eps)
    v = np.broadcast_to(v, qctx.weights.shape)
    fv = field_values(f, x, y)
    weight = v ** (2.0 - pv)

    two = ExponentField.constant(2.0)
    direct = luxemburg_norm(fv * weight, two, qctx, mask=mask)
    split_f = luxemburg_norm(fv, f_exp, qctx, mask=mask)
    split_w = luxemburg_norm(weight, w_exp, qctx, mask=mask)
    split = split_f * split_w
    return SplitReport(
        vacuous=False, meas_A2=meas, q1=q1, q2=q2,
        f_exponent_range=(float(np.min(fe)), float(np.max(fe))),
        weight_exponent_range=(float(np.min(we)), float(np.max(we))),
        growth_range=(float(np.min(gr)), float(np.max(gr))),
        band=(band_low, band_high), band_satisfied=band_ok,
        conjugate_defect=conj, direct=direct, split_f=split_f,
        split_weight=split_w, split=split,
        holder_satisfied=bool(direct <= 2.0 * split + 1e-9))


@dataclass
class IdentityReport:
    lhs: float
    rhs: float
    abs_err: float


def curvature_identity_check(u) -> IdentityReport:
    """Determinant-of-Hessian identity on the unit disk.

    For u vanishing on the unit circle,

        integral over the disk of (u_xy^2 - u_xx u_yy)
            = - integral over the circle of (du/dnu)^2 * (H/2),  H = 1.

    Both sides are evaluated with polar quadrature (96 Gauss-Legendre nodes
    radially, 512 uniform in angle); u must vanish on the boundary to 1e-10.
    """
    if isinstance(u, str):
        u = parse_field(u)
    th_check = 2.0 * np.pi * np.arange(4096) / 4096
    bvals = u.evaluate(np.cos(th_check), np.sin(th_check))
    worst = int(np.argmax(np.abs(bvals)))
    if np.abs(bvals[worst]) > 1e-10:
        raise PreconditionError(
            f"u does not vanish on the unit circle: |u| = "
            f"{np.abs(bvals[worst]):.3e}",
            math.cos(th_check[worst]), math.sin(th_check[worst]))

    ux = u.diff("x")
    uy = u.diff("y")
    uxx = ux.diff("x")
    uxy = ux.diff("y")
    uyy = uy.diff("y")

    nodes, wts = np.polynomial.legendre.leggauss(96)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * wts
    th = 2.0 * np.pi * np.arange(512) / 512
    wt = 2.0 * np.pi / 512
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = R * np.cos(TH)
    Y = R * np.sin(TH)
    det = uxy.evaluate(X, Y) ** 2 - uxx.evaluate(X, Y) * uyy.evaluate(X, Y)
    lhs = float(np.sum(wr[:, None] * wt * det * R))

    cx, sy = np.cos(th), np.sin(th)
    dnu = ux.evaluate(cx, sy) * cx + uy.evaluate(cx, sy) * sy
    rhs = -0.5 * float(np.sum(wt * dnu ** 2))
    return IdentityReport(lhs, rhs, abs(lhs - rhs))


@dataclass
class ScalingReport:
    slope: float
    intercept: float
    kappa: float
    bound: float
    within_bound: bool
    degenerate: bool
    warning: str = ""


# The kappa of the growth-exponent ceiling kappa + 0.5: 1 on convex polygons.
SCALING_KAPPA = 1.0


def p1_scaling_report(p1_values, h2_values) -> ScalingReport:
    """Least-squares slope of log(h2) against log(1/(p1 - 1)).

    The growth-exponent ceiling is SCALING_KAPPA + 0.5.  A sweep with no
    spread in p1 is degenerate: slope 0 plus a warning, never a fit.
    """
    p1_values = np.asarray(p1_values, dtype=float)
    h2_values = np.asarray(h2_values, dtype=float)
    if len(p1_values) != len(h2_values) or len(p1_values) < 2:
        raise ValueError("need matching lists with at least 2 sweep members")
    if np.any(p1_values <= 1.0):
        raise ValueError("p1 values must exceed 1")
    if not np.all(np.isfinite(h2_values) & (h2_values > 0.0)):
        raise ValueError("H2 estimates must be finite and positive")
    x = np.log(1.0 / (p1_values - 1.0))
    y = np.log(h2_values)
    bound = SCALING_KAPPA + 0.5
    if np.max(x) - np.min(x) < 1e-12:
        return ScalingReport(0.0, float(np.mean(y)), SCALING_KAPPA, bound,
                             True, True, "degenerate sweep: no spread in p1")
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingReport(float(slope), float(intercept), SCALING_KAPPA,
                         bound, bool(slope <= bound + 1e-12), False)
