"""Variable-exponent Lebesgue machinery on triangulated domains.

The modular is rho(u) = integral of |u(x)|^p(x); the Luxemburg norm is the
unique k > 0 with rho(u/k) = 1, found by safeguarded Newton iteration in
log k.  Integrals are quadrature sums over a :class:`QuadratureContext`
(the symmetric degree-4 triangle rule), so every norm here is the
norm of the quadrature measure, consistent across all modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import (DifferentiationError, FieldEvaluationError,
                          parse_field)

__all__ = [
    "QuadratureContext",
    "ExponentField",
    "modular",
    "luxemburg_norm",
    "holder_check",
    "HolderCheck",
    "mollify_exponent",
    "field_values",
    "EvaluationError",
    "PreconditionError",
    "NonconvergenceError",
]


class EvaluationError(FieldEvaluationError):
    """Non-finite field value at a quadrature point."""


class PreconditionError(ValueError):
    def __init__(self, message, x=None, y=None):
        if x is not None:
            message = f"{message}; worst point ({x:.17g}, {y:.17g})"
        super().__init__(message)
        self.point = None if x is None else (x, y)


class NonconvergenceError(RuntimeError):
    pass


# Symmetric 6-point triangle rule, exact through degree 4 (weights in
# barycentric form, normalized to the reference-triangle area 1/2).
_D4_A = 0.445948490915965
_D4_B = 0.091576213509771
_D4_W1 = 0.223381589678011
_D4_W2 = 0.109951743655322


def _degree4_rule():
    a, b = _D4_A, _D4_B
    pts = np.array([
        [a, a, 1.0 - 2.0 * a],
        [a, 1.0 - 2.0 * a, a],
        [1.0 - 2.0 * a, a, a],
        [b, b, 1.0 - 2.0 * b],
        [b, 1.0 - 2.0 * b, b],
        [1.0 - 2.0 * b, b, b],
    ])
    w = 0.5 * np.array([_D4_W1] * 3 + [_D4_W2] * 3)
    return pts, w


class QuadratureContext:
    """The degree-4 quadrature rule on a whole mesh: ``mesh``, the nodes'
    barycentric coordinates ``bary`` and the ``weights``, nothing else.

    ``weights`` has shape (triangles, nodes); weights are positive and sum
    to the mesh area.  The node coordinates are not kept: ``x`` and ``y``
    (triangles, nodes) form them from ``bary`` and the triangle corners on
    each read, with the bits of ``einsum("qi,tid->tqd", bary, corners)``,
    so every read gives the same bits.  Only a field that is not an array
    of node values needs them.
    """

    def __init__(self, mesh):
        bary, ref_w = _degree4_rule()
        self.mesh = mesh
        self.bary = bary
        self.weights = 2.0 * mesh.areas[:, None] * ref_w[None, :]
        self.weights.setflags(write=False)

    def _coordinate(self, d, t=slice(None)):
        """Coordinate d of the nodes of triangles t: the corners weighted
        by ``bary``, summed over the corners in order as einsum does."""
        c = self.mesh.points[self.mesh.triangles[t], d][..., None]
        b = self.bary
        return (b[:, 0] * c[..., 0, :] + b[:, 1] * c[..., 1, :]
                + b[:, 2] * c[..., 2, :])

    @property
    def x(self):
        return self._coordinate(0)

    @property
    def y(self):
        return self._coordinate(1)

    def node(self, index):
        """(x, y) of the one node ``index`` = (triangle, node)."""
        t, q = index
        return float(self._coordinate(0, t)[q]), float(
            self._coordinate(1, t)[q])

    def values(self, f):
        """f at the nodes, as :func:`field_values` gives it.  For an array
        of node values or a number, field_values reads only the shape of
        the nodes, which the weights have; any other field is evaluated at
        node coordinates formed for this call."""
        if isinstance(f, (np.ndarray, int, float)):
            return field_values(f, self.weights, None)
        return field_values(f, self.x, self.y)


def field_values(f, x, y):
    """Values of a field object at coordinate arrays.

    Accepts expression ASTs, ExponentFields, anything with an ``evaluate``
    method, plain callables, numbers, or a ready-made ndarray of matching
    shape.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(f, np.ndarray):
        if f.shape != x.shape:
            raise ValueError(
                f"value array shape {f.shape} does not match points {x.shape}")
        return f.astype(float, copy=False)
    if isinstance(f, ExponentField):
        return field_values(f.field, x, y)
    if isinstance(f, (int, float)):
        return np.full(x.shape, float(f))
    if hasattr(f, "evaluate"):
        vals = f.evaluate(x, y)
    elif callable(f):
        vals = f(x, y)
    else:
        raise TypeError(f"cannot evaluate field of type {type(f).__name__}")
    return np.broadcast_to(np.asarray(vals, dtype=float), x.shape)


def _check_finite(vals, qctx, what):
    """Raise an :class:`EvaluationError` naming the first node (triangle,
    node) of ``vals`` that is not finite."""
    if not np.isfinite(vals).all():
        raise EvaluationError(f"non-finite {what} value", *qctx.node(
            np.argwhere(~np.isfinite(vals))[0]))


@dataclass
class ExponentField:
    """An exponent p(x) together with certified or sampled bounds.

    ``p1``/``p2`` bound the essential range and ``lip`` the Lipschitz
    constant.  Bounds passed explicitly are taken as exact; bounds from
    :meth:`from_expression` are dense-sampling estimates.
    """

    field: object
    p1: float
    p2: float
    lip: float
    domain: object = None

    def __post_init__(self):
        if not (np.isfinite(self.p1) and np.isfinite(self.p2)
                and np.isfinite(self.lip)):
            raise ValueError("exponent bounds must be finite")
        if self.p1 < 1.0:
            raise ValueError(f"exponent lower bound {self.p1} is below 1")
        if self.p1 > self.p2:
            raise ValueError("p1 must not exceed p2")
        if self.lip < 0:
            raise ValueError("Lipschitz bound must be >= 0")

    @classmethod
    def constant(cls, value):
        return cls(parse_field(repr(float(value))), float(value),
                   float(value), 0.0)

    @classmethod
    def from_expression(cls, expr, domain):
        """Estimate p1, p2 and lip by dense sampling inside the domain."""
        if isinstance(expr, str):
            expr = parse_field(expr)
        from .expressions import Num
        if isinstance(expr, Num):
            return cls(expr, expr.value, expr.value, 0.0, domain=domain)
        lo, hi = domain.bounding_box()
        n = 128
        while True:
            gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n),
                                 np.linspace(lo[1], hi[1], n))
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            inside = domain.contains(pts)
            if inside.sum() >= 10000 or n >= 1024:
                break
            n *= 2
        xs, ys = pts[inside, 0], pts[inside, 1]
        # a value or gradient sample that overflows is refused as not
        # finite, here or by the bound checks, so numpy's warning about it
        # would only repeat that
        with np.errstate(all="ignore"):
            vals = field_values(expr, xs, ys)
            if not np.all(np.isfinite(vals)):
                raise EvaluationError("exponent not finite on the domain")
            try:
                px, py = (field_values(expr.diff(v), xs, ys) for v in "xy")
            except DifferentiationError:
                h = 1e-6 * max(1.0, float(np.max(hi - lo)))
                px, py = _central_gradient(expr, xs, ys, h)
            lip = float(np.max(np.hypot(px, py)))
        return cls(expr, float(vals.min()), float(vals.max()), lip,
                   domain=domain)

    def evaluate(self, x, y):
        return field_values(self.field, np.asarray(x, float),
                            np.asarray(y, float))


def _central_gradient(f, x, y, h):
    """Central-difference gradient of a field, step h."""
    return ((field_values(f, x + h, y) - field_values(f, x - h, y)) / (2 * h),
            (field_values(f, x, y + h) - field_values(f, x, y - h)) / (2 * h))


def _integrand(u, p, qctx, mask):
    """|u| and p at the quadrature nodes, and the (masked) weights."""
    vals = np.abs(qctx.values(u))
    _check_finite(vals, qctx, "integrand")
    pv = qctx.values(p)
    _check_finite(pv, qctx, "exponent")
    if mask is None:
        return vals, pv, qctx.weights
    w = qctx.weights * mask
    # points outside the mask must not poison the sum via 0 * inf
    return np.where(w > 0, vals, 0.0), pv, w


def modular(u, p: ExponentField, qctx: QuadratureContext, mask=None):
    """rho(u) = integral of |u|^p(x) over the mesh (quadrature sum)."""
    vals, pv, w = _integrand(u, p, qctx, mask)
    with np.errstate(over="ignore"):
        return float(np.sum(w * vals ** pv))


def luxemburg_norm(u, p: ExponentField, qctx: QuadratureContext, mask=None):
    """Luxemburg norm: the k > 0 with rho(u/k) = 1, by safeguarded Newton.

    Returns 0 for a function vanishing at every quadrature node.  Newton
    runs in s = log k on psi(s) = log rho(u/e^s), which is convex and
    decreasing: its slope is minus the mean of p weighted by w |u/k|^p, so
    one step is exact for a constant exponent, a step from the right of the
    root lands left of it, and from any start left of the root the iterates
    rise monotonically to it.  The root lies in the bracket
    [|u|_L1/(1+|Omega|), +inf).  Newton starts at the mean of |u|, which is
    inside it and for p near 2 near the root; every evaluation narrows the
    bracket, and a step that leaves it (or is not finite, when rho over- or
    underflows) is replaced by bisection, or by doubling k while the
    bracket is unbounded.  Stops once a Newton step moves k by at most
    1e-10 relative; convergence is quadratic, so the step returned is far
    more accurate than that.
    """
    vals, pv, w = _integrand(u, p, qctx, mask)
    if not np.any((vals > 0) & (w > 0)):
        return 0.0

    l1 = float(np.vdot(w, vals))
    omega = float(np.sum(w))
    # a floor keeps log finite when every product w |u| underflows
    tiny = np.finfo(float).tiny
    lo = math.log(max(l1 / (1.0 + omega), tiny))
    hi = math.inf
    s = max(lo, math.log(max(l1 / omega, tiny)))
    for _ in range(200):
        psi, mean_p = _log_modular(vals, pv, w, s)
        if psi >= 0.0:
            lo = s
        else:
            hi = s
        if hi <= lo:
            # cannot happen for a monotone modular, guard anyway
            raise NonconvergenceError("Luxemburg bracket is empty")
        new = s + psi / mean_p
        if abs(new - s) <= 1e-10:
            return math.exp(new)
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else s + math.log(2.0)
        s = new
    if hi == math.inf:
        raise NonconvergenceError("Luxemburg bracket expansion failed")
    raise NonconvergenceError("Luxemburg iteration did not converge")


def _log_modular(vals, pv, w, s):
    """One modular evaluation of :func:`luxemburg_norm`: psi = log rho(u /
    e^s) (-inf when rho is 0) and the mean of p weighted by the terms of
    rho (nan when rho is 0)."""
    # the terms w |u / e^s|^p, formed in one array
    t = vals / math.exp(s)
    with np.errstate(over="ignore"):
        np.power(t, pv, out=t)
        t *= w
        rho = float(np.sum(t))
        mean_p = float(np.vdot(pv, t)) / rho if rho > 0 else math.nan
    return (math.log(rho) if rho > 0 else -math.inf), mean_p


@dataclass
class HolderCheck:
    lhs: float
    rhs: float
    satisfied: bool


def holder_check(f, g, p: ExponentField, q: ExponentField, s: ExponentField,
                 qctx: QuadratureContext) -> HolderCheck:
    """Check |fg|_s <= 2 |f|_p |g|_q for conjugate-split exponents.

    Requires 1/p + 1/q = 1/s pointwise (to 1e-12) at the quadrature nodes.
    """
    pv, qv, sv = (qctx.values(e) for e in (p, q, s))
    err = np.abs(1.0 / pv + 1.0 / qv - 1.0 / sv)
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] > 1e-12:
        raise PreconditionError(
            f"exponents are not conjugate: |1/p + 1/q - 1/s| = "
            f"{err[worst]:.3e}", *qctx.node(worst))
    fv, gv = qctx.values(f), qctx.values(g)
    lhs = luxemburg_norm(fv * gv, s, qctx)
    rhs = 2.0 * luxemburg_norm(fv, p, qctx) * luxemburg_norm(gv, q, qctx)
    return HolderCheck(lhs, rhs, bool(lhs <= rhs + 1e-9))


# (point, offset) pairs the mollifier handles at once.  A batch holds their
# shifted coordinates, projections and base values, so the bound is one on
# memory: on the h = 0.1 benchmark solve (303,408 pairs), unbounded batches
# raised the peak RSS by 8-9 MB, batches of 65,536 pairs by 3 MB and
# batches of 16,384 by under 1 MB.
MOLLIFY_BATCH_PAIRS = 16384


class _MollifiedField:
    """Mollification of an exponent extended constantly outside the domain.

    The mollifier is the standard bump supported on the delta-ball; its
    quadrature weights are normalized to sum to one, so constants are
    reproduced exactly and both the sup-distance and Lipschitz guarantees
    survive discretization.

    Projection is the identity on the domain, so only the (point, offset)
    pairs that a conservative test cannot keep inside are projected.  The
    signed distance to an edge line is linear: shifting a point by -o
    lowers its distance to edge line e by n_e . o (n_e the inward unit
    normal).  An edge line at least the largest offset's reach away (its
    length plus a roundoff margin) cannot be crossed, so each point keeps
    only its near edge lines, and a point with none is never projected.  A
    pair whose least clearance over its point's near edge lines is at least
    the offset's margin stays inside; every other pair (a NaN distance
    included) goes to ``project``, which decides it.

    Points run in chunks of at most ``MOLLIFY_BATCH_PAIRS``, and a chunk's
    points through the offsets in batches of at most that many pairs, with
    one ``project`` call and one evaluation of the base per batch.  Each
    point sums its offsets' terms in offset order, so the result has the
    bits of projecting every point under one offset at a time.  The field
    keeps its last result, keyed on the exact bits of x and y: a solve
    evaluates it on the quadrature nodes only, once for p and once for the
    masked source, and ``validate_spec`` reads those values.  Every call
    returns a fresh array.
    """

    def __init__(self, base, domain, delta):
        self.base = base
        self.domain = domain
        self.delta = float(delta)
        gx, gw = np.polynomial.legendre.leggauss(12)
        wx, wy = np.meshgrid(gx, gx)
        ww = np.outer(gw, gw).ravel()
        wx = wx.ravel()
        wy = wy.ravel()
        r2 = wx * wx + wy * wy
        keep = r2 < 1.0 - 1e-12
        bump = np.exp(-1.0 / (1.0 - r2[keep]))
        w = ww[keep] * bump
        self.offsets = self.delta * np.column_stack([wx[keep], wy[keep]])
        self.weights = w / w.sum()
        radius = np.hypot(self.offsets[:, 0], self.offsets[:, 1])
        # per-offset roundoff margin of a clearance: the absolute term
        # covers the rounding of distances, which scales with the
        # coordinates, when the offset is tiny
        self._margin = 1e-9 * radius + 1e-12 * float(
            np.max(np.abs(domain.bounding_box())))
        self._reach = radius + self._margin
        # the polyline's edge lines: start points and inward unit normals as
        # (E, 1) columns, and n_e . o for each offset (rows) and edge
        ax, ay, ex, ey, elen, _ = domain._edges
        nx, ny = -ey / elen, ex / elen
        self._lines = (ax, ay, nx, ny)
        self._push = (self.offsets[:, 0, None] * nx.T
                      + self.offsets[:, 1, None] * ny.T)
        # (x, y, values) of the last call, replaced in one assignment
        self._last = None

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        last = self._last
        if last is not None and _same_bits(last[0], x) and _same_bits(
                last[1], y):
            out = last[2]
        else:
            out = self._mollify(x, y)
            self._last = (x.copy(), y.copy(), out)
        return float(out) if out.ndim == 0 else out.copy()

    def _mollify(self, x, y):
        shape = np.broadcast(x, y).shape
        xs = np.broadcast_to(x, shape).ravel()
        ys = np.broadcast_to(y, shape).ravel()
        acc = np.empty(xs.shape)
        for lo in range(0, xs.size, MOLLIFY_BATCH_PAIRS):
            chunk = slice(lo, lo + MOLLIFY_BATCH_PAIRS)
            acc[chunk] = self._mollify_chunk(xs[chunk], ys[chunk])
        return acc.reshape(shape)

    def _mollify_chunk(self, xs, ys):
        ax, ay, nx, ny = self._lines
        dist = nx * (xs - ax) + ny * (ys - ay)
        # (point, edge) pairs with the edge line within reach, by point; a
        # NaN distance counts as near
        point, edge = np.nonzero(~(dist.T >= np.max(self._reach)))
        near, first = np.unique(point, return_index=True)
        deep = np.ones(xs.shape, dtype=bool)
        deep[near] = False
        acc = np.empty(xs.shape)
        acc[deep] = self._sum_offsets(xs[deep], ys[deep])
        acc[near] = self._sum_offsets(xs[near], ys[near],
                                      (dist[edge, point], edge, first))
        return acc

    def _sum_offsets(self, xs, ys, lines=None):
        """The weighted sum over the offsets at points that are never
        projected, or, given ``lines`` = (distances, edges, first index per
        point) of their near edge lines, at points that may be."""
        acc = np.zeros(xs.shape)
        if not xs.size:
            return acc
        width = xs.size if lines is None else max(xs.size, lines[0].size)
        step = max(1, MOLLIFY_BATCH_PAIRS // width)
        for lo in range(0, len(self.offsets), step):
            batch = slice(lo, lo + step)
            ox, oy = self.offsets[batch].T
            shifted_x = xs - ox[:, None]
            shifted_y = ys - oy[:, None]
            if lines is not None:
                dist, edge, first = lines
                clearance = np.minimum.reduceat(
                    dist - self._push[batch][:, edge], first, axis=1)
                out = ~(clearance >= self._margin[batch, None])
                if out.any():
                    moved = self.domain.project(
                        np.column_stack([shifted_x[out], shifted_y[out]]))
                    shifted_x[out] = moved[:, 0]
                    shifted_y[out] = moved[:, 1]
            vals = field_values(self.base, shifted_x.ravel(),
                                shifted_y.ravel()).reshape(shifted_x.shape)
            for w, row in zip(self.weights[batch], vals):
                acc += w * row
        return acc


def _same_bits(a, b):
    """Same shape and the same bit pattern in every entry (so -0.0 differs
    from 0.0 and a NaN matches itself)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def mollify_exponent(p: ExponentField, delta: float) -> ExponentField:
    """Smoothed exponent p_delta with |p_delta - p| <= lip*delta and the
    same Lipschitz bound; needs the field's domain for the extension."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if p.domain is None:
        raise ValueError(
            "exponent field has no domain; build it with from_expression")
    moll = _MollifiedField(p.field, p.domain, delta)
    return ExponentField(moll, p.p1, p.p2, p.lip, domain=p.domain)
