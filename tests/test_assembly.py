import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from plapx.assembly import (P1Function, PreconditionError, _gradient_data,
                            _vertex_sum, apply_dirichlet, assemble_jacobian,
                            assemble_load, assemble_residual, energy,
                            weighted_stiffness)
from plapx.expressions import FieldEvaluationError, parse_field
from plapx.geometry import (ConvexDomain, refine_uniform, round_corners,
                            triangulate_convex)
from plapx.varexp import ExponentField, QuadratureContext

SQUARE = ConvexDomain.unit_square()


def make(h=0.25):
    mesh = triangulate_convex(SQUARE, h)
    return mesh, QuadratureContext(mesh)


def local_poisson(pts):
    # barycentric coefficients from the 3x3 Vandermonde; rows of G are the
    # constant basis gradients
    M = np.column_stack([np.ones(3), pts])
    area = 0.5 * abs(np.linalg.det(M))
    C = np.linalg.inv(M)
    G = C[1:, :].T                       # (3, 2)
    return area * (G @ G.T), area


def poisson_system(mesh):
    """Plain loop-based Poisson stiffness and unit load, built from scratch."""
    n = mesh.n_points
    K = np.zeros((n, n))
    b = np.zeros(n)
    for tri in mesh.triangles:
        kl, area = local_poisson(mesh.points[tri])
        for a in range(3):
            b[tri[a]] += area / 3.0
            for c in range(3):
                K[tri[a], tri[c]] += kl[a, c]
    return K, b


# --- P1Function basics ------------------------------------------------------


def test_interpolate_linear_is_exact():
    mesh, _ = make(0.3)
    u = P1Function.interpolate(mesh, parse_field("x + 2*y"))
    xs = np.array([0.13, 0.5, 0.77])
    ys = np.array([0.21, 0.5, 0.4])
    np.testing.assert_allclose(u.evaluate(xs, ys), xs + 2 * ys,
                               rtol=0, atol=1e-13)


def test_triangle_gradients_constant_field():
    mesh, _ = make(0.3)
    u = P1Function.interpolate(mesh, parse_field("3 - x"))
    g = u.triangle_gradients()
    np.testing.assert_allclose(g[:, 0], -1.0, atol=1e-12)
    np.testing.assert_allclose(g[:, 1], 0.0, atol=1e-12)


def test_quadrature_values_match_evaluate():
    mesh, qctx = make(0.35)
    u = P1Function.interpolate(mesh, parse_field("x*y"))
    qv = u.quadrature_values(qctx)
    ev = u.evaluate(qctx.x.ravel(), qctx.y.ravel()).reshape(qctx.x.shape)
    np.testing.assert_allclose(qv, ev, rtol=1e-13)


# --- energy -----------------------------------------------------------------


def test_energy_affine_closed_form():
    # u = x + y, p = 3, eps = 0: J = (1/3) |grad u|^3 |Omega| = (1/3) 2^(3/2)
    mesh, qctx = make(0.2)
    u = P1Function.interpolate(mesh, parse_field("x + y"))
    J = energy(u, ExponentField.constant(3.0), 0.0, qctx)
    assert J == pytest.approx((2.0 ** 1.5) / 3.0, rel=1e-12)


def test_energy_quadratic_p2():
    # u = x, p = 2, eps = 0: J = 0.5
    mesh, qctx = make(0.25)
    u = P1Function.interpolate(mesh, parse_field("x"))
    assert energy(u, ExponentField.constant(2.0), 0.0,
                  qctx) == pytest.approx(0.5, rel=1e-13)


def test_energy_eps_offset():
    # u = 0, p = 2: J = eps/2 * |Omega|
    mesh, qctx = make(0.3)
    u = P1Function.zero(mesh)
    assert energy(u, ExponentField.constant(2.0), 0.5,
                  qctx) == pytest.approx(0.25, rel=1e-13)


def test_energy_variable_exponent_oracle():
    # u = x, p = 2 + y, eps = 0: J = int_0^1 1/(2+y) dy = ln(3/2)
    mesh, qctx = make(0.1)
    u = P1Function.interpolate(mesh, parse_field("x"))
    p = ExponentField.from_expression(parse_field("2 + y"), SQUARE)
    assert energy(u, p, 0.0, qctx) == pytest.approx(math.log(1.5), rel=1e-10)


def test_eps_range_validation():
    mesh, qctx = make(0.4)
    u = P1Function.zero(mesh)
    p = ExponentField.constant(2.0)
    with pytest.raises(ValueError):
        energy(u, p, -0.1, qctx)
    with pytest.raises(ValueError):
        energy(u, p, 1.5, qctx)
    with pytest.raises(ValueError):
        assemble_residual(u, p, 0.0, 0.0, qctx)


@pytest.mark.parametrize("scale,p,name", [(1e200, 2.0, "v2"),
                                          (1e150, 5.0, "s1")])
def test_flux_kernel_names_its_first_overflow(scale, p, name):
    # |grad u|^2 = 1e400 overflows v2; v2 = 1e300 is finite, but
    # v2^((5 - 2)/2) overflows s1
    mesh, qctx = make(0.4)
    u = P1Function.interpolate(mesh, lambda x, y: scale * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldEvaluationError,
                           match=f"^non-finite flux kernel {name} value at "
                                 r"point \("):
            assemble_residual(u, ExponentField.constant(p), 0.0, 0.5, qctx)


def test_jacobian_names_an_entry_that_overflows():
    # v2, s1 and s2 are finite, but (grad phi_i . grad u)^2 overflows, and
    # the zero kernel derivative s2 of p = 2 turns it into 0 * inf
    mesh, qctx = make(0.4)
    u = P1Function.interpolate(mesh, lambda x, y: 1e154 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldEvaluationError,
                           match=r"^non-finite Jacobian entry at point \("):
            assemble_jacobian(u, ExponentField.constant(2.0), 0.5, qctx)


# --- load vector -------------------------------------------------------------


def test_load_partition_of_unity():
    mesh, qctx = make(0.22)
    b = assemble_load(1.0, qctx)
    assert np.sum(b) == pytest.approx(SQUARE.area, rel=1e-13)


def test_load_pairing_with_linear_function():
    # b(f) . u = int f u exactly for polynomial f u of degree <= 4
    mesh, qctx = make(0.22)
    b = assemble_load(parse_field("x^2"), qctx)
    u = P1Function.interpolate(mesh, parse_field("x + y"))
    # int x^2 (x + y) over unit square = 1/4 + 1/6
    assert float(b @ u.coeffs) == pytest.approx(0.25 + 1.0 / 6.0, rel=1e-12)


# --- residual ---------------------------------------------------------------


def test_residual_p2_matches_loop_poisson():
    # for p = 2 the flux weight is identically 1 regardless of eps, so the
    # residual must equal K u - b from a from-scratch dense assembly
    mesh, qctx = make(0.3)
    K, b = poisson_system(mesh)
    rng = np.random.Generator(np.random.Philox(7))
    coeffs = rng.normal(size=mesh.n_points)
    u = P1Function(mesh, coeffs)
    R = assemble_residual(u, ExponentField.constant(2.0), 1.0, 0.5, qctx)
    expect = K @ coeffs - b
    interior = ~mesh.is_boundary
    np.testing.assert_allclose(R[interior], expect[interior],
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(R[mesh.is_boundary], 0.0)


def test_residual_affine_interior_zero():
    # a globally affine iterate with constant p has divergence-free flux, so
    # every interior equation vanishes when f = 0
    mesh, qctx = make(0.27)
    u = P1Function.interpolate(mesh, parse_field("2*x - y + 0.3"))
    R = assemble_residual(u, ExponentField.constant(1.6), 0.0, 1e-3, qctx)
    interior = ~mesh.is_boundary
    assert np.max(np.abs(R[interior])) < 1e-13


def test_residual_boundary_guard():
    mesh, qctx = make(0.35)
    u = P1Function.interpolate(mesh, parse_field("x*y"))
    # passes when the data matches
    assemble_residual(u, ExponentField.constant(2.0), 1.0, 0.1, qctx,
                      g_data=parse_field("x*y"))
    with pytest.raises(PreconditionError) as err:
        assemble_residual(u, ExponentField.constant(2.0), 1.0, 0.1, qctx,
                          g_data=0.0)
    assert "Dirichlet" in str(err.value)


# --- jacobian ----------------------------------------------------------------


def test_jacobian_matches_finite_differences():
    mesh, qctx = make(0.35)
    rng = np.random.Generator(np.random.Philox(3))
    u = P1Function(mesh, rng.normal(size=mesh.n_points))
    p = ExponentField.from_expression(parse_field("1.7 + 0.2*x"), SQUARE)
    eps = 0.3
    J = assemble_jacobian(u, p, eps, qctx)
    interior = ~mesh.is_boundary
    step = 1e-6
    for k in range(4):
        d = rng.normal(size=mesh.n_points)
        up = P1Function(mesh, u.coeffs + step * d)
        um = P1Function(mesh, u.coeffs - step * d)
        fd = (assemble_residual(up, p, 0.0, eps, qctx)
              - assemble_residual(um, p, 0.0, eps, qctx)) / (2 * step)
        Jd = J @ d
        num = np.linalg.norm(Jd[interior] - fd[interior])
        den = np.linalg.norm(fd[interior])
        assert num <= 1e-5 * den, f"trial {k}: rel fd error {num / den:.2e}"


def test_jacobian_symmetric_and_spd():
    mesh, qctx = make(0.3)
    rng = np.random.Generator(np.random.Philox(5))
    u = P1Function(mesh, rng.normal(size=mesh.n_points))
    p = ExponentField.from_expression(parse_field("1.5 + 0.4*y"), SQUARE)
    J = assemble_jacobian(u, p, 0.2, qctx)
    assert (J != J.T).nnz == 0
    interior = np.flatnonzero(~mesh.is_boundary)
    dense = J[interior][:, interior].toarray()
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0.0


def test_jacobian_reduces_to_stiffness_for_p2():
    mesh, qctx = make(0.3)
    rng = np.random.Generator(np.random.Philox(9))
    u = P1Function(mesh, rng.normal(size=mesh.n_points))
    p = ExponentField.constant(2.0)
    J = assemble_jacobian(u, p, 0.7, qctx).toarray()
    W = weighted_stiffness(u, p, 0.7, qctx).toarray()
    np.testing.assert_allclose(J, W, rtol=1e-14, atol=1e-16)


def test_weighted_stiffness_p2_is_plain_stiffness():
    mesh, qctx = make(0.3)
    K, _ = poisson_system(mesh)
    u = P1Function.interpolate(mesh, parse_field("sin(x)*y"))
    W = weighted_stiffness(u, ExponentField.constant(2.0), 0.3,
                           qctx).toarray()
    np.testing.assert_allclose(W, K, rtol=1e-12, atol=1e-14)


# --- dirichlet condensation ---------------------------------------------------


def test_apply_dirichlet_solves_laplace_affine_exactly():
    # g = 1 - 2x is harmonic and affine, so the discrete solution is its
    # interpolation to machine precision
    mesh, qctx = make(0.24)
    u0 = P1Function.zero(mesh)
    K = weighted_stiffness(u0, ExponentField.constant(2.0), 1.0, qctx)
    b = np.zeros(mesh.n_points)
    sys = apply_dirichlet(K, b, mesh, parse_field("1 - 2*x"))
    x = scipy.sparse.linalg.spsolve(sys.operator.tocsc(), sys.rhs)
    full = sys.expand(x)
    want = 1.0 - 2.0 * mesh.points[:, 0]
    np.testing.assert_allclose(full, want, rtol=0, atol=1e-12)


def test_apply_dirichlet_expand_roundtrip():
    mesh, qctx = make(0.4)
    K = weighted_stiffness(P1Function.zero(mesh),
                           ExponentField.constant(2.0), 1.0, qctx)
    sys = apply_dirichlet(K, np.zeros(mesh.n_points), mesh, parse_field("y"))
    full = sys.expand(np.zeros(sys.interior_index.size))
    bnd = mesh.is_boundary
    np.testing.assert_allclose(full[bnd], mesh.points[bnd, 1], atol=1e-14)
    np.testing.assert_array_equal(full[~bnd], 0.0)


def test_reduced_operator_is_principal_submatrix():
    mesh, qctx = make(0.35)
    u = P1Function.interpolate(mesh, parse_field("x^2"))
    A = assemble_jacobian(u, ExponentField.constant(1.8), 0.1, qctx)
    sys = apply_dirichlet(A, np.zeros(mesh.n_points), mesh, 0.0)
    idx = sys.interior_index
    np.testing.assert_array_equal(sys.operator.toarray(),
                                  A.toarray()[np.ix_(idx, idx)])


def test_energy_at_eps_zero_is_finite_and_warning_free():
    # every triangle of the zero function is flat: v = 0, and v^(p-2) is
    # infinite for p < 2; energy takes only v^p = 0 from it
    mesh, qctx = make(0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = energy(P1Function.zero(mesh), ExponentField.constant(1.5), 0.0,
                   qctx)
    assert J == 0.0


@pytest.mark.parametrize("dom,h", [
    (SQUARE, 0.05),
    (round_corners(SQUARE, 0.2), 0.08),
    (ConvexDomain.regular_polygon(7), 0.15)],
    ids=["square", "rounded", "heptagon"])
def test_residual_matches_the_einsum_kernel_bitwise(dom, h):
    # the residual's element term is written as explicit products; it must
    # reproduce einsum("t,tid,td->ti") bit for bit, so Newton paths and
    # every output stay fixed
    mesh = triangulate_convex(dom, h)
    qctx = QuadratureContext(mesh)
    p = ExponentField.from_expression(
        parse_field("1.3 + 0.5*x*x + 0.2*y"), dom)
    f = parse_field("1 + x")
    gb = mesh.basis_gradients()
    rng = np.random.default_rng(15)
    for scale in (1e-3, 1.0, 30.0):
        u = P1Function(mesh, scale * rng.standard_normal(mesh.n_points))
        for eps in (1.0, 1e-3, 1e-8):
            R = assemble_residual(u, p, f, eps, qctx)
            _, _, _, s1, _ = _gradient_data(u, p, eps, qctx)
            ref = _vertex_sum(mesh, np.einsum("t,tid,td->ti", s1, gb,
                                              u.triangle_gradients()))
            ref -= assemble_load(f, qctx)
            ref[mesh.is_boundary] = 0.0
            assert np.array_equal(R, ref)


@pytest.mark.parametrize("dom,h", [
    (SQUARE, 0.05),
    (round_corners(SQUARE, 0.2), 0.08),
    (ConvexDomain.regular_polygon(7), 0.15)],
    ids=["square", "rounded", "heptagon"])
def test_flux_kernel_and_jacobian_match_einsum_bitwise(dom, h):
    # |grad u|^2 and grad phi_i . grad u are written as explicit products;
    # they must reproduce einsum("td,td->t") and einsum("tid,td->ti") bit
    # for bit, so the Jacobian, the Newton paths and every output stay fixed
    mesh = triangulate_convex(dom, h)
    qctx = QuadratureContext(mesh)
    p = ExponentField.from_expression(
        parse_field("1.3 + 0.5*x*x + 0.2*y"), dom)
    gb = mesh.basis_gradients()
    pat = mesh.p1_pattern()
    rng = np.random.default_rng(16)
    for scale in (1e-3, 1.0, 30.0):
        u = P1Function(mesh, scale * rng.standard_normal(mesh.n_points))
        gu = u.triangle_gradients()
        for eps in (1.0, 1e-3, 1e-8):
            _, v2, _, s1, s2 = _gradient_data(u, p, eps, qctx)
            assert np.array_equal(v2, np.einsum("td,td->t", gu, gu) + eps)
            du = np.einsum("tid,td->ti", gb, gu)
            local = (s1[:, None, None] * mesh.basis_products()
                     + (s2 / v2)[:, None, None]
                     * np.einsum("ti,tj->tij", du, du))
            ref = np.bincount(pat.scatter, weights=local.ravel(),
                              minlength=len(pat.indices))
            J = assemble_jacobian(u, p, eps, qctx)
            assert np.array_equal(J.indices, pat.indices)
            assert np.array_equal(J.data, ref)


@pytest.mark.parametrize("dom,h", [
    (SQUARE, 0.05),
    (round_corners(SQUARE, 0.2), 0.08),
    (ConvexDomain.regular_polygon(7), 0.15),
    (None, 0.3)],
    ids=["square", "rounded", "heptagon", "refined"])
def test_triangle_gradients_match_einsum_bitwise(dom, h):
    # the gradient per triangle is one product with the gradient operator,
    # whose rows sum three products in corner order; it must reproduce
    # einsum("ti,tid->td") on a C-ordered (m, 3, 2) array, and the explicit
    # products c0 g0 + c1 g1 + c2 g2, bit for bit, so every iterate's
    # gradients, and so every output, stay fixed.  einsum gets its own copy
    # in that order: on the strided view basis_gradients() returns it sums
    # in another order.
    mesh = (refine_uniform(triangulate_convex(SQUARE, h)) if dom is None
            else triangulate_convex(dom, h))
    gb = mesh.basis_gradients()
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0, 30.0):
        u = P1Function(mesh, scale * rng.standard_normal(mesh.n_points))
        c = u.coeffs[mesh.triangles]
        ref = np.einsum("ti,tid->td", c, np.ascontiguousarray(gb))
        products = np.stack([c[:, 0] * gb[:, 0, d] + c[:, 1] * gb[:, 1, d]
                             + c[:, 2] * gb[:, 2, d] for d in (0, 1)], axis=1)
        gu = u.triangle_gradients()
        assert gu.shape == ref.shape and not gu.flags.writeable
        assert np.array_equal(gu.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(gu.view(np.uint64), products.view(np.uint64))
