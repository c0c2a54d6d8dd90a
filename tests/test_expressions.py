import numpy as np
import pytest
import sympy

from plapx.expressions import (DifferentiationError, FieldEvaluationError,
                               FieldSyntaxError, parse_field)


def ev(src, x, y=0.0):
    return parse_field(src).evaluate(x, y)


@pytest.mark.parametrize("src,x,y,expected", [
    ("2 - 0.5*x", 1.0, 0.0, 1.5),
    ("1+2*3", 0.0, 0.0, 7.0),
    ("sin(0) + 2^3^1", 0.0, 0.0, 8.0),
    ("2^3^2", 0.0, 0.0, 512.0),          # right-assoc, not (2^3)^2 = 64
    ("8/4/2", 0.0, 0.0, 1.0),            # left-assoc
    ("2-3-4", 0.0, 0.0, -5.0),
    ("-x^2", 2.0, 0.0, -4.0),            # -(x^2), not (-x)^2
    ("2^-3", 0.0, 0.0, 0.125),
    ("(1+2)*3", 0.0, 0.0, 9.0),
    ("min(x, y) + 2*max(x, y)", 1.0, 3.0, 7.0),
    ("abs(-3.5)", 0.0, 0.0, 3.5),
    ("exp(0) + log(1) + sqrt(4)", 0.0, 0.0, 3.0),
    ("x*y - y/2", 3.0, 4.0, 10.0),
    ("1.5e2 + 1e-2", 0.0, 0.0, 150.01),
])
def test_evaluation_table(src, x, y, expected):
    assert ev(src, x, y) == pytest.approx(expected, rel=1e-15)


def test_scalar_in_scalar_out():
    v = ev("x + y", 1.0, 2.0)
    assert isinstance(v, float)
    assert v == 3.0


def test_broadcasting_matches_numpy():
    e = parse_field("sin(x)*y + x^2")
    x = np.linspace(-2, 2, 7)
    y = np.linspace(0, 1, 7)
    np.testing.assert_allclose(e.evaluate(x, y), np.sin(x) * y + x ** 2)
    # 2-d grids keep their shape
    gx, gy = np.meshgrid(x, y)
    assert e.evaluate(gx, gy).shape == gx.shape


corpus = [
    "2 - 0.5*x",
    "1+2*3",
    "sin(0) + 2^3^1",
    "-x^2 + 2^-3",
    "min(x, y) - max(-x, y/3)",
    "exp(-(x^2 + y^2)/0.5)",
    "x/(y + 2)/(x + 3)",
    "(x + y + 0.5)^(2 + x)",
    "-(x + y)*-(x - y)",
    "sqrt(abs(x)) + log(2 + sin(y))",
    "1.5 + x*y*2^x",
]


@pytest.mark.parametrize("src", corpus)
def test_print_parse_round_trip(src):
    tree = parse_field(src)
    printed = str(tree)
    again = parse_field(printed)
    assert again == tree
    assert str(again) == printed


@pytest.mark.parametrize("src", corpus)
def test_printer_preserves_value(src):
    tree = parse_field(src)
    x = np.linspace(0.1, 1.9, 11)
    y = np.linspace(0.2, 0.9, 11)
    np.testing.assert_array_equal(parse_field(str(tree)).evaluate(x, y),
                                  tree.evaluate(x, y))


def test_structural_equality_and_hash():
    a = parse_field("x + 2*y")
    b = parse_field("x+2*y")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_field("x + 2*x")


@pytest.mark.parametrize("src,bad_offset", [
    ("1 + * 2", 4),
    ("(x + y", 6),
    ("x +", 3),
    ("sin(x", 5),
    ("min(x)", 0),       # arity, reported at the function name
    ("1 2", 2),
])
def test_syntax_error_offsets(src, bad_offset):
    with pytest.raises(FieldSyntaxError) as info:
        parse_field(src)
    assert info.value.offset == bad_offset
    assert f"offset {bad_offset}" in str(info.value)


def test_unknown_identifier():
    with pytest.raises(FieldSyntaxError) as info:
        parse_field("z + 1")
    assert "z" in str(info.value)
    with pytest.raises(FieldSyntaxError):
        parse_field("foo(x)")


@pytest.mark.parametrize("src,x", [
    ("log(x)", -1.0),
    ("log(x)", 0.0),
    ("sqrt(x)", -0.5),
    ("1/x", 0.0),
    ("x^0.5", -2.0),     # fractional power of a negative
    ("x^-1", 0.0),       # 0 to a negative power
])
def test_evaluation_domain_errors(src, x):
    e = parse_field(src)
    with pytest.raises(FieldEvaluationError):
        e.evaluate(x, 0.0)


def test_domain_error_names_the_point():
    e = parse_field("log(x - y)")
    xs = np.array([2.0, 3.0, 0.5])
    ys = np.array([0.0, 0.0, 1.5])
    with pytest.raises(FieldEvaluationError) as info:
        e.evaluate(xs, ys)
    assert info.value.point == (0.5, 1.5)


@pytest.mark.parametrize("src,value", [
    ("4", 4.0), ("-(2)", -2.0), ("min(1, 2)", 1.0), ("2^0.5", 2.0 ** 0.5)])
def test_constant_expressions_fill_the_points_shape(src, value):
    x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    got = parse_field(src).evaluate(x, 0.5)
    assert got.shape == (2, 3) and got.dtype == float
    assert got.flags.writeable
    assert np.all(got == value)


@pytest.mark.parametrize("exponent", [2.0, 0.5, -1.0])
def test_constant_powers_keep_the_bits_of_a_full_exponent_array(exponent):
    # np.power rounds a stride-0 exponent of 2, 0.5 or -1 by other kernels
    # than a full array of the same value
    x = np.random.default_rng(3).uniform(0.01, 2.0, 20000)
    got = parse_field(f"x^{exponent!r}").evaluate(x, 0.0)
    want = np.power(x, np.full(x.shape, exponent))
    assert got.tobytes() == want.tobytes()


def test_constant_division_by_zero_names_the_first_point():
    xs = np.array([0.25, 0.5])
    with pytest.raises(FieldEvaluationError) as info:
        parse_field("1/(1 - 1)").evaluate(xs, np.array([0.75, 1.0]))
    assert info.value.point == (0.25, 0.75)


def test_no_silent_nan():
    # a NaN would propagate quietly through quadrature sums; the contract
    # is an exception instead
    for src, x in [("log(-x)", 1.0), ("sqrt(y - 1)", 0.0)]:
        with pytest.raises(FieldEvaluationError):
            parse_field(src).evaluate(x, 0.0)


def _sympy_of(src):
    x, y = sympy.symbols("x y")
    return sympy.sympify(
        src.replace("^", "**"), locals={"x": x, "y": y}), (x, y)


@pytest.mark.parametrize("src", [
    "x^3 - 2*x*y + y^2",
    "sin(x)*cos(y)",
    "exp(-(x^2 + y^2))",
    "log(2 + x^2)",
    "sqrt(1 + x^2 + y^2)",
    "(1 + x)^(2 + y)",
    "x/(1 + y^2)",
    "2^x",
])
@pytest.mark.parametrize("var", ["x", "y"])
def test_diff_against_sympy(src, var):
    tree = parse_field(src)
    sym, (sx, sy) = _sympy_of(src)
    dsym = sympy.diff(sym, sx if var == "x" else sy)
    f = sympy.lambdify((sx, sy), dsym, "numpy")
    xs = np.linspace(0.1, 1.7, 9)
    ys = np.linspace(0.2, 1.3, 9)
    got = tree.diff(var).evaluate(xs, ys)
    np.testing.assert_allclose(got, np.broadcast_to(f(xs, ys), got.shape),
                               rtol=1e-12, atol=1e-12)


def test_diff_power_constant_exponent_is_exact_power_rule():
    d = parse_field("x^3").diff("x")
    # 3*x^2, no log(x) detour: must evaluate fine at x = 0 and x < 0
    assert d.evaluate(0.0, 0.0) == 0.0
    assert d.evaluate(-2.0, 0.0) == 12.0


def test_diff_not_defined_for_kinks():
    for src in ["abs(x)", "min(x, y)", "max(x, 0)"]:
        with pytest.raises(DifferentiationError):
            parse_field(src).diff("x")


def test_diff_of_constant_is_zero():
    d = parse_field("4.25").diff("x")
    assert d.evaluate(123.0, -5.0) == 0.0


def test_second_derivatives_compose():
    u = parse_field("(1 - x^2 - y^2)*sin(x + 2*y)")
    uxx = u.diff("x").diff("x")
    # finite-difference cross-check at a handful of points
    h = 1e-5
    for (px, py) in [(0.3, 0.1), (-0.2, 0.4), (0.0, 0.0)]:
        fd = (u.evaluate(px + h, py) - 2 * u.evaluate(px, py)
              + u.evaluate(px - h, py)) / h ** 2
        assert uxx.evaluate(px, py) == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_immutability():
    e = parse_field("x + y")
    with pytest.raises(AttributeError):
        e.op = "*"
