"""Closed-form scalar fields over the plane.

Small expression language used for exponents, sources and boundary data:
numbers, the coordinates ``x`` and ``y``, the binary operators ``+ - * / ^``
(with ``^`` right-associative and binding tighter than unary minus), unary
minus, and the functions sin, cos, exp, log, abs, sqrt, min, max.

Expressions are immutable ASTs.  Evaluation is vectorized over numpy arrays
and is total on the mathematical domain: log or sqrt of a negative number,
division by zero and fractional powers of negatives raise
:class:`FieldEvaluationError` instead of producing silent NaNs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ScalarFieldExpr",
    "parse_field",
    "FieldSyntaxError",
    "FieldEvaluationError",
    "DifferentiationError",
]

_FUNCTIONS_1 = ("sin", "cos", "exp", "log", "abs", "sqrt")
_FUNCTIONS_2 = ("min", "max")


class FieldSyntaxError(ValueError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class FieldEvaluationError(ArithmeticError):
    """Raised when evaluation leaves the domain of an operation.

    Carries the coordinates of the first offending sample point.
    """

    def __init__(self, message, x=None, y=None):
        if x is not None:
            message = f"{message} at point ({x:.17g}, {y:.17g})"
        super().__init__(message)
        self.point = None if x is None else (x, y)


class DifferentiationError(ValueError):
    """Raised when an expression is not differentiable in closed form."""


def _first_bad(mask, x, y):
    """Coordinates of the first True entry of a broadcast mask."""
    shape = np.broadcast(mask, x, y).shape
    mask = np.atleast_1d(np.broadcast_to(mask, shape))
    if not mask.any():
        return None
    first = tuple(np.argwhere(mask)[0])
    xb = np.atleast_1d(np.broadcast_to(x, shape))
    yb = np.atleast_1d(np.broadcast_to(y, shape))
    return float(xb[first]), float(yb[first])


class ScalarFieldExpr:
    """Base class of expression nodes.  Instances are immutable."""

    __slots__ = ()

    def evaluate(self, x, y):
        """Evaluate at coordinates, broadcasting like numpy.

        Scalars in give a float back; arrays give an array of the broadcast
        shape.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = self._eval(x, y)
        out = np.broadcast_to(np.asarray(out, dtype=float),
                              np.broadcast(x, y).shape)
        if out.ndim == 0:
            return float(out)
        return np.array(out)

    def __call__(self, x, y):
        return self.evaluate(x, y)

    def diff(self, var):
        """Partial derivative with respect to ``"x"`` or ``"y"``.

        Raises :class:`DifferentiationError` for abs/min/max, which have no
        closed-form derivative in this language.
        """
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        return self._diff(var)

    def __str__(self):
        return self._print(0)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __setattr__(self, *a):
        raise AttributeError("expression nodes are immutable")

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    # precedence levels used by the printer; must agree with the parser
    _P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


class Num(ScalarFieldExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def _eval(self, x, y):
        # a float: evaluate() broadcasts the result to the points' shape
        return self.value

    def _diff(self, var):
        return Num(0.0)

    def _print(self, prec):
        if self.value < 0 or (self.value == 0 and np.signbit(self.value)):
            s = "-" + repr(-self.value)
            return f"({s})" if prec > self._P_NEG else s
        return repr(self.value)


class Var(ScalarFieldExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        assert name in ("x", "y")
        object.__setattr__(self, "name", name)

    def _eval(self, x, y):
        return x if self.name == "x" else y

    def _diff(self, var):
        return Num(1.0) if var == self.name else Num(0.0)

    def _print(self, prec):
        return self.name


class Neg(ScalarFieldExpr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)

    def _eval(self, x, y):
        return -self.arg._eval(x, y)

    def _diff(self, var):
        return _neg(self.arg._diff(var))

    def _print(self, prec):
        s = "-" + self.arg._print(self._P_NEG)
        return f"({s})" if prec > self._P_NEG else s


class BinOp(ScalarFieldExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        assert op in "+-*/^"
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _eval(self, x, y):
        a = self.left._eval(x, y)
        b = self.right._eval(x, y)
        op = self.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            bad = _first_bad(b == 0, x, y)
            if bad is not None:
                raise FieldEvaluationError("division by zero", *bad)
            return a / b
        # power
        frac = b != np.floor(b)
        bad = _first_bad((a < 0) & frac, x, y)
        if bad is not None:
            raise FieldEvaluationError(
                "fractional power of a negative base", *bad)
        bad = _first_bad((a == 0) & (b < 0), x, y)
        if bad is not None:
            raise FieldEvaluationError("zero raised to a negative power", *bad)
        if np.ndim(b) == 0:
            # np.power rounds a stride-0 exponent of 2, 0.5 or -1 by other
            # kernels than a full array of it; keep the full array's bits
            b = np.full(np.broadcast(x, y).shape, b)
        return np.power(a, b)

    def _diff(self, var):
        a, b = self.left, self.right
        da, db = a._diff(var), b._diff(var)
        op = self.op
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            num = _sub(_mul(da, b), _mul(a, db))
            return _div(num, _mul(b, b))
        # power: constant exponents keep the power rule, the general case
        # goes through a^b * (db*log(a) + b*da/a)
        if isinstance(b, Num):
            return _mul(_mul(b, BinOp("^", a, Num(b.value - 1.0))), da)
        term = _add(_mul(db, Call("log", (a,))), _div(_mul(b, da), a))
        return _mul(BinOp("^", a, b), term)

    def _print(self, prec):
        op = self.op
        if op in "+-":
            lvl = self._P_ADD
            s = f"{self.left._print(lvl)} {op} {self.right._print(lvl + 1)}"
        elif op in "*/":
            lvl = self._P_MUL
            s = f"{self.left._print(lvl)}{op}{self.right._print(lvl + 1)}"
        else:  # ^, right-associative and above unary minus
            lvl = self._P_POW
            s = f"{self.left._print(lvl + 1)}^{self.right._print(lvl - 1)}"
        return f"({s})" if prec > lvl else s


class Call(ScalarFieldExpr):
    __slots__ = ("func", "args")

    def __init__(self, func, args):
        assert func in _FUNCTIONS_1 + _FUNCTIONS_2
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))

    def _eval(self, x, y):
        vals = [a._eval(x, y) for a in self.args]
        f = self.func
        if f == "sin":
            return np.sin(vals[0])
        if f == "cos":
            return np.cos(vals[0])
        if f == "exp":
            return np.exp(vals[0])
        if f == "log":
            bad = _first_bad(vals[0] <= 0, x, y)
            if bad is not None:
                raise FieldEvaluationError("log of a nonpositive argument", *bad)
            return np.log(vals[0])
        if f == "abs":
            return np.abs(vals[0])
        if f == "sqrt":
            bad = _first_bad(vals[0] < 0, x, y)
            if bad is not None:
                raise FieldEvaluationError("sqrt of a negative argument", *bad)
            return np.sqrt(vals[0])
        if f == "min":
            return np.minimum(vals[0], vals[1])
        return np.maximum(vals[0], vals[1])

    def _diff(self, var):
        f = self.func
        if f in ("abs", "min", "max"):
            raise DifferentiationError(
                f"{f} has no closed-form derivative in this language")
        u = self.args[0]
        du = u._diff(var)
        if f == "sin":
            return _mul(Call("cos", (u,)), du)
        if f == "cos":
            return _neg(_mul(Call("sin", (u,)), du))
        if f == "exp":
            return _mul(self, du)
        if f == "log":
            return _div(du, u)
        # sqrt
        return _div(du, _mul(Num(2.0), self))

    def _print(self, prec):
        inner = ", ".join(a._print(0) for a in self.args)
        return f"{self.func}({inner})"


def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value) if a.value != 0 else Num(0.0)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise FieldSyntaxError(f"bad number literal {text!r}", i)
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise FieldSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent with the precedence ladder + - < * / < unary - < ^."""

    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise FieldSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.offset)
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise FieldSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            e = BinOp(op, e, self.unary())
        return e

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            # exponent at unary level makes ^ right-associative and lets
            # 2^-3 parse without parentheses
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok.kind == "name":
            self.take()
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in _FUNCTIONS_1 + _FUNCTIONS_2:
                self.take("(")
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.expr())
                self.take(")")
                want = 1 if tok.text in _FUNCTIONS_1 else 2
                if len(args) != want:
                    raise FieldSyntaxError(
                        f"{tok.text} takes {want} argument(s), got {len(args)}",
                        tok.offset)
                return Call(tok.text, args)
            raise FieldSyntaxError(f"unknown identifier {tok.text!r}",
                                   tok.offset)
        raise FieldSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.offset)


def parse_field(src: str) -> ScalarFieldExpr:
    """Parse expression text into an immutable AST."""
    return _Parser(src).parse()
