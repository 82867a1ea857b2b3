"""Scalar expressions in named real variables: parsing, evaluation on
numbers and arrays, interval enclosures, symbolic differentiation.

Grammar (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")" | "-" factor

Exponents are restricted to constant integer powers, which keeps
differentiation total. Unary minus applies to a whole factor so that
``-x^2`` means ``-(x^2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "SyntaxExprError", "UnknownIdentifierError", "DomainError",
    "parse", "differentiate", "polynomial_degree", "to_string",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ExprError(Exception):
    pass


class SyntaxExprError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class DomainError(ExprError):
    pass


class Expr:
    """Immutable expression tree node. ``_compiled`` and ``_root`` cache
    the closures that ``evaluate`` runs."""

    __slots__ = ("_compiled", "_root")


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# Parsing

class _Tokenizer:
    def __init__(self, source):
        self.source = source
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.source):
            return None
        return self.source[self.pos]

    def expect(self, char):
        if self.peek() != char:
            raise SyntaxExprError(f"expected {char!r}", self.pos)
        self.pos += 1

    def read_number(self):
        start = self.pos
        src = self.source
        while self.pos < len(src) and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = src[start:self.pos]
        try:
            return float(text)
        except ValueError:
            raise SyntaxExprError(f"bad number {text!r}", start) from None

    def read_ident(self):
        start = self.pos
        src = self.source
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        return src[start:self.pos], start


class _Parser:
    def __init__(self, source, variables):
        self.tok = _Tokenizer(source)
        self.variables = frozenset(variables)

    def parse(self):
        node = self.expr()
        if self.tok.peek() is not None:
            raise SyntaxExprError("unexpected trailing input", self.tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.tok.peek() in ("+", "-"):
            op = self.tok.peek()
            self.tok.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.tok.peek() in ("*", "/"):
            op = self.tok.peek()
            self.tok.pos += 1
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self):
        node = self.base()
        if self.tok.peek() == "^":
            self.tok.pos += 1
            node = Pow(node, self.integer())
        return node

    def integer(self):
        ch = self.tok.peek()
        sign = 1
        if ch == "-":
            sign = -1
            self.tok.pos += 1
            ch = self.tok.peek()
        if ch is None or not ch.isdigit():
            raise SyntaxExprError("expected integer exponent", self.tok.pos)
        start = self.tok.pos
        while self.tok.pos < len(self.tok.source) and self.tok.source[self.tok.pos].isdigit():
            self.tok.pos += 1
        return sign * int(self.tok.source[start:self.tok.pos])

    def base(self):
        ch = self.tok.peek()
        if ch is None:
            raise SyntaxExprError("unexpected end of input", self.tok.pos)
        if ch == "-":
            self.tok.pos += 1
            return Neg(self.factor())
        if ch == "(":
            self.tok.pos += 1
            node = self.expr()
            self.tok.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Const(self.tok.read_number())
        if ch.isalpha() or ch == "_":
            name, start = self.tok.read_ident()
            if self.tok.peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(name, start)
                self.tok.pos += 1
                arg = self.expr()
                self.tok.expect(")")
                return Call(name, arg)
            if name in _FUNCTIONS:
                raise SyntaxExprError(f"function {name!r} needs an argument", start)
            if name not in self.variables:
                raise UnknownIdentifierError(name, start)
            return Var(name)
        raise SyntaxExprError(f"unexpected character {ch!r}", self.tok.pos)


def parse(source: str, variables) -> Expr:
    """Parse ``source`` into an Expr over the declared ``variables``."""
    if not source or not source.strip():
        raise SyntaxExprError("empty input", 0)
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# Evaluation

_NUMBERS = frozenset({float, int, np.float64})
_NOT_FINITE = "value overflows or is not finite"


def evaluate(e: Expr, point: dict):
    """Value of ``e`` at ``point``, a map from variable names to numbers
    or to numpy arrays that broadcast together. Numbers give a float.
    Where a variable of ``e`` is an array, the result is an array of the
    variables' broadcast shape; a constant ``e`` then takes the
    broadcast shape of all the values.

    One domain rule covers both: the value is defined when every node of
    ``e`` is a finite number, no divisor is 0, no power with a negative
    exponent has base 0, no log has an argument <= 0 and no sqrt one
    < 0 (0^0 is 1). Otherwise DomainError. An array raises exactly when
    one of its elements would raise as a number."""
    try:
        run = e._root
    except AttributeError:
        run = _compile_root(e)
    try:
        value = run(point)
    except _Arrays:
        return _on_arrays(e._compiled, point)
    except ArithmeticError:  # math.exp overflow, 1/x^k of an underflowed x^k
        raise DomainError(_NOT_FINITE) from None
    if value - value == 0.0:
        return value
    raise DomainError(_NOT_FINITE)


class _Arrays(Exception):
    """Raised where an evaluation on numbers meets an array."""


class _ArrayPoint(dict):
    """A point on which compiled variables pass arrays through."""


def _on_arrays(run, point):
    try:
        with np.errstate(all="ignore"):
            value = run(_ArrayPoint(point))
            _require(_finite(value), _NOT_FINITE)
    except ArithmeticError:  # of a constant part, as in exp(1000)
        raise DomainError(_NOT_FINITE) from None
    if value.__class__ is float:  # of a constant expression
        value = np.full(np.broadcast_shapes(*map(np.shape, point.values())), value)
    return value


def _compile_root(e: Expr):
    """``e``'s closure, or for a constant ``e`` one that scans the point."""
    run = constant = _compile(e)
    if not _has_variables(e):
        def run(p):
            for v in p.values():
                if v.__class__ is not float and v.__class__ not in _NUMBERS:
                    raise _Arrays
            return constant(p)
    object.__setattr__(e, "_root", run)
    return run


def _has_variables(e: Expr) -> bool:
    return isinstance(e, Var) or any(
        _has_variables(getattr(e, name))
        for name in ("arg", "base", "left", "right") if hasattr(e, name))


def _finite(x):
    return x - x == 0.0 if x.__class__ is float else np.isfinite(x)


def _require(ok, message):
    """Raise DomainError unless ``ok``, a bool or bool array, holds."""
    if ok is not True and (ok is False or not ok.all()):
        raise DomainError(message)


def _ipow(x, bits):
    """x^k for k = int("1" + bits, 2) by left-to-right squaring: the
    same products on numbers and arrays, so both give the same bits."""
    y = x
    for bit in bits:
        y = y * y
        if bit == "1":
            y = y * x
    return y


_ARGUMENT_DOMAINS = {  # function -> (test of the argument, message)
    "exp": (_finite, _NOT_FINITE),  # exp(-inf) would be a finite 0
    "log": (lambda x: x > 0.0, "log of nonpositive value"),
    "sqrt": (lambda x: x >= 0.0, "sqrt of negative value"),
}


def _compile(e: Expr):
    """The closure point -> value of ``e`` for numbers and arrays, cached
    on the node. Past its own domain, a node checks only arguments whose
    non-finite values it could turn finite; the root rejects the rest."""
    try:
        return e._compiled
    except AttributeError:
        pass
    if isinstance(e, Const):
        value = e.value
        run = lambda p: value  # noqa: E731
    elif isinstance(e, Var):
        name = e.name

        def run(p):
            try:
                v = p[name]
            except KeyError:
                raise DomainError(f"variable {name!r} not bound") from None
            if v.__class__ is float:
                return v
            if v.__class__ in _NUMBERS:
                return float(v)
            if p.__class__ is _ArrayPoint:
                return np.asarray(v, dtype=float)
            raise _Arrays
    elif isinstance(e, Neg):
        a = _compile(e.arg)
        run = lambda p: -a(p)  # noqa: E731
    elif isinstance(e, (Add, Sub, Mul)):
        a, b = _compile(e.left), _compile(e.right)
        run = {Add: lambda p: a(p) + b(p), Sub: lambda p: a(p) - b(p),
               Mul: lambda p: a(p) * b(p)}[type(e)]
    elif isinstance(e, Div):
        a, b = _compile(e.left), _compile(e.right)

        def run(p):
            num, den = a(p), b(p)
            _require(den != 0.0, "division by zero")
            _require(_finite(den), _NOT_FINITE)
            return num / den
    elif isinstance(e, Pow):
        a, k = _compile(e.base), e.exponent
        bits = bin(abs(k))[3:]

        def run(p):
            x = a(p)
            if k > 0:
                return _ipow(x, bits)
            _require(_finite(x), _NOT_FINITE)
            if k == 0:
                return x * 0.0 + 1.0  # 1 in the type and shape of x
            _require(x != 0.0, "zero raised to a negative power")
            return 1.0 / _ipow(x, bits)
    elif isinstance(e, Call) and e.func in _FUNCTIONS:
        a = _compile(e.arg)
        scalar, vector = getattr(math, e.func), getattr(np, e.func)
        test, message = _ARGUMENT_DOMAINS.get(e.func, (None, None))

        def run(p):
            x = a(p)
            if test is not None:
                _require(test(x), message)
            if x.__class__ is not float:
                return vector(x)  # sin(inf) is nan, which the root rejects
            try:
                return scalar(x)
            except ValueError:  # math.sin(inf)
                raise DomainError(_NOT_FINITE) from None
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    object.__setattr__(e, "_compiled", run)
    return run


def evaluate_interval(e: Expr, box: dict) -> tuple:
    """Natural interval extension over a batch of boxes: ``box`` maps
    each variable name to a pair ``(lo, hi)`` of broadcastable arrays,
    and the result is a pair ``(lo, hi)`` of arrays with
    ``lo <= e(x) <= hi`` for every x in each box where ``evaluate``
    would succeed (Moore, Kearfott & Cloud, *Introduction to Interval
    Analysis*, SIAM 2009).

    Every node's result is widened outward by one ulp, which covers the
    rounding of IEEE arithmetic and of elementary functions accurate to
    one ulp. A denominator or negative-power base whose interval holds 0
    gives (-inf, inf). A box that leaves the domain of ``log`` or
    ``sqrt`` gives NaN bounds, and NaN propagates through every later
    node, so such an enclosure never excludes any value."""
    shape = np.broadcast_shapes(*(np.shape(b) for pair in box.values()
                                  for b in pair))
    with np.errstate(all="ignore"):
        lo, hi = _interval(e, box)
    return (np.broadcast_to(lo, shape).astype(float),
            np.broadcast_to(hi, shape).astype(float))


def _outward(lo, hi):
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _poison(lo, hi, *args):
    """NaN wherever one of the argument enclosures ``args`` is NaN."""
    bad = np.zeros(np.shape(lo), dtype=bool)
    for a in args:
        bad = bad | np.isnan(a)
    return np.where(bad, np.nan, lo), np.where(bad, np.nan, hi)


def _hull(*values):
    """Componentwise (min, max) over the candidate values; NaN if any
    candidate is NaN."""
    return _outward(functools.reduce(np.minimum, values),
                    functools.reduce(np.maximum, values))


def _periodic_range(lo, hi, func, peak, trough):
    """Range of sin or cos over [lo, hi], given one point where it is 1
    (``peak``) and one where it is -1 (``trough``)."""
    period = 2.0 * math.pi

    def hits(at):
        return np.floor((hi - at) / period) >= np.ceil((lo - at) / period)

    a, b = func(lo), func(hi)
    full = (hi - lo) >= period
    top = np.where(full | hits(peak), 1.0, np.maximum(a, b))
    bottom = np.where(full | hits(trough), -1.0, np.minimum(a, b))
    bottom, top = _outward(bottom, top)
    return np.maximum(bottom, -1.0), np.minimum(top, 1.0)


def _power_range(lo, hi, k):
    """Range of x^k over [lo, hi] for an integer k >= 1. The products of
    ``_ipow`` are monotone in |x| and each is within half an ulp, so its
    values at the ends, widened by one ulp per product, enclose both the
    exact power and the one ``evaluate`` computes."""
    bits = bin(k)[3:]
    a, b = _ipow(lo, bits), _ipow(hi, bits)
    if k % 2:
        low, high = a, b
    else:
        straddles = (lo < 0.0) & (hi > 0.0)
        low, high = np.where(straddles, 0.0, np.minimum(a, b)), np.maximum(a, b)
    for _ in range(max(1, len(bits) + bits.count("1"))):
        low, high = _outward(low, high)
    return low, high


def _interval(e, box):
    if isinstance(e, Const):
        return np.asarray(e.value), np.asarray(e.value)
    if isinstance(e, Var):
        lo, hi = box[e.name]
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if isinstance(e, Neg):
        lo, hi = _interval(e.arg, box)
        return -hi, -lo
    if isinstance(e, (Add, Sub, Mul, Div)):
        alo, ahi = _interval(e.left, box)
        blo, bhi = _interval(e.right, box)
        if isinstance(e, Add):
            return _outward(alo + blo, ahi + bhi)
        if isinstance(e, Sub):
            return _outward(alo - bhi, ahi - blo)
        if isinstance(e, Mul):
            return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo, hi = _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)
        pole = (blo <= 0.0) & (bhi >= 0.0)
        lo, hi = np.where(pole, -np.inf, lo), np.where(pole, np.inf, hi)
        return _poison(lo, hi, alo, ahi, blo, bhi)
    if isinstance(e, Pow):
        blo, bhi = _interval(e.base, box)
        k = e.exponent
        if k == 0:
            return _poison(np.ones_like(blo), np.ones_like(bhi), blo, bhi)
        lo, hi = _power_range(blo, bhi, abs(k))
        if k > 0:
            return lo, hi
        rlo, rhi = _outward(1.0 / hi, 1.0 / lo)
        pole = (lo <= 0.0) & (hi >= 0.0)
        rlo, rhi = np.where(pole, -np.inf, rlo), np.where(pole, np.inf, rhi)
        return _poison(rlo, rhi, lo, hi)
    if isinstance(e, Call):
        lo, hi = _interval(e.arg, box)
        if e.func == "sin":
            return _periodic_range(lo, hi, np.sin, 0.5 * math.pi, -0.5 * math.pi)
        if e.func == "cos":
            return _periodic_range(lo, hi, np.cos, 0.0, math.pi)
        if e.func == "exp":
            return _outward(np.exp(lo), np.exp(hi))
        if e.func == "log":
            rlo, rhi = _outward(np.log(lo), np.log(hi))
            return np.where(lo > 0.0, rlo, np.nan), np.where(lo > 0.0, rhi, np.nan)
        if e.func == "sqrt":
            rlo, rhi = _outward(np.sqrt(lo), np.sqrt(hi))
            rlo = np.maximum(rlo, 0.0)
            return np.where(lo >= 0.0, rlo, np.nan), np.where(lo >= 0.0, rhi, np.nan)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation with light, syntactic simplification

def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(base, k):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    return Pow(base, k)


def polynomial_degree(e: Expr) -> int | None:
    """Degree of ``e`` as a polynomial in its variables, or None where it
    is not one. Syntactic, so an upper bound: x1 - x1 has degree 1."""
    if isinstance(e, (Const, Var)):
        return int(isinstance(e, Var))
    if isinstance(e, (Neg, Call)):
        d = polynomial_degree(e.arg)
        return d if isinstance(e, Neg) or d == 0 else None
    if isinstance(e, Pow):
        d = polynomial_degree(e.base)
        return None if d is None or (e.exponent < 0 < d) else d * max(e.exponent, 0)
    a, b = polynomial_degree(e.left), polynomial_degree(e.right)
    if a is None or b is None or (isinstance(e, Div) and b > 0):
        return None
    return a + b if isinstance(e, Mul) else max(a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic derivative d e / d var."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Add):
        return _add(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left, var), e.right),
                    _mul(e.left, differentiate(e.right, var)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left, var), e.right),
                   _mul(e.left, differentiate(e.right, var)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)),
                    inner)
    if isinstance(e, Call):
        inner = differentiate(e.arg, var)
        if e.func == "sin":
            outer = Call("cos", e.arg)
        elif e.func == "cos":
            outer = _neg(Call("sin", e.arg))
        elif e.func == "exp":
            outer = Call("exp", e.arg)
        elif e.func == "log":
            outer = _div(Const(1.0), e.arg)
        elif e.func == "sqrt":
            outer = _div(Const(1.0), _mul(Const(2.0), Call("sqrt", e.arg)))
        else:
            raise TypeError(f"unknown function {e.func!r}")
        return _mul(outer, inner)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Printing (parse . to_string . parse is the identity on ASTs)

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC["add"]
    if isinstance(e, (Mul, Div)):
        return _PREC["mul"]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def to_string(e: Expr) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{_fmt_number(-e.value)})"
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC["neg"] + 1)
    if isinstance(e, Add):
        return _wrap(e.left, _PREC["add"]) + " + " + _wrap(e.right, _PREC["add"] + 1)
    if isinstance(e, Sub):
        return _wrap(e.left, _PREC["add"]) + " - " + _wrap(e.right, _PREC["add"] + 1)
    if isinstance(e, Mul):
        return _wrap(e.left, _PREC["mul"]) + "*" + _wrap(e.right, _PREC["mul"] + 1)
    if isinstance(e, Div):
        return _wrap(e.left, _PREC["mul"]) + "/" + _wrap(e.right, _PREC["mul"] + 1)
    if isinstance(e, Pow):
        return _wrap(e.base, _PREC["pow"] + 1) + "^" + str(e.exponent)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


def _wrap(e, minimum):
    text = to_string(e)
    if _prec(e) < minimum:
        return "(" + text + ")"
    return text


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
