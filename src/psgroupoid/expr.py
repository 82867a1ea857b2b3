"""Scalar expressions in named real variables: parsing, symbolic
differentiation, and one compiler for their values. A ``Program``
compiles an expression, or several that share subexpressions, into one
straight-line Python function of plain arithmetic, and runs it on
numbers and on numpy arrays (``evaluate``), or as the body of a loop on
floats (``Program.loop``); its form on interval enclosures
(``evaluate_interval``) compiles on first use.

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
import re
import sys

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "SyntaxExprError", "UnknownIdentifierError", "DomainError",
    "Program", "parse", "evaluate", "evaluate_interval", "differentiate",
    "polynomial_degree", "split_out", "substitute", "to_string",
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


class DomainError(ExprError, ValueError):
    """A value outside the domain: of a function, of the floats, or of a
    Poisson structure (``poisson`` raises this class too)."""


class _Record:
    """Immutable value whose class names its fields in ``__slots__`` in
    the order of its constructor; values of one class with equal fields
    are equal, and hash as the tuple of them."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Expr(_Record):
    """Expression tree node; ``_program`` caches the Program ``evaluate`` runs."""

    __slots__ = ("_program",)


class Const(Expr):
    __slots__ = ("value",)


class Var(Expr):
    __slots__ = ("name",)


class Neg(Expr):
    __slots__ = ("arg",)


class Add(Expr):
    __slots__ = ("left", "right")


class Sub(Expr):
    __slots__ = ("left", "right")


class Mul(Expr):
    __slots__ = ("left", "right")


class Div(Expr):
    __slots__ = ("left", "right")


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: an int


class Call(Expr):
    __slots__ = ("func", "arg")


# ---------------------------------------------------------------------------
# Parsing

# a number, a name, or one other character; whitespace separates tokens
_TOKEN = re.compile(r"(?P<number>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)|(?P<other>\S)")


class _Parser:
    def __init__(self, source, variables):
        self.tokens = [(t.lastgroup, t.group(), t.start()) for t in _TOKEN.finditer(source)]
        self.tokens.append(("end", None, len(source)))
        self.next = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.next][1]

    def offset(self):
        return self.tokens[self.next][2]

    def expect(self, char):
        if self.peek() != char:
            raise SyntaxExprError(f"expected {char!r}", self.offset())
        self.next += 1

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise SyntaxExprError("unexpected trailing input", self.offset())
        return node

    def expr(self):
        return self.chain(self.term, {"+": Add, "-": Sub})

    def term(self):
        return self.chain(self.factor, {"*": Mul, "/": Div})

    def chain(self, operand, operators):
        """operand (operator operand)*, grouped from the left."""
        node = operand()
        while self.peek() in operators:
            op = operators[self.peek()]
            self.next += 1
            node = op(node, operand())
        return node

    def factor(self):
        node = self.base()
        if self.peek() == "^":
            self.next += 1
            node = Pow(node, self.integer())
        return node

    def integer(self):
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.next += 1
        kind, text, offset = self.tokens[self.next]
        if kind != "number" or not text.isdigit():
            raise SyntaxExprError("expected integer exponent", offset)
        self.base()  # a Const, refused unless finite
        return sign * int(text)

    def base(self):
        kind, text, offset = self.tokens[self.next]
        if kind == "end":
            raise SyntaxExprError("unexpected end of input", offset)
        self.next += 1
        if text == "-":
            return Neg(self.factor())
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "number":
            try:
                value = float(text)
            except ValueError:
                raise SyntaxExprError(f"bad number {text!r}", offset) from None
            if value - value != 0.0:  # every Const is finite
                raise SyntaxExprError(f"number {text!r} overflows a float", offset)
            return Const(value)
        if kind == "name":
            if self.peek() == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifierError(text, offset)
                self.next += 1
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in _FUNCTIONS:
                raise SyntaxExprError(f"function {text!r} needs an argument", offset)
            if text not in self.variables:
                raise UnknownIdentifierError(text, offset)
            return Var(text)
        raise SyntaxExprError(f"unexpected character {text!r}", offset)


def parse(source: str, variables) -> Expr:
    """Parse ``source`` into an Expr over the declared ``variables``."""
    if not source or not source.strip():
        raise SyntaxExprError("empty input", 0)
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# Evaluation: one compiler, three kinds of value

_NUMBERS = frozenset({float, int, np.float64})
_NOT_FINITE = "value overflows or is not finite"


def evaluate(e, point: dict):
    """Value of ``e``, an Expr or a Program, at ``point``, a map from
    variable names to numbers or to numpy arrays that broadcast together.
    Numbers give a float. Where a variable of ``e`` is an array, the
    result is an array of the variables' broadcast shape; a constant
    ``e`` then takes the broadcast shape of all the values. A Program
    gives the list of its roots' values, each of that shape on arrays.

    One domain rule covers both: the value is defined when every node of
    ``e`` is a finite number, no divisor is 0, no power with a negative
    exponent has base 0, no log has an argument <= 0 and no sqrt one
    < 0 (0^0 is 1), and ``point`` binds every variable. Otherwise
    DomainError. An array raises exactly when one of its elements would as
    a number, with that element's message, and a Program when a root would."""
    program = getattr(e, "_program", None) or Program(e)
    try:
        value = program.numbers(point)
    except (_Arrays, ArithmeticError, KeyError):  # an array, or an error the array run reports
        return program.on_arrays(point)
    if (value - value == 0.0) if program.single else all(v - v == 0.0 for v in value):
        return value
    raise DomainError(_NOT_FINITE)


def evaluate_interval(e, box: dict):
    """Natural interval extension over a batch of boxes: ``box`` maps
    each variable name to a pair ``(lo, hi)`` of broadcastable arrays,
    and the result is a pair ``(lo, hi)`` of arrays with
    ``lo <= e(x) <= hi`` for every x in each box where ``evaluate``
    would succeed (Moore, Kearfott & Cloud, *Introduction to Interval
    Analysis*, SIAM 2009); of a Program, the list of its roots' pairs.

    Every node's result is widened outward by one ulp, which covers the
    rounding of IEEE arithmetic and of elementary functions accurate to
    one ulp. A denominator or negative-power base whose interval holds 0
    gives (-inf, inf). A box that leaves the domain of ``log`` or
    ``sqrt`` gives NaN bounds, and NaN propagates through every later
    node, so such an enclosure never excludes any value."""
    program = getattr(e, "_program", None) or Program(e)
    shape = _broadcast_shape([b for pair in box.values() for b in pair])
    values = _run(program.intervals, box)
    # every node makes new arrays and VAR copies the box, so bounds of the broadcast shape are
    # returned as they are; of shape (), a bound may be a numpy scalar or a Program constant
    bounds = [pair if shape and pair[0].shape == pair[1].shape == shape else
              tuple(np.broadcast_to(b, shape).astype(float) for b in pair)
              for pair in ([values] if program.single else values)]
    return bounds[0] if program.single else bounds


class Program:
    """One Expr, or a sequence of them (the roots), compiled into one
    straight-line Python function, ``source``, with one slot per distinct
    subexpression: nodes are hash-consed on their kind and their
    children's slots, constants on their ``repr`` (0.0 is not -0.0).
    ``source`` writes +, -, * and positive integer powers (``_ipow``'s
    products) in Python, and calls by name only the operations that check
    a domain: /, the other powers and the functions. It runs on ``numbers``
    and on ``arrays``, for ``evaluate``, and ``loop`` iterates its lines.
    ``intervals``, on (lo, hi) pairs, for ``evaluate_interval``, calls
    every operation by name and compiles on first use. An Expr compiles
    into a Program of its own, once, when it is first evaluated."""

    __slots__ = ("single", "source", "numbers", "arrays", "_lines", "_variables", "_results",
                 "_constants", "_intervals", "_program")

    def __init__(self, roots):
        self.single, self._program = isinstance(roots, Expr), self  # evaluate reads e._program
        # lines: pairs (statements that call every operation by name, the same in Python or None for a load)
        names, memo, varying, constants, lines, variables = {}, {}, set(), {}, [], {}

        def slot(e):
            """The name of e's slot, after the lines that fill it."""
            if id(e) in memo:
                return memo[id(e)]
            args = [slot(f) for f in e._fields() if isinstance(f, Expr)]
            if isinstance(e, Const):
                key = repr(e.value)
            elif isinstance(e, Var):
                key = f"p[{e.name!r}]"
            elif isinstance(e, Pow):  # with the bits of |k| for _ipow
                key = f"POW({args[0]}, {e.exponent}, {bin(abs(e.exponent))[3:]!r})"
            elif isinstance(e, Call) and e.func in _FUNCTIONS:
                key = f"{e.func}({args[0]})"
            elif type(e) in _OPERATORS:
                key = f"{_OPERATORS[type(e)]}({', '.join(args)})"
            else:
                raise TypeError(f"not an Expr node: {e!r}")
            if key not in names:
                name = names[key] = ("c" if isinstance(e, Const) else "s") + str(len(names))
                if isinstance(e, Const):
                    constants[name] = e.value
                elif isinstance(e, Var):  # a number as a float, anything else through VAR
                    variables[e.name] = name
                    lines.append(([f"{name} = {key}", f"if {name}.__class__ is not float: {name} = "
                                   f"float({name}) if {name}.__class__ in NUMBERS else VAR({name})"], None))
                elif isinstance(e, Pow) and e.exponent > 0:  # the products of _ipow
                    lines.append(([f"{name} = {key}"], [f"{name} = {args[0]}"] + [
                        f"{name} = {name} * {name}" + f" * {args[0]}" * int(b) for b in bin(e.exponent)[3:]]))
                else:
                    python = _PYTHON[type(e)].format(*args) if type(e) in _PYTHON else key
                    lines.append(([f"{name} = {key}"], [f"{name} = {python}"]))
                if isinstance(e, Var) or not varying.isdisjoint(args):
                    varying.add(name)
            memo[id(e)] = names[key]
            return names[key]

        self._results = [slot(r) for r in ([roots] if self.single else roots)]
        if not varying.issuperset(self._results):  # a constant root: any array in p is a batch
            lines.insert(0, (["for v in p.values(): v.__class__ is float or v.__class__ in NUMBERS or VAR(v)"],
                             None))
        self._lines, self._variables, self._constants, self._intervals = lines, variables, constants, None
        self.source, self.numbers, self.arrays = _define("p", self._body(False), _ON_NUMBERS, _ON_ARRAYS,
                                                         **constants)
        if self.single:
            object.__setattr__(roots, "_program", self)

    def _body(self, named):
        """The lines of run(p), with every operation called by name or not."""
        results = self._results[0] if self.single else f"[{', '.join(self._results)}]"
        return [line for calls, python in self._lines for line in (calls if named or not python else python)
                ] + [f"return {results}"]

    @property
    def intervals(self):
        if self._intervals is None:  # compiled on first use
            bounds = {name: (np.asarray(v), np.asarray(v)) for name, v in self._constants.items()}
            _, self._intervals = _define("p", self._body(True), _ON_INTERVALS, **bounds)
        return self._intervals

    def loop(self, state, sequences):
        """The roots iterated on Python floats, as a compiled run(x, values, p):
        from the state x, of the variables ``state`` names (one per root), each
        step binds the next row of each sequence of ``values`` to the variables
        of ``sequences`` and the rest from ``p``, and makes the roots the state.
        run returns the states after each step in one list, up to the first step
        that raises; where ``evaluate`` raises, a step may give a state not finite."""
        if len(state) != len(self._results):
            raise ValueError(f"need one state variable per root, got {len(state)} for {len(self._results)}")
        slots, results = self._variables, "".join(f"{r}, " for r in self._results)
        target = lambda names: "".join(f"{slots.get(v, '_')}, " for v in names)  # "_": not read
        body = [*(f"{name} = p[{v!r}]" for v, name in slots.items() if v not in set(state).union(*sequences)),
                f"{target(state)}= x", "out = []", "try:",
                f"    for {', '.join(f'({target(row)})' for row in sequences)} in zip(*values):",
                *(f"        {line}" for _, python in self._lines for line in python or ()),
                f"        out += {results}", f"        {target(state)}= {results}",
                "except (ArithmeticError, ValueError):", "    pass", "return out"]
        return _define("x, values, p", body, _ON_FLOATS, **self._constants)[1]

    def on_arrays(self, point):
        """``arrays`` at ``point``, the roots checked to be finite in one pass
        and each that is a number given the broadcast shape of the point."""
        values = _run(self.arrays, point)
        _require(np.isfinite(values if self.single else np.concatenate(values, None)), _NOT_FINITE)
        roots, shape = [values] if self.single else values, None
        for k, v in enumerate(roots):
            if v.__class__ is float:
                shape = shape or _broadcast_shape(list(point.values()))
                roots[k] = np.full(shape, v)
        return roots[0] if self.single else roots


_OPERATORS = {Neg: "NEG", Add: "ADD", Sub: "SUB", Mul: "MUL", Div: "DIV"}
_PYTHON = {Neg: "-{}", Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}"}  # the operations that check nothing


def _define(parameters, body, *operations, **constants):
    """The source of run(parameters) with the lines ``body``, and run in each namespace."""
    source = f"def run({parameters}):\n" + "".join(f"    {line}\n" for line in body)
    code, namespaces = compile(source, "<expr.Program>", "exec"), [dict(o, **constants) for o in operations]
    for namespace in namespaces:
        exec(code, namespace)
    return [source] + [namespace["run"] for namespace in namespaces]


def _broadcast_shape(values):
    """The shape of ``values`` broadcast, by np.broadcast, 64 values at a time."""
    return np.broadcast(*(np.broadcast(*values[k:k + 64]) for k in range(0, len(values), 64))).shape


def _run(run, point):
    """``run(point)`` with IEEE warnings off; an unbound variable or a math
    overflow raises DomainError."""
    try:
        with np.errstate(all="ignore"):
            return run(point)
    except KeyError as err:
        raise DomainError(f"variable {err.args[0]!r} not bound") from None
    except ArithmeticError:
        raise DomainError(_NOT_FINITE) from None


class _Arrays(Exception):
    """Raised where an evaluation on numbers meets an array."""


def _raise_arrays(v):
    raise _Arrays


def _variables(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    return frozenset().union(*(_variables(f) for f in e._fields() if isinstance(f, Expr)))


def split_out(exprs, name: str) -> tuple[list, dict]:
    """``exprs`` with each largest subtree whose only variable is ``name``
    replaced by a new variable ``name#k``, and a dict from each new name
    to its subtree (equal subtrees share one). Bound to the value of its
    subtree, a new variable gives the value of the original to the bit."""
    names = {}

    def rewrite(e):
        found = _variables(e)
        if found == {name}:
            return Var(names.setdefault(e, f"{name}#{len(names)}"))
        if name not in found:
            return e
        return type(e)(*(rewrite(f) if isinstance(f, Expr) else f for f in e._fields()))

    return [rewrite(e) for e in exprs], {new: e for e, new in names.items()}


def substitute(e: Expr, values: dict) -> Expr:
    """``e`` with each variable that ``values`` names replaced, all at once,
    by the expression it maps to."""
    if isinstance(e, Var):
        return values.get(e.name, e)
    return type(e)(*(substitute(f, values) if isinstance(f, Expr) else f for f in e._fields()))


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


# The operations of a Program's source on numbers and arrays. Past its
# own domain, an operation checks only arguments whose non-finite values
# it could turn finite; the check of the roots rejects the rest.

def _quotient(num, den):
    _require(den != 0.0, "division by zero")
    _require(_finite(den), _NOT_FINITE)
    return num / den


def _power(x, k, bits):
    if k > 0:
        return _ipow(x, bits)
    _require(_finite(x), _NOT_FINITE)
    if k == 0:
        return x * 0.0 + 1.0  # 1 in the type and shape of x
    _require(x != 0.0, "zero raised to a negative power")
    try:
        return 1.0 / _ipow(x, bits)
    except ZeroDivisionError:  # a float x^|k| that underflows to +-0, where numpy gives +-inf
        return math.copysign(math.inf, _ipow(x, bits))


_ARGUMENT_DOMAINS = {  # function -> (test of the argument, message)
    "exp": (_finite, _NOT_FINITE),  # exp(-inf) would be a finite 0
    "log": (lambda x: x > 0.0, "log of nonpositive value"),
    "sqrt": (lambda x: x >= 0.0, "sqrt of negative value"),
}


# on a float, numpy's exp and log, whose bits an array gets, where math's differ in the last;
# above log(max float), np.exp overflows, with a warning
_EXP_MAX = math.log(sys.float_info.max)
_ON_FLOAT = {"exp": lambda x: math.inf if x > _EXP_MAX else float(np.exp(x)),
             "log": lambda x: float(np.log(x))}


def _function(name):
    scalar, vector = _ON_FLOAT.get(name, getattr(math, name)), getattr(np, name)
    test, message = _ARGUMENT_DOMAINS.get(name, (None, None))

    def run(x):
        if test is not None:
            _require(test(x), message)
        if x.__class__ is not float:
            return vector(x)  # sin(inf) is nan, which the root check rejects
        try:
            return scalar(x)
        except ValueError:  # math.sin(inf), where np.sin gives nan
            return math.nan
    return run


_OPERATIONS = {"NUMBERS": _NUMBERS, "DIV": _quotient, "POW": _power, **{f: _function(f) for f in _FUNCTIONS}}
_ON_NUMBERS = dict(_OPERATIONS, VAR=_raise_arrays)
_ON_ARRAYS = dict(_OPERATIONS, VAR=lambda v: np.asarray(v, dtype=float))
# in a loop, x / inf, log(nan) and sqrt(nan) give NaN where evaluate raises, and it reaches the
# state; math.log raises at x <= 0, where np.log would warn
_ON_FLOATS = dict(_ON_NUMBERS, DIV=lambda a, b: a / b if b - b == 0.0 else math.nan,
                  log=lambda x: float(np.log(x)) if x > 0.0 else math.log(x), sqrt=math.sqrt)


# The operations of a Program's source on intervals, (lo, hi) pairs

def _outward(lo, hi):
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _inside(ok, lo, hi):
    """(lo, hi) where ``ok``, NaN where an argument leaves the domain."""
    return np.where(ok, lo, np.nan), np.where(ok, hi, np.nan)


def _poison(lo, hi, *args):
    """NaN wherever one of the argument enclosures ``args`` is NaN."""
    return _inside(~functools.reduce(np.logical_or, map(np.isnan, args)), lo, hi)


def _hull(*values):
    """Componentwise (min, max) over the candidates, widened; NaN if any is."""
    return _outward(functools.reduce(np.minimum, values),
                    functools.reduce(np.maximum, values))


def _quotient_range(a, b):
    (alo, ahi), (blo, bhi) = a, b
    lo, hi = _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    pole = (blo <= 0.0) & (bhi >= 0.0)  # (-inf, inf) where the divisor can be 0
    return _poison(np.where(pole, -np.inf, lo), np.where(pole, np.inf, hi), alo, ahi, blo, bhi)


def _power_range(a, k, bits):
    """Range of x^k over a for |k| = int("1" + bits, 2). The products of
    ``_ipow`` are monotone in |x| and each is within half an ulp, so its
    values at the ends, widened by one ulp per product, enclose both the
    exact power and the one ``evaluate`` computes."""
    blo, bhi = a
    if k == 0:
        return _poison(np.ones_like(blo), np.ones_like(bhi), blo, bhi)
    lo, hi = _ipow(blo, bits), _ipow(bhi, bits)
    if k % 2 == 0:
        straddles = (blo < 0.0) & (bhi > 0.0)
        lo, hi = np.where(straddles, 0.0, np.minimum(lo, hi)), np.maximum(lo, hi)
    for _ in range(max(1, len(bits) + bits.count("1"))):
        lo, hi = _outward(lo, hi)
    if k > 0:
        return lo, hi
    rlo, rhi = _outward(1.0 / hi, 1.0 / lo)
    pole = (lo <= 0.0) & (hi >= 0.0)
    return _poison(np.where(pole, -np.inf, rlo), np.where(pole, np.inf, rhi), lo, hi)


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


def _sqrt_range(a):
    lo, hi = _outward(np.sqrt(a[0]), np.sqrt(a[1]))
    return _inside(a[0] >= 0.0, np.maximum(lo, 0.0), hi)


_ON_INTERVALS = {
    "NUMBERS": _NUMBERS, "VAR": lambda bounds: tuple(np.array(b, dtype=float) for b in bounds),
    "NEG": lambda a: (-a[1], -a[0]),
    "ADD": lambda a, b: _outward(a[0] + b[0], a[1] + b[1]),
    "SUB": lambda a, b: _outward(a[0] - b[1], a[1] - b[0]),
    "MUL": lambda a, b: _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]),
    "DIV": _quotient_range, "POW": _power_range,
    "sin": lambda a: _periodic_range(*a, np.sin, 0.5 * math.pi, -0.5 * math.pi),
    "cos": lambda a: _periodic_range(*a, np.cos, 0.0, math.pi),
    "exp": lambda a: _outward(np.exp(a[0]), np.exp(a[1])), "sqrt": _sqrt_range,
    "log": lambda a: _inside(a[0] > 0.0, *_outward(np.log(a[0]), np.log(a[1]))),
}


# ---------------------------------------------------------------------------
# Differentiation with light, syntactic simplification

def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value - b.value):
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
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value * b.value):
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

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}  # atoms bind at 5
_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def to_string(e: Expr) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{_number_text(-e.value)})"
        return _number_text(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC[Neg] + 1)
    if isinstance(e, (Add, Sub, Mul, Div)):
        level = _PREC[type(e)]
        return _wrap(e.left, level) + _INFIX[type(e)] + _wrap(e.right, level + 1)
    if isinstance(e, Pow):
        return _wrap(e.base, _PREC[Pow] + 1) + "^" + str(e.exponent)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


def _wrap(e, minimum):
    text = to_string(e)
    if _PREC.get(type(e), 5) < minimum:
        return "(" + text + ")"
    return text


def _number_text(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
