import copy
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psgroupoid import expr as ex


VARS = ["x1", "x2"]


def ev(src, **point):
    return ex.evaluate(ex.parse(src, VARS), point)


def test_basic_arithmetic():
    assert ev("1+2*3") == 7.0
    assert ev("(1+2)*3") == 9.0
    assert ev("2^3") == 8.0
    assert ev("2^-2") == 0.25
    assert ev("7/2") == 3.5
    assert ev("x1*x2", x1=3.0, x2=-2.0) == -6.0


def test_unary_minus_binds_looser_than_power():
    # -x^2 must mean -(x^2)
    assert ev("-2^2") == -4.0
    assert ev("-x1^2", x1=3.0) == -9.0
    assert ev("(-2)^2") == 4.0


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert math.isclose(ev("exp(1)"), math.e)
    assert math.isclose(ev("log(exp(2))"), 2.0)
    assert ev("sqrt(9)") == 3.0


def test_integer_power_of_negative_base():
    assert ev("(-2)^3") == -8.0
    assert ev("x1^2", x1=-1.5) == 2.25


@pytest.mark.parametrize("bad", ["1+", "x3", "sin()", "2**3", "1..2",
                                 "foo(1)", "(1+2", "x1 x2", "", "2^3^2",
                                 "2^x1"])
def test_parse_errors(bad):
    with pytest.raises(ex.ExprError):
        ex.parse(bad, VARS)


@pytest.mark.parametrize("bad, message", [
    ("x1^2.0", "expected integer exponent at offset 3"),
    ("x1^5E5", "expected integer exponent at offset 3"),
    ("x1^\u00b2", "expected integer exponent at offset 3"),  # a superscript two
    ("x1 + 1.2.3", "bad number '1.2.3' at offset 5"),
    ("(x1 + 2", "expected ')' at offset 7"),
    ("x1 x2", "unexpected trailing input at offset 3"),
    ("x1 * $", "unexpected character '$' at offset 5"),
    ("2e", "unexpected trailing input at offset 1"),
    ("sin + 1", "function 'sin' needs an argument at offset 0"),
    ("x1 -  ", "unexpected end of input at offset 6"),
])
def test_parse_error_messages_and_offsets(bad, message):
    with pytest.raises(ex.SyntaxExprError) as info:
        ex.parse(bad, VARS)
    assert str(info.value) == message


@pytest.mark.parametrize("bad, message", [
    ("1e400*x1", "number '1e400' overflows a float at offset 0"),
    ("x1 + 2e309", "number '2e309' overflows a float at offset 5"),
    ("x1^" + "9" * 401, f"number '{'9' * 401}' overflows a float at offset 3"),
    ("x1^-" + "9" * 401, f"number '{'9' * 401}' overflows a float at offset 4"),
])
def test_a_number_that_overflows_a_float_is_a_syntax_error(bad, message):
    # every Const stays finite: differentiate and to_string took inf to int()
    with pytest.raises(ex.SyntaxExprError) as info:
        ex.parse(bad, VARS)
    assert str(info.value) == message


@pytest.mark.parametrize("src, printed", [
    ("1e200*(1e200*x1)", "1e+200*1e+200"),  # a product
    ("1e308*x1 + 1e308*x1", "1e+308 + 1e+308"),  # a sum
    ("1e308*x1 - -(1e308*x1)", "1e+308 - (-1e+308)"),  # a difference
])
def test_constants_fold_only_to_a_finite_value(src, printed):
    d = ex.differentiate(ex.parse(src, VARS), "x1")
    assert ex.to_string(d) == printed
    for e in (d, ex.parse(printed, VARS)):  # the printed form parses back
        with pytest.raises(ex.DomainError):
            ex.evaluate(e, {})
    assert ex.differentiate(ex.parse("1e100*(1e100*x1)", VARS), "x1") == ex.Const(1e200)


def test_parse_reads_exponents_signs_and_spaces():
    assert ex.to_string(ex.parse(" x1 ^ - 2*2.5e-1 + x2^10", VARS)) == "x1^-2*0.25 + x2^10"
    with pytest.raises(ex.UnknownIdentifierError, match="'foo' at offset 3"):
        ex.parse("2*(foo(x1))", VARS)


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ev("1/x1", x1=0.0)
    with pytest.raises(ex.DomainError):
        ev("log(x1)", x1=-1.0)
    with pytest.raises(ex.DomainError):
        ev("sqrt(x1)", x1=-1.0)


@pytest.mark.parametrize("src, x1", [("exp(1000)", 0.0), ("x1^2", 1e200),
                                     ("sin(x1)", math.inf),
                                     ("exp(-exp(x1))", 1000.0),
                                     ("1/x1", math.inf), ("x1^0", math.inf),
                                     ("x1^-2", 1e-200)])
def test_overflow_and_infinities_raise_on_numbers_and_arrays(src, x1):
    e = ex.parse(src, VARS)
    with pytest.raises(ex.DomainError):
        ex.evaluate(e, {"x1": x1})
    with pytest.raises(ex.DomainError):
        ex.evaluate(e, {"x1": np.array([0.5, x1])})


def test_constants_take_the_shape_of_the_point():
    e = ex.parse("2^3", VARS)
    assert ex.evaluate(e, {}) == 8.0
    out = ex.evaluate(e, {"x1": np.zeros((2, 3)), "x2": 1.0})
    assert out.shape == (2, 3) and np.all(out == 8.0)


def test_missing_variable_value():
    e = ex.parse("x1+x2", VARS)
    for x1 in (1.0, np.ones(3)):
        with pytest.raises(ex.DomainError, match="variable 'x2' not bound"):
            ex.evaluate(e, {"x1": x1})
    with pytest.raises(ex.DomainError, match="variable 'x2' not bound"):
        ex.evaluate_interval(e, {"x1": (np.zeros(3), np.ones(3))})


def test_split_out_replaces_the_largest_subtrees_of_one_variable():
    names = ["x1", "u"]
    exprs = [ex.parse(src, names) for src in
             ("0.3*sin(3*u)*x1 + u*(1-u)", "x1*sin(3*u)", "sin(3*u) - x1^2", "x1^2", "2")]
    rewritten, parts = ex.split_out(exprs, "u")
    # sin(3*u) occurs twice and has one name
    assert sorted(ex.to_string(e) for e in parts.values()) == ["0.3*sin(3*u)", "sin(3*u)", "u*(1 - u)"]
    assert [ex.to_string(e) for e in rewritten[3:]] == ["x1^2", "2"]  # no u: unchanged
    u, x1 = np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 9)
    point = {"x1": x1, **{name: ex.evaluate(e, {"u": u}) for name, e in parts.items()}}
    for old, new in zip(exprs, rewritten):
        assert ex.to_string(new).count("u#") == ex.to_string(new).count("u")
        assert np.array_equal(ex.evaluate(new, point), ex.evaluate(old, {"x1": x1, "u": u}))


X1, TWO = ex.Var("x1"), ex.Const(2.0)
NODES = [  # a node, its fields by name, its repr
    (ex.Const(2.0), {"value": 2.0}, "Const(value=2.0)"),
    (ex.Var("x1"), {"name": "x1"}, "Var(name='x1')"),
    (ex.Neg(X1), {"arg": X1}, "Neg(arg=Var(name='x1'))"),
    *((cls(X1, TWO), {"left": X1, "right": TWO}, f"{cls.__name__}(left=Var(name='x1'), right=Const(value=2.0))")
      for cls in (ex.Add, ex.Sub, ex.Mul, ex.Div)),
    (ex.Pow(X1, 3), {"base": X1, "exponent": 3}, "Pow(base=Var(name='x1'), exponent=3)"),
    (ex.Call("sin", X1), {"func": "sin", "arg": X1}, "Call(func='sin', arg=Var(name='x1'))"),
]


@pytest.mark.parametrize("node, fields, text", NODES, ids=[type(n).__name__ for n, _, _ in NODES])
def test_an_expression_node_is_an_immutable_value(node, fields, text):
    # equal by class and fields, hashed as the tuple of its fields (which
    # fixes the order of every dict and set of nodes), printed, copied and
    # pickled by its fields, and never assigned to
    cls, values = type(node), tuple(fields.values())
    assert node == cls(*values) and hash(node) == hash(cls(*values)) == hash(values)
    assert node != cls(*values[:-1], ex.Var("x2"))
    others = [type(n)(*values) for n, f, _ in NODES if type(n) is not cls and len(f) == len(fields)]
    assert others and all(node != o and o != node for o in others)  # Add(a, b) != Sub(a, b)
    assert node.__eq__(values) is NotImplemented and node != values
    assert repr(node) == text
    assert ex.evaluate(node, {"x1": 0.5}) == ex.evaluate(cls(*values), {"x1": 0.5})  # caches a program
    for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(copied) is cls and copied == node and hash(copied) == hash(node)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(node, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in fields) == values


def test_evaluate_on_arrays_matches_numbers():
    e = ex.parse("sin(x1)*x2 + x1^3", VARS)
    xs = np.linspace(-2, 2, 17)
    ys = np.linspace(0.5, 3, 17)
    arr = ex.evaluate(e, {"x1": xs, "x2": ys})
    for k in range(17):
        assert math.isclose(arr[k], ex.evaluate(e, {"x1": xs[k], "x2": ys[k]}),
                            rel_tol=1e-14)


_NOT_FINITE = "value overflows or is not finite"
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0]


# each function of a domain at NaN, inf, -inf, 0, -0 and -2: the value or the message
@pytest.mark.parametrize("src, outcomes", [
    ("sqrt(x1)", ["sqrt of negative value", _NOT_FINITE, "sqrt of negative value", 0.0, -0.0,
                  "sqrt of negative value"]),
    ("log(x1)", ["log of nonpositive value", _NOT_FINITE] + ["log of nonpositive value"] * 4),
    ("exp(x1)", [_NOT_FINITE] * 3 + [1.0, 1.0, math.exp(-2.0)]),
    ("1/x1", [_NOT_FINITE] * 3 + ["division by zero", "division by zero", -0.5]),
    ("x1^-2", [_NOT_FINITE] * 3 + ["zero raised to a negative power"] * 2 + [0.25]),
])
def test_numbers_keep_the_values_and_messages_of_arrays(src, outcomes):
    # a NaN argument of sqrt or log is out of its domain, not a NaN value
    e = ex.parse(src, VARS)
    for x, want in zip(_SPECIAL, outcomes):
        for point in (x, np.array(x), np.array([0.5, x])):
            if isinstance(want, str):
                with pytest.raises(ex.DomainError, match=f"^{want}$"):
                    ex.evaluate(e, {"x1": point})
            else:
                got = np.ravel(ex.evaluate(e, {"x1": point}))[-1]
                assert np.array_equal(got, want) and math.copysign(1.0, got) == math.copysign(1.0, want)


# a value that math cannot give (sin(inf), exp(710), 1 / (1e-400 -> 0.0))
# ahead of a later domain error: numpy goes on with nan or inf to that error
@pytest.mark.parametrize("src, x1, x2, message", [
    ("sin(x1) + log(x2)", math.inf, -1.0, "log of nonpositive value"),
    ("cos(x1) + sqrt(x2)", -math.inf, -1.0, "sqrt of negative value"),
    ("sin(x1) + x2", math.inf, 1.0, _NOT_FINITE),
    ("exp(x1) - 1/x2", 710.0, 0.0, "division by zero"),
    ("(x1^-1)^-2 + log(x2)", -1e200, -1.0, "log of nonpositive value"),
    ("sqrt((x1^-1)^-3) + x2", -1e200, 1.0, "sqrt of negative value"),  # 1 / -0.0 is -inf
])
def test_numbers_name_the_error_that_arrays_name(src, x1, x2, message):
    e = ex.parse(src, VARS)

    def batch(v):
        return np.array([0.5, v])

    for wrap1, wrap2 in ((float, float), (np.array, np.array), (batch, batch), (float, batch), (batch, float)):
        with pytest.raises(ex.DomainError, match=f"^{message}$"):
            ex.evaluate(e, {"x1": wrap1(x1), "x2": wrap2(x2)})


@pytest.mark.parametrize("k", [*range(1, 10), *range(-3, 1)])
def test_integer_powers_have_the_same_bits_on_numbers_and_arrays(k):
    x = np.random.default_rng(k + 3).uniform(-3.0, 3.0, 64)
    e = ex.parse(f"x1^{k}", VARS)
    numbers = np.array([ex.evaluate(e, {"x1": v}) for v in x.tolist()])
    assert numbers.tobytes() == ex.evaluate(e, {"x1": x}).tobytes()


@pytest.mark.parametrize("src", ["exp(x1)", "log(x1)", "sin(x1)", "cos(x1)", "sqrt(x1)"])
def test_functions_have_the_same_bits_on_numbers_arrays_and_loops(src):
    # math.exp and math.log differ from np.exp and np.log in the last bit
    # at about 1 in 20 and 1 in 600 of these points
    x = np.random.default_rng(3).uniform(-5.0, 5.0, 20000)
    if src.startswith(("log", "sqrt")):
        x = np.abs(x)
    e = ex.parse(src, VARS)
    arrays = ex.evaluate(e, {"x1": x}).tobytes()
    assert np.array([ex.evaluate(e, {"x1": v}) for v in x.tolist()]).tobytes() == arrays
    loop = ex.Program([e]).loop(["x2"], [["x1"]])
    assert np.array(loop([0.0], [x.tolist()], {})).tobytes() == arrays


def test_a_loop_binds_one_column_per_variable():
    # one sequence of two variables used to end in a ValueError that the
    # loop took for a failed step, and so to give []
    e = ex.parse("y + x1*x2", ["y", "x1", "x2"])
    for sequences in ([["x1", "x2"]], [["x1"], ["x2"]]):
        loop = ex.Program([e]).loop(["y"], sequences)
        assert loop([0.0], [[1.0, 3.0], [2.0, 4.0]], {}) == [2.0, 14.0]
        with pytest.raises(ValueError, match="^need 2 sequences, one per variable, got 1$"):
            loop([0.0], [[(1.0, 2.0), (3.0, 4.0)]], {})


def test_exp_overflows_on_a_number_without_a_warning():
    e = ex.parse("exp(x1)", VARS)
    for x1 in (709.782712893384, 710.0, 1e300):
        with pytest.raises(ex.DomainError, match="^value overflows or is not finite$"):
            ex.evaluate(e, {"x1": np.nextafter(x1, math.inf)})
    assert ex.evaluate(e, {"x1": 709.782712893384}) == np.exp(709.782712893384)


@pytest.mark.parametrize("src", ["x1 + x2", "x1 - x2", "x1*x2", "x1/x2",
                                 "x1^3", "x1^4", "x1^0", "x1^-2", "x1^-3", "-x1",
                                 "sin(x1)", "cos(x1)", "exp(x1)", "log(x1)",
                                 "sqrt(x1)"])
def test_evaluate_interval_encloses_values(src):
    e = ex.parse(src, VARS)
    rng = np.random.default_rng(0)
    centre = rng.uniform(-4, 4, (200, 2))
    half = 10.0 ** rng.uniform(-6, 1, (200, 2))
    lo_box, hi_box = centre - half, centre + half
    lo, hi = ex.evaluate_interval(e, {"x1": (lo_box[:, 0], hi_box[:, 0]),
                                      "x2": (lo_box[:, 1], hi_box[:, 1])})
    for k in range(200):
        undefined = False
        for s1 in np.linspace(0, 1, 5):
            for s2 in (0.0, 0.5, 1.0):
                point = {"x1": min(hi_box[k, 0], lo_box[k, 0] + s1 * 2 * half[k, 0]),
                         "x2": min(hi_box[k, 1], lo_box[k, 1] + s2 * 2 * half[k, 1])}
                try:
                    value = ex.evaluate(e, point)
                except ex.DomainError:
                    undefined = True
                    continue
                if not (np.isnan(lo[k]) or lo[k] <= value <= hi[k]):
                    pytest.fail(f"{value!r} outside [{lo[k]!r}, {hi[k]!r}] at {point}")
        # an enclosure is NaN only where the box leaves the domain
        assert undefined or not (np.isnan(lo[k]) or np.isnan(hi[k]))


@pytest.mark.parametrize("src", ["2.5", "x2", "sin(x1)*x2 + x1^3"])
@pytest.mark.parametrize("shape", [None, (), (3,), (3, 16)], ids=["float", "0-d", "k", "k-16"])
def test_evaluate_interval_returns_bounds_of_its_own(src, shape):
    # each bound a float64 ndarray of the box shape, into which the caller
    # may write without changing the box or a later enclosure
    e = ex.parse(src, VARS)
    if shape is None:
        box, shape = {"x1": (0.25, 0.5), "x2": (-1.0, 2.0)}, ()
    else:
        lo = np.random.default_rng(3).uniform(-1.0, 0.0, (2, *shape))
        box = {"x1": (lo[0], lo[0] + 0.25), "x2": (lo[1], lo[1] + 3.0)}
    kept = {name: [np.array(b) for b in pair] for name, pair in box.items()}
    first = ex.evaluate_interval(e, box)
    want = [b.copy() for b in first]
    for b in first:
        assert type(b) is np.ndarray and b.dtype == np.float64 and b.shape == shape
        b[...] = np.nan
    for name, pair in box.items():
        assert [np.asarray(b).tobytes() for b in pair] == [b.tobytes() for b in kept[name]]
    assert [b.tobytes() for b in ex.evaluate_interval(e, box)] == [b.tobytes() for b in want]


def test_program_gives_each_root_its_own_value():
    roots = [ex.parse(src, VARS) for src in ("sin(x1)*x2 + x1^3", "x1^3", "2^3", "x1/x2")]
    roots += [ex.Const(-0.0), ex.Const(0.0), ex.Var("x2")]
    program = ex.Program(roots)
    for point in ({"x1": 0.3, "x2": -1.7}, {"x1": np.linspace(-1.0, 1.0, 5), "x2": 0.5}):
        shape = np.shape(point["x1"])
        values = ex.evaluate(program, point)
        assert len(values) == len(roots)
        for got, root in zip(values, roots):
            # to the bit, the sign of a zero too; every root takes the batch shape
            want = np.broadcast_to(ex.evaluate(root, point), shape)
            assert np.shape(got) == shape and np.asarray(got).tobytes() == want.tobytes()
        assert math.copysign(1.0, np.ravel(values[4])[0]) == -1.0
        assert math.copysign(1.0, np.ravel(values[5])[0]) == 1.0
    # the DomainError of one root is the whole program's
    for x2 in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(ex.DomainError, match="division by zero"):
            ex.evaluate(program, {"x1": 0.3, "x2": x2})


def test_a_program_compiles_its_interval_form_on_first_use(compiled):
    program = ex.Program(ex.parse("sqrt(x1)*x2 + x1^3", VARS))
    ex.evaluate(program, {"x1": 0.5, "x2": 2.0})
    ex.evaluate(program, {"x1": np.ones(3), "x2": 2.0})
    assert len(compiled) == 1 and "x1']" in compiled[0] and "MUL" not in compiled[0]
    for _ in range(2):
        ex.evaluate_interval(program, {"x1": (0.5, 1.0), "x2": (2.0, 3.0)})
    assert len(compiled) == 2 and "MUL(" in compiled[1]
    # the memo would hide a rebuilt interval form from ``compiled``: pin the build itself
    assert program.intervals is program.intervals


def test_differentiate_known():
    d = ex.differentiate(ex.parse("x1^2*x2", VARS), "x1")
    assert ex.to_string(d) == "2*x1*x2"
    d2 = ex.differentiate(ex.parse("sin(x1)", VARS), "x1")
    assert ex.evaluate(d2, {"x1": 0.0}) == 1.0
    # derivative in an absent variable collapses to zero
    dz = ex.differentiate(ex.parse("x1^2", VARS), "x2")
    assert ex.evaluate(dz, {"x1": 5.0}) == 0.0


def test_to_string_round_trip():
    sources = ["x1*x2", "sin(x1)+2", "1 - x2*(x1 + 3)^2", "-x1^2/x2",
               "exp(x1)*log(x2)", "x1 - (x2 - 1)"]
    for src in sources:
        e = ex.parse(src, VARS)
        back = ex.parse(ex.to_string(e), VARS)
        for x1 in (-1.3, 0.4, 2.0):
            p = {"x1": x1, "x2": 1.7}
            assert math.isclose(ex.evaluate(e, p), ex.evaluate(back, p),
                                rel_tol=1e-14)


# --- property: symbolic derivative against central finite differences ----

def _leaf():
    return st.one_of(
        st.sampled_from([ex.Var("x1"), ex.Var("x2")]),
        st.floats(-3, 3, allow_nan=False).map(lambda v: ex.Const(round(v, 3))),
    )


def _node(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: ex.Add(*t)),
        st.tuples(children, children).map(lambda t: ex.Sub(*t)),
        st.tuples(children, children).map(lambda t: ex.Mul(*t)),
        children.map(ex.Neg),
        st.tuples(children, st.integers(0, 3)).map(lambda t: ex.Pow(*t)),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(
            lambda t: ex.Call(t[0], t[1])),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf(), _node, max_leaves=12),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_derivative_matches_finite_difference(e, x1, x2):
    d = ex.differentiate(e, "x1")
    h = 1e-6
    try:
        val = ex.evaluate(d, {"x1": x1, "x2": x2})
        fd = (ex.evaluate(e, {"x1": x1 + h, "x2": x2})
              - ex.evaluate(e, {"x1": x1 - h, "x2": x2})) / (2 * h)
    except ex.DomainError:
        return
    if abs(val) > 1e6 or not math.isfinite(fd):
        return  # steep composite; FD comparison meaningless
    assert abs(val - fd) <= 1e-5 * (1.0 + abs(val))


# --- property: numbers and arrays follow one domain rule ------------------

def _domain_node(children):
    # _node plus the nodes that can leave the domain
    return st.one_of(
        _node(children),
        st.tuples(children, children).map(lambda t: ex.Div(*t)),
        st.tuples(children, st.integers(-3, -1)).map(lambda t: ex.Pow(*t)),
        st.tuples(st.sampled_from(["exp", "log", "sqrt"]), children).map(
            lambda t: ex.Call(t[0], t[1])),
    )


_COORDINATE = st.one_of(st.floats(-3, 3), st.floats(allow_nan=False),
                        st.sampled_from([0.0, 1e200, -1e200, math.inf,
                                         -math.inf]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaf(), _domain_node, max_leaves=12),
       st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1, max_size=6))
def test_arrays_follow_the_domain_rule_of_numbers(e, points):
    values = []
    for x1, x2 in points:
        try:
            values.append(ex.evaluate(e, {"x1": x1, "x2": x2}))
        except ex.DomainError:
            values.append(None)
    xs = np.array(points)
    try:
        arr = ex.evaluate(e, {"x1": xs[:, 0], "x2": xs[:, 1]})
    except ex.DomainError:
        assert None in values
        return
    assert None not in values
    assert arr.shape == (len(points),)
    for a, v in zip(arr, values):
        assert math.isclose(a, v, rel_tol=1e-14)


# the exact values of the operations on the doubles of each box, in
# mpmath at 200 bits; a bound that is only a rounded value misses them
EXACT = {"x1 + x2": lambda a, b: a + b, "x1 * x2": lambda a, b: a * b,
         "x1 / x2": lambda a, b: a / b,
         "x1*x2 + x1/x2 - x2": lambda a, b: a * b + a / b - b}


@pytest.mark.parametrize("src", EXACT)
@pytest.mark.parametrize("x1, x2", [(0.1, 0.2), (1 / 3, 3.0), (0.7, 0.3)])
def test_point_enclosures_hold_the_exact_value(src, x1, x2):
    lo, hi = ex.evaluate_interval(ex.parse(src, VARS), {"x1": (x1, x1), "x2": (x2, x2)})
    with mpmath.workprec(200):
        exact = EXACT[src](mpmath.mpf(x1), mpmath.mpf(x2))
        assert mpmath.mpf(float(lo)) <= exact <= mpmath.mpf(float(hi))


# --- property: interval enclosures of composite expressions ---------------

def _shared_node(children):
    # _domain_node plus a subtree used twice and a subtree of constants only
    return st.one_of(
        _domain_node(children),
        children.map(lambda c: ex.Sub(ex.Mul(c, c), c)),
        children.map(lambda c: ex.Add(c, ex.Mul(ex.Const(0.1), ex.Const(3.0)))),
    )


def _subtrees(e):
    yield e
    for c in ("arg", "base", "left", "right"):
        if hasattr(e, c):
            yield from _subtrees(getattr(e, c))


def _leaves_domain(node, lo, hi, argument):
    """Whether an enclosure leaves the domain of its node: it is
    unbounded, or it is that of a log or sqrt argument reaching below."""
    if np.isinf(lo) or np.isinf(hi):
        return True
    if isinstance(node, ex.Call) and node.func in ("log", "sqrt"):
        alo = argument[0]
        return alo <= 0.0 if node.func == "log" else alo < 0.0
    return False


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf(), _shared_node, max_leaves=10),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-6, 0.5),
                          st.floats(-6, 0.5)), min_size=1, max_size=4))
def test_enclosures_of_composite_expressions_hold_every_value(e, boxes):
    centre = np.array([b[:2] for b in boxes])
    half = 10.0 ** np.array([b[2:] for b in boxes])
    lo_box, hi_box = centre - half, centre + half
    box = {name: (lo_box[:, j], hi_box[:, j]) for j, name in enumerate(VARS)}
    lo, hi = ex.evaluate_interval(e, box)
    nodes = list(_subtrees(e))
    enclosures = ex.evaluate_interval(ex.Program(nodes), box)
    assert enclosures[0][0].tobytes() == lo.tobytes() and enclosures[0][1].tobytes() == hi.tobytes()
    for k in range(len(boxes)):
        for s1 in (0.0, 0.3, 1.0):
            for s2 in (0.0, 0.7, 1.0):
                point = {name: min(hi_box[k, j], lo_box[k, j] + s * 2 * half[k, j])
                         for j, (name, s) in enumerate(zip(VARS, (s1, s2)))}
                try:
                    value = ex.evaluate(e, point)
                except ex.DomainError:
                    continue
                assert np.isnan(lo[k]) or lo[k] <= value <= hi[k], (value, lo[k], hi[k], point)
        if np.isnan(lo[k]) or np.isnan(hi[k]):
            # NaN only where the enclosure of some node leaves its domain
            where = {id(n): (elo[k], ehi[k]) for n, (elo, ehi) in zip(nodes, enclosures)}
            assert any(_leaves_domain(n, *where[id(n)], where.get(id(getattr(n, "arg", None))))
                       for n in nodes)
