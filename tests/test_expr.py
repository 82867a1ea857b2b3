import math

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


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ev("1/x1", x1=0.0)
    with pytest.raises(ex.DomainError):
        ev("log(x1)", x1=-1.0)
    with pytest.raises(ex.DomainError):
        ev("sqrt(x1)", x1=-1.0)


def test_missing_variable_value():
    e = ex.parse("x1+x2", VARS)
    with pytest.raises(ex.ExprError):
        ex.evaluate(e, {"x1": 1.0})


def test_evaluate_array_matches_scalar():
    e = ex.parse("sin(x1)*x2 + x1^3", VARS)
    xs = np.linspace(-2, 2, 17)
    ys = np.linspace(0.5, 3, 17)
    arr = ex.evaluate_array(e, {"x1": xs, "x2": ys})
    for k in range(17):
        assert math.isclose(arr[k], ex.evaluate(e, {"x1": xs[k], "x2": ys[k]}),
                            rel_tol=1e-14)


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
