"""The compiled evaluator: one domain policy on floats, columns and in step loops."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from parakahler.expr import (
    Call,
    Compiled,
    Const,
    EvaluationError,
    Power,
    Product,
    Quotient,
    Sum,
    Var,
    evaluate,
    parse,
)
from parakahler.geometry import Chart
from parakahler.integrate import NonFiniteStateError, ODESystem, integrate_rk4

CHART1 = Chart(1)
X1, Y1 = Var("x", 1), Var("y", 1)


# Each case is undefined at x1 = value; every evaluation path must say so.
UNDEFINED = [
    ("1/x1", 0.0),
    ("ln(x1)", 0.0),
    ("ln(x1)", -1.0),
    ("x1^1.5", -1.0),
    ("x1^-1", 0.0),
    ("exp(x1)", 1000.0),
]


@pytest.mark.parametrize("source,value", UNDEFINED)
def test_undefined_point_raises_on_every_path(source, value):
    e = parse(source, CHART1)
    with pytest.raises(EvaluationError):
        evaluate(e, {"x1": value, "y1": 0.0})

    columns = {"x1": np.array([0.5, value, 0.5]), "y1": np.zeros(3)}
    with pytest.raises(EvaluationError, match="row 1") as info:
        Compiled((e,)).columns(columns)
    assert info.value.row == 1

    sys = ODESystem(CHART1, rhs=(e, Const(0.0)))
    with pytest.raises(NonFiniteStateError, match="step 1") as info:
        integrate_rk4(sys, (value, 0.0), 0.0, 0.1, 0.01)
    assert info.value.step == 1
    assert "dx1/dt" in str(info.value)


def test_zero_base_with_positive_fractional_exponent_is_zero():
    e = parse("x1^1.5", CHART1)
    assert evaluate(e, {"x1": 0.0}) == 0.0
    assert Compiled((e,)).columns({"x1": np.array([0.0, 4.0])})[0].tolist() == [0.0, 8.0]
    with pytest.raises(EvaluationError):
        evaluate(parse("x1^-1.5", CHART1), {"x1": 0.0})


def test_deep_alternating_expression_evaluates():
    # nested source for this tree exceeds the compiler's nesting limit
    source = "x1"
    for level in range(150):
        source = f"x1*({source})" if level % 2 == 0 else f"sin({source}+y1)"
    e = parse(source, CHART1)
    point = {"x1": 0.3, "y1": 0.2}
    expected = 0.3
    for level in range(150):
        expected = 0.3 * expected if level % 2 == 0 else math.sin(expected + 0.2)
    assert evaluate(e, point) == pytest.approx(expected, rel=1e-12)
    column = Compiled((e,)).columns({"x1": np.array([0.3]), "y1": np.array([0.2])})[0]
    assert column[0] == pytest.approx(expected, rel=1e-12)


def test_subtree_shared_by_reference():
    shared = Sum((X1, Y1))
    e = Sum((Product((shared, X1)), Product((shared, Y1))))
    assert evaluate(e, {"x1": 2.0, "y1": 3.0}) == 25.0


def test_labels_and_index_name_the_failing_expression():
    compiled = Compiled((X1, Quotient(Const(1.0), Y1)), ("x1", "y1"), labels=("a", "b"))
    assert compiled((1.0, 2.0)) == [1.0, 0.5]
    with pytest.raises(EvaluationError, match="^b: division by zero") as info:
        compiled((1.0, 0.0))
    assert info.value.index == 1


def test_count_checks_only_the_leading_expressions():
    # a later expression that raises or is not finite is not evaluated or checked
    big = Product((Const(1e308), X1))
    compiled = Compiled((big, X1, Quotient(Const(1.0), Y1), big), ("x1", "y1"),
                        labels=("a", "b", "c", "d"))
    assert compiled((1.0, 0.0), 2) == [1e308, 1.0]
    assert compiled((1.0, 2.0), 3) == [1e308, 1.0, 0.5]
    for point in ((10.0, 2.0), (10.0, 0.0)):
        with pytest.raises(EvaluationError, match="^a: non-finite value inf") as info:
            compiled(point, 2)
        assert info.value.index == 0


# ---------------------------------------------------------------------------
# scalar, vector and sympy agree on random trees
# ---------------------------------------------------------------------------

FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "ln": sympy.log,
             "sinh": sympy.sinh, "cosh": sympy.cosh}


def pairs(children):
    return st.tuples(children, children)


def grow(children):
    return st.one_of(
        pairs(children).map(Sum),
        pairs(children).map(Product),
        pairs(children).map(lambda ab: Quotient(*ab)),
        st.tuples(children, st.sampled_from([-2.0, -1.0, 0.5, 1.5, 2.0, 3.0])).map(
            lambda t: Power(*t)),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda t: Call(*t)),
        # one child object used twice, as simplify and differentiate share them
        children.map(lambda c: Sum((Product((c, X1)), Product((c, Y1))))),
    )


TREES = st.recursive(
    st.sampled_from([X1, Y1, Const(0.5), Const(-1.0), Const(2.0), Const(3.0)]),
    grow, max_leaves=10)
COORDINATES = st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=False)


def to_sympy(e, point):
    """The exact value of e at point, to 40 significant digits."""
    if isinstance(e, Const):
        return sympy.Float(e.value, 40)
    if isinstance(e, Var):
        return sympy.Float(point[e.name], 40)
    if isinstance(e, Sum):
        return sympy.Add(*(to_sympy(t, point) for t in e.terms))
    if isinstance(e, Product):
        return sympy.Mul(*(to_sympy(f, point) for f in e.factors))
    if isinstance(e, Quotient):
        return to_sympy(e.numerator, point) / to_sympy(e.denominator, point)
    if isinstance(e, Power):
        return to_sympy(e.base, point) ** sympy.Rational(e.exponent)
    return FUNCTIONS[e.func](to_sympy(e.arg, point))


def subtrees(e):
    yield e
    children = {Sum: lambda: e.terms, Product: lambda: e.factors,
                Quotient: lambda: (e.numerator, e.denominator),
                Power: lambda: (e.base,), Call: lambda: (e.arg,)}.get(type(e), tuple)()
    for child in children:
        yield from subtrees(child)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TREES, COORDINATES, COORDINATES)
def test_scalar_vector_and_sympy_agree(e, x, y):
    point = {"x1": x, "y1": y}
    try:
        scalar = evaluate(e, point)
    except EvaluationError:
        scalar = None
    try:
        vector = Compiled((e,)).columns({"x1": np.array([x]), "y1": np.array([y])})[0]
    except EvaluationError:
        # columns check only the result, floats every step: a failing
        # column is always a failing float evaluation
        assert scalar is None
        return
    if scalar is None:
        return   # an intermediate left the domain, but the result is finite
    vector = float(np.ravel(vector)[0])
    try:
        # rounding error scales with the largest intermediate value
        scale = 1.0 + max(abs(evaluate(s, point)) for s in subtrees(e))
    except EvaluationError:
        return   # a product overflowed to inf, and the result recovered
    assert abs(scalar - vector) <= 1e-9 * scale
    exact = complex(to_sympy(e, point))
    assert abs(exact.imag) <= 1e-9 * scale
    assert abs(scalar - exact.real) <= 1e-9 * scale
