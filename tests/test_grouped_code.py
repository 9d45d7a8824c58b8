"""One code object per `expr.Compiled`, and what it must keep.

A `Compiled` runs its whole set of expressions through one generated
function (`Compiled.unchecked`), however large the set, which computes a
subtree they share once.  Its values must equal each expression compiled
on its own, bit for bit, and a failure must still name the expression
that fails first in order, with its index, label and reason.  The RK4
and symplectic Euler steps run the unchecked function and re-run through
the checked calls when that fails; the messages below were recorded from
the per-expression evaluator and the symplectic Euler closure these
replaced.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler import expr
from parakahler.expr import (
    Call,
    Compiled,
    Const,
    EvaluationError,
    Product,
    Quotient,
    Sum,
    Var,
    _children,
    parse,
)
from parakahler.curvature import metric_from_potential, riemann
from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem, hamilton_odes
from parakahler.integrate import (
    NewtonConvergenceError,
    NonFiniteStateError,
    ODESystem,
    integrate_rk4,
    integrate_symplectic_euler,
)

from test_simplify_memo import shared_trees
from test_value_numbering import bits

QUARTIC = "0.5*(y1^2 + y2^2) + 0.1*x1*y1^4 + 0.25*(x1^2 + x2^2)^2 + 0.1*x1*x2*y1*y2"
X1, Y1, X2 = Var("x", 1), Var("y", 1), Var("x", 2)
NAMES = ("x1", "x2", "y1")


# ---------------------------------------------------------------------------
# values: the grouped function against each expression on its own
# ---------------------------------------------------------------------------

@st.composite
def sharing_sets(draw):
    """A tree and some of its own subtrees, in a drawn order: members share nodes."""
    tree = draw(shared_trees())
    inner, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if _children(node) and id(node) not in inner:
            inner[id(node)] = node
            stack.extend(_children(node))
    members = [tree, *draw(st.lists(st.sampled_from(list(inner.values())), max_size=5))]
    return draw(st.permutations(members))


def alone(e, label, values):
    """e compiled on its own: its value, or the EvaluationError it raises, and whether it raised."""
    try:
        return Compiled((e,), NAMES, [label])(values)[0], False
    except EvaluationError as exc:
        return str(exc), not str(exc).startswith(f"{label}: non-finite value")


# 0 divides by zero; the large values and inf overflow, some by raising, some to inf
COORDINATES = [-2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 1e200, -1e300, math.inf]


@settings(max_examples=300, deadline=None)
@given(sharing_sets(), st.lists(st.sampled_from(COORDINATES), min_size=3, max_size=3))
def test_grouped_values_equal_each_expression_alone(exprs, values):
    labels = [f"e{i}" for i in range(len(exprs))]
    compiled = Compiled(exprs, NAMES, labels)
    each = [alone(e, label, values) for e, label in zip(exprs, labels)]
    failed = [i for i, (v, _) in enumerate(each) if isinstance(v, str)]
    if not failed:
        out = compiled.unchecked(*values)
        assert out == [v for v, _ in each] and all(map(math.isfinite, out))
        assert compiled(values) == out
        return
    # a raising expression is named before a non-finite one, as each ran in order
    raised = [i for i in failed if each[i][1]]
    index = (raised or failed)[0]
    with pytest.raises(EvaluationError) as info:
        compiled(values)
    assert (info.value.index, str(info.value)) == (index, each[index][0])


def test_failure_names_the_first_expression_in_order():
    # the grouped code computes the shared temporary 1/x2 before ln(x1)
    inverse = Quotient(Const(1.0), X2)
    compiled = Compiled((Call("ln", X1), Sum((inverse, inverse))), ["x1", "x2"], ["a", "b"])
    assert compiled.unchecked(1.0, 2.0) == [0.0, 1.0]
    for values, index, message in [
            ([-1.0, 0.0], 0, "a: ln of non-positive value -1.0"),
            ([1.0, 0.0], 1, "b: division by zero"),
            ([-1.0, 1.0], 0, "a: ln of non-positive value -1.0")]:
        with pytest.raises(ZeroDivisionError if values[1] == 0.0 else EvaluationError):
            compiled.unchecked(*values)
        with pytest.raises(EvaluationError) as info:
            compiled(values)
        assert (info.value.index, str(info.value)) == (index, message)


# ---------------------------------------------------------------------------
# RK4 failures, reported as the per-expression evaluator reported them
# ---------------------------------------------------------------------------

SHARED = Sum((X1, Const(-2.0)))   # one node in both right-hand sides

FAILURES = {
    # ln(y1) sees y1 = 0.1 in stages 1 and 2 and -5.66 in stage 3
    "stage-3-raises": ((Call("ln", Y1), Product((Const(10.0), X1))), [0.0, 0.1],
                       "evaluation failed in step 1, from t = 0 at x1 = 0, y1 = 0.1: "
                       "dx1/dt: ln of non-positive value -5.656462732485114"),
    # x1*x1 is 1 in stage 1 and overflows to inf, without raising, in stage 2
    "stage-2-non-finite": ((Const(1e200), Product((X1, X1))), [1.0, 0.0],
                           "evaluation failed in step 1, from t = 0 at x1 = 1, y1 = 0: "
                           "dy1/dt: non-finite value inf"),
    # every stage value is finite; x1 + (h/6)*(6e308) is not
    "final-state-non-finite": ((Const(1e308), Const(0.0)), [1e308, 0.0],
                               "non-finite state in step 1, from t = 0 at x1 = 1e+308, y1 = 0"),
    # dx1/dt = (x1 - 2)^2 is finite, dy1/dt = ln(x1 - 2) is not, through one temporary
    "shared-temporary": ((Product((SHARED, SHARED)), Call("ln", SHARED)), [1.0, 0.0],
                         "evaluation failed in step 1, from t = 0 at x1 = 1, y1 = 0: "
                         "dy1/dt: ln of non-positive value -1.0"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_rk4_failure_reported_as_before(case):
    rhs, state0, message = FAILURES[case]
    system = ODESystem(Chart(1), rhs=rhs)
    with pytest.raises(NonFiniteStateError) as info:
        integrate_rk4(system, state0, 0.0, 2.0, 1.0)
    assert (type(info.value), info.value.step, str(info.value)) == \
        (NonFiniteStateError, 1, message)
    if info.value.__cause__ is not None:   # the failing right-hand side keeps its index
        assert info.value.__cause__.index == (1 if "dy1/dt" in message else 0)


# symplectic Euler failures: the generated step runs unchecked and re-runs
# checked; type, step and message were recorded from the closure it replaced
SE_FAILURES = {
    # H_x = ln(x1) + 1 fails once x1 < 0, on the separable and the general step
    "hx-fails-separable": ("0.5*y1^2 + x1*ln(x1)", [0.055, -1.0], 0.01, NonFiniteStateError, 7,
                           "evaluation failed in step 7, from t = 0.06 at x1 = -9.23445465e-05, "
                           "y1 = -0.841698719: dH/dx1: ln of non-positive value "
                           "-9.23445465330578e-05"),
    "hx-fails-general": ("0.5*y1^2 + x1*ln(x1) + 0.01*x1*y1^2", [0.055, -1.0], 0.01,
                         NonFiniteStateError, 7,
                         "evaluation failed in step 7, from t = 0.06 at x1 = -0.000144519355, "
                         "y1 = -0.842105762: dH/dx1: ln of non-positive value "
                         "-0.00014451935514118996"),
    "hx-fails-n2-separable": ("0.5*(y1^2 + y2^2) + x1*ln(x1) + x2^2", [0.055, 0.3, -1.0, 0.2],
                              0.01, NonFiniteStateError, 7,
                              "evaluation failed in step 7, from t = 0.06 at "
                              "x1 = -9.23445465e-05, x2 = 0.310726844, y1 = -0.841698719, "
                              "y2 = 0.163442267: dH/dx1: ln of non-positive value "
                              "-9.23445465330578e-05"),
    # H_y = 2e300*y1 overflows to inf, without raising, in step 2
    "hy-non-finite-separable": ("0.5*x1^2 + 1e300*y1^2", [1.0, 1e-10], 0.01,
                                NonFiniteStateError, 2,
                                "evaluation failed in step 2, from t = 0.01 at "
                                "x1 = -1.99999998e+296, y1 = -0.0099999999: "
                                "dH/dy1: non-finite value inf"),
    "hy-non-finite-general": ("0.5*x1^2 + 1e300*y1^2 + 0.001*x1*sin(y1)", [1.0, 1e-10], 0.01,
                              NonFiniteStateError, 2,
                              "evaluation failed in step 2, from t = 0.01 at "
                              "x1 = -1.99997998e+296, y1 = -0.0099998999: "
                              "dH/dy1: non-finite value inf"),
    "hy-non-finite-n2-separable": ("0.5*(x1^2 + x2^2) + 1e300*y1^2 + y2^2",
                                   [1.0, 0.5, 1e-10, 0.1], 0.01, NonFiniteStateError, 2,
                                   "evaluation failed in step 2, from t = 0.01 at "
                                   "x1 = -1.99999998e+296, x2 = 0.5019, y1 = -0.0099999999, "
                                   "y2 = 0.095: dH/dy1: non-finite value inf"),
    # the first Newton candidate, y1 = 709.4, overflows H_x to inf without
    # raising; a smaller backtracking scale would give a finite residual
    "hx-non-finite-in-backtracking": ("x1*(-10*y1 + 0.0025947*y1*exp(y1))", [0.3, 1.0], 0.1,
                                      NonFiniteStateError, 1,
                                      "evaluation failed in step 1, from t = 0 at x1 = 0.3, "
                                      "y1 = 1: dH/dx1: non-finite value inf"),
    # every value is finite; x1 + h*H_y is not
    "final-state-separable": ("1e308*y1 + 0.5*x1^2", [1e308, 0.0], 1.0, NonFiniteStateError, 1,
                              "non-finite state in step 1, from t = 0 at x1 = 1e+308, y1 = 0"),
    "final-state-general": ("1e308*y1 + 0.001*x1*sin(y1)", [1e308, 0.0], 1.0,
                            NonFiniteStateError, 1,
                            "non-finite state in step 1, from t = 0 at x1 = 1e+308, y1 = 0"),
    # y1 - 0.3 + 0.1*(-10*y1 + 5 + y1^2) = 0.2 + 0.1*y1^2 has no root
    "newton-fails": ("x1*(-10*y1 + 5 + y1^2)", [0.3, 0.3], 0.1, NewtonConvergenceError, 1,
                     "Newton iteration failed after 25 iterations in step 1, "
                     "from t = 0 at x1 = 0.3, y1 = 0.3"),
    # y1 - h*H_x passes the largest double by one ulp of it: the explicit
    # step hands it to the Newton loop, which halves toward it 25 times
    "newton-update-overflows-separable": ("0.5*y1^2 - 7.976931348623159e+307*x1", [0.5, 1e308],
                                          1.0, NonFiniteStateError, 1,
                                          "Newton update overflows in step 1, "
                                          "from t = 0 at x1 = 0.5, y1 = 1e+308"),
    # the same with a mixed term, so the general loop runs: its candidate
    # past the largest double is named before H_x is read there
    "newton-update-overflows-general": ("0.5*y1^2 - 7.976931348623159e+307*x1 + 1e-300*x1*y1",
                                        [0.5, 1e308], 1.0, NonFiniteStateError, 1,
                                        "Newton update overflows in step 1, "
                                        "from t = 0 at x1 = 0.5, y1 = 1e+308"),
    # I + h*H_xy = 1 + 0.5*(-2) = 0, and I + 1.0*(-I) = 0 at n = 2
    "singular": ("-2*x1*y1", [0.3, 0.4], 0.5, NewtonConvergenceError, 1,
                 "singular Newton system in step 1, from t = 0 at x1 = 0.3, y1 = 0.4"),
    "singular-n2": ("x1*y1 + x2*y2 - 2*x1*y1 - 2*x2*y2", [0.3, 0.4, 0.1, 0.2], 1.0,
                    NewtonConvergenceError, 1,
                    "singular Newton system in step 1, from t = 0 at x1 = 0.3, x2 = 0.4, "
                    "y1 = 0.1, y2 = 0.2"),
}


@pytest.mark.parametrize("case", list(SE_FAILURES))
def test_symplectic_euler_failure_reported_as_before(case):
    source, state0, h, error, step, message = SE_FAILURES[case]
    H = HamiltonianSystem.from_source(source, Chart(len(state0) // 2))
    assert H.separable == case.endswith("-separable")
    with pytest.raises(error) as info:
        integrate_symplectic_euler(H, state0, 0.0, 20 * h, h)
    assert (type(info.value), info.value.step, str(info.value)) == (error, step, message)


# ---------------------------------------------------------------------------
# what gets compiled
# ---------------------------------------------------------------------------

@pytest.fixture
def codes(monkeypatch):
    """The number of expressions of each expr._code call, in call order."""
    calls = []
    original = expr._code

    def counting(exprs, names):
        calls.append(len(exprs))
        return original(exprs, names)

    monkeypatch.setattr(expr, "_code", counting)
    return calls


def test_rk4_right_hand_side_is_one_code_object(codes):
    odes = hamilton_odes(HamiltonianSystem.from_source(QUARTIC, Chart(2)))
    trajectory = integrate_rk4(odes, [0.3, -0.2, 0.5, 0.4], 0.0, 0.1, 0.01)
    assert codes == [4]   # one grouped function, no code per expression
    columns = odes.vector_function.columns(trajectory.columns())
    assert codes == [4, 1, 1, 1, 1]
    for row, state in enumerate(trajectory.states):
        assert [c[row] for c in columns] == odes.vector_function(state.tolist())


def test_rk4_step_runs_unchecked(monkeypatch):
    odes = hamilton_odes(HamiltonianSystem.from_source(QUARTIC, Chart(2)))
    expected = integrate_rk4(odes, [0.3, -0.2, 0.5, 0.4], 0.0, 0.1, 0.01).states

    def forbidden(self, values):
        raise AssertionError("checked call in a step that did not fail")

    monkeypatch.setattr(Compiled, "__call__", forbidden)
    assert np.array_equal(integrate_rk4(odes, [0.3, -0.2, 0.5, 0.4], 0.0, 0.1, 0.01).states,
                          expected)


def test_set_of_any_size_is_one_code_object(codes):
    chart = Chart(2)
    # about 200 distinct nodes each, 2,400 in all
    exprs = [parse(" + ".join(f"{k + j}*x1^{j}*y2" for j in range(1, 41)), chart)
             for k in range(12)]
    compiled = Compiled(exprs)
    assert codes == [12]
    point = {"x1": 0.7, "x2": 0.1, "y1": 0.2, "y2": -1.3}
    assert compiled.at(point) == [Compiled((e,)).at(point)[0] for e in exprs]


def test_space_form_n3_riemann_is_one_code_object(codes):
    # the stored linear part of the n=3 space form's curvature: 153 entries
    # of 1,405 node objects that hold 399 distinct values
    chart = Chart(3)
    R = riemann(metric_from_potential(parse("ln(1 + x1*y1 + x2*y2 + x3*y3)", chart), chart))
    before = len(codes)
    compiled = R._compiled
    assert codes[before:] == [len(R.canonical)] and len(R.canonical) == 153
    alone = [Compiled((e,), compiled.names) for e in compiled.exprs]
    rng = random.Random(3)
    for _ in range(5):
        values = [rng.uniform(-0.5, 0.5) for _ in compiled.names]
        assert bits(compiled(values)) == bits([c(values)[0] for c in alone])


def test_empty_set_compiles():
    compiled = Compiled((), ["x1"])
    assert compiled([1.0]) == [] and compiled.columns({"x1": np.zeros(3)}) == []
