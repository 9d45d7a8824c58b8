"""Temporaries of `expr.Compiled` keyed on value: each distinct subexpression once.

The generated source gives every node a value number from its type, its
float's bits, variable name, exponent or function name and its
children's numbers, so equal subtrees built as distinct objects share a
temporary.  Equal text computes equal floats: values must match each
expression compiled on its own bit for bit, signs of zero included, and
0.0 and -0.0 must keep texts of their own.
"""

import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from parakahler import expr
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
    _children,
    parse,
)
from parakahler.geometry import Chart
from parakahler.lagrange import LagrangianSystem, euler_lagrange_system

from test_simplify_memo import shared_trees

NAMES = ("x1", "x2", "y1")
X1 = Var("x", 1)
# 0 divides by zero and signs zeros; the large values overflow, some to inf
COORDINATES = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, 1e200, -1e300]
FAILURES = (ArithmeticError, ValueError, EvaluationError)


def rebuilt(node, constant=float):
    """node rebuilt from fresh objects, sharing none with it, each constant through constant."""
    if isinstance(node, Const):
        return Const(constant(node.value))
    if isinstance(node, Var):
        return Var(node.kind, node.index)
    children = [rebuilt(child, constant) for child in _children(node)]
    if isinstance(node, Sum):
        return Sum(tuple(children))
    if isinstance(node, Product):
        return Product(tuple(children))
    if isinstance(node, Quotient):
        return Quotient(*children)
    if isinstance(node, Power):
        return Power(children[0], node.exponent)
    return Call(node.func, children[0])


def negative_zeros(value):
    """-0.0 for either zero: equal to the constant it replaces as a dataclass, not in bits."""
    return -0.0 if value == 0.0 else value


@st.composite
def repeated_sets(draw):
    """A tree, then copies of it and of its subtrees as distinct objects, in a drawn order."""
    tree = draw(shared_trees())
    inner, stack = [], [tree]
    while stack:
        node = stack.pop()
        if _children(node):
            inner.append(node)
            stack.extend(_children(node))
    picked = draw(st.lists(st.sampled_from(inner), max_size=5))
    members = [tree, rebuilt(tree), rebuilt(tree, negative_zeros),
               *map(rebuilt, picked), *picked]
    return draw(st.permutations(members))


def bits(values):
    return [struct.pack("d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(repeated_sets(), st.lists(st.sampled_from(COORDINATES), min_size=3, max_size=3))
def test_repeated_subtrees_give_each_expressions_bits(exprs, values):
    each = []
    for e in exprs:
        try:
            each.append(Compiled((e,), NAMES).unchecked(*values)[0])
        except FAILURES:
            each.append(None)
    grouped = Compiled(exprs, NAMES)
    if None in each:
        # the failing expression's text runs in the grouped function too
        with pytest.raises(FAILURES):
            grouped.unchecked(*values)
        return
    assert bits(grouped.unchecked(*values)) == bits(each)


def test_signed_zeros_keep_their_own_text():
    pair = (X1 * 0.0, X1 * -0.0)
    assert pair[0] == pair[1]   # equal as dataclasses, so not a value key
    out = Compiled(pair, ("x1",))([1.0])
    assert bits(out) == bits([0.0, -0.0])


def test_equal_subtrees_share_one_temporary():
    # three distinct objects of one value, used under two distinct parents
    a, b, c = (parse("x1*y1 + 2", Chart(1)) for _ in range(3))
    source = expr._Source((Quotient(a, b), Product((c, X1))), ("x1", "y1"))
    assert source.lines == ["t0 = (x1 * y1) + (2.0)"]
    assert source.results == ["(t0 / t0)", "(t0 * x1)"]


def test_cramer_denominator_is_computed_once():
    # the coupled n=2 flow: each component is a Cramer quotient over det Hess(L)
    chart = Chart(2)
    L = LagrangianSystem(chart, parse("1.3*x1*y1 + 1.2*x2*y2 + 0.05*x1^2*y2 + 0.03*x2*y1",
                                      chart))
    components = euler_lagrange_system(L).semispray.components
    assert all(isinstance(c, Quotient) for c in components)
    # cramer_solve simplifies det once and every later call returns that object
    assert len({id(c.denominator) for c in components}) == 1
    source = expr._Source(components, ("x1", "x2", "y1", "y2"))
    divisors = {re.fullmatch(r"\(.* / (t\d+)\)", r).group(1) for r in source.results}
    assert len(divisors) == 1
    name = divisors.pop()
    text = "\n".join(source.lines)
    definition = next(line for line in source.lines if line.startswith(f"{name} = "))
    assert text.count(definition.split(" = ", 1)[1]) == 1
