"""simplify's per-call memo against the un-memoized simplifier it replaced.

`reference_simplify` below is simplify as it was before the memo: every
shared subtree is simplified again at each use and every sort key is
printed anew.  The memoized simplify must give the same source
on trees that share subtrees by reference, and on every input of the
Riemann and comparison tensors of a coupled n=2 potential and every
stored Riemann entry.  Counting
wrappers check that one call simplifies each distinct node once and
prints each node for a sort key once, and that nothing outlives the call.
"""

import dataclasses
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from parakahler import expr
from parakahler.curvature import metric_from_potential, r_zero, riemann
from parakahler.expr import (
    ONE,
    ZERO,
    Call,
    Const,
    Power,
    Product,
    Quotient,
    Sum,
    Var,
    _children,
    _fold,
    _scale,
    _scale_const_div,
    _split_coefficient,
    is_zero,
    parse,
    simplify,
    to_source,
)
from parakahler.geometry import Chart, model_product_structure

COUPLED = "x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2"


# ---------------------------------------------------------------------------
# the reference: simplify without a memo
# ---------------------------------------------------------------------------

def reference_simplify(e):
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Sum):
        return _reference_sum(e)
    if isinstance(e, Product):
        return _reference_product(e)
    if isinstance(e, Quotient):
        return _reference_quotient(e)
    if isinstance(e, Power):
        return _reference_power(e)
    if isinstance(e, Call):
        arg = reference_simplify(e.arg)
        return _fold(Call(e.func, arg)) if isinstance(arg, Const) else Call(e.func, arg)
    raise TypeError(f"unknown node {type(e).__name__}")


def _reference_sort_key(e):
    if isinstance(e, Var):
        return (0, e.kind, e.index, "")
    if isinstance(e, Power) and isinstance(e.base, Var):
        return (0, e.base.kind, e.base.index, to_source(e))
    return (1, "", 0, to_source(e))


def _reference_sum(e):
    constant = 0.0
    collected = {}
    order = []

    def absorb(term):
        nonlocal constant
        if isinstance(term, Sum):
            for t in term.terms:
                absorb(t)
            return
        coeff, residual = _split_coefficient(term)
        if residual is None:
            constant += coeff
            return
        if residual not in collected:
            collected[residual] = 0.0
            order.append(residual)
        collected[residual] += coeff

    for t in e.terms:
        absorb(reference_simplify(t))

    terms = [_scale(c, r) for r in sorted(order, key=_reference_sort_key)
             if (c := collected[r]) != 0.0]
    if constant != 0.0:
        terms.append(Const(constant))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _reference_product(e):
    coeff = 1.0
    exponents = {}
    order = []

    def absorb(factor):
        nonlocal coeff
        if isinstance(factor, Product):
            for f in factor.factors:
                absorb(f)
            return
        if isinstance(factor, Const):
            coeff *= factor.value
            return
        base, power = (factor.base, factor.exponent) if isinstance(factor, Power) else (factor, 1.0)
        if base not in exponents:
            exponents[base] = 0.0
            order.append(base)
        exponents[base] += power

    for f in e.factors:
        absorb(reference_simplify(f))

    if coeff == 0.0:
        return ZERO
    factors = []
    for base in sorted(order, key=_reference_sort_key):
        p = exponents[base]
        if p == 0.0:
            continue
        factors.append(base if p == 1.0 else _reference_power(Power(base, p)))
    if not factors:
        return Const(coeff)
    if coeff != 1.0:
        factors.insert(0, Const(coeff))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def _reference_quotient(e):
    numerator = reference_simplify(e.numerator)
    denominator = reference_simplify(e.denominator)
    if isinstance(denominator, Const):
        if denominator.value == 0.0:
            return Quotient(numerator, denominator)
        return reference_simplify(_scale_const_div(numerator, denominator.value))
    if is_zero(numerator):
        return ZERO
    if numerator == denominator:
        return ONE
    return Quotient(numerator, denominator)


def _reference_power(e):
    base = reference_simplify(e.base) if not isinstance(e.base, (Const, Var)) else e.base
    p = e.exponent
    if p == 0.0:
        return ONE
    if p == 1.0:
        return base
    if isinstance(base, Const):
        return _fold(Power(base, p))
    if isinstance(base, Power) and float(base.exponent).is_integer() and float(p).is_integer():
        return Power(base.base, base.exponent * p)
    return Power(base, p)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def distinct_nodes(*roots):
    """Every distinct node (by identity) reachable from roots."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(_children(node))
    return list(seen.values())


def assert_hash_is_fields_hash(*roots):
    for node in distinct_nodes(*roots):
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields)


def assert_matches_reference(e):
    out = simplify(e)
    expected = reference_simplify(e)
    assert to_source(out) == to_source(expected)
    assert out == expected
    assert_hash_is_fields_hash(e, out)


# ---------------------------------------------------------------------------
# trees that share subtrees by reference
# ---------------------------------------------------------------------------

LEAVES = [Var("x", 1), Var("y", 1), Var("x", 2), Const(0.0), Const(1.0), Const(-1.0),
          Const(2.0), Const(0.5), Const(-3.0)]


@st.composite
def shared_trees(draw):
    """A tree built bottom-up, each new node reusing earlier nodes as children."""
    pool = list(LEAVES)

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["sum", "product", "quotient", "power", "call"]))
        if kind in ("sum", "product"):
            children = tuple(pick() for _ in range(draw(st.integers(1, 4))))
            node = Sum(children) if kind == "sum" else Product(children)
        elif kind == "quotient":
            node = Quotient(pick(), pick())
        elif kind == "power":
            node = Power(pick(), draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -2.0])))
        else:
            node = Call(draw(st.sampled_from(expr._FUNCTIONS)), pick())
        pool.append(node)
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(shared_trees())
def test_memoized_simplify_matches_reference_on_shared_trees(e):
    assert_matches_reference(e)


def test_shared_subtree_simplified_once_and_shared_in_result():
    x1, y1 = Var("x", 1), Var("y", 1)
    shared = Sum((Product((Const(2.0), x1)), Product((x1, Const(3.0))), y1))
    e = Sum((Product((shared, y1)), Quotient(shared, Call("sin", shared))))
    assert_matches_reference(e)
    out = simplify(e)
    assert to_source(out) == "(5*x1 + y1)/sin(5*x1 + y1) + y1*(5*x1 + y1)"
    # one simplified node stands for every use of the shared input
    first = out.terms[0].numerator
    assert out.terms[0].denominator.arg is first and out.terms[1].factors[1] is first


# ---------------------------------------------------------------------------
# the Riemann tensor of a coupled n=2 potential
# ---------------------------------------------------------------------------

class CountingScope(expr._Simplify):
    """A scope that counts, per node, simplifications, visits and sort-key prints."""

    opened = []

    def __init__(self):
        super().__init__()
        self.simplified = Counter()
        self.visits = Counter()
        self.printed = Counter()
        CountingScope.opened.append(self)

    def simplify(self, e):
        self.visits[id(e)] += 1
        if not isinstance(e, (Const, Var)) and id(e) not in self.done:
            self.simplified[id(e)] += 1
        return super().simplify(e)


@pytest.fixture(scope="module")
def riemann_run():
    """riemann and r_zero on the coupled potential, with every top-level simplify recorded.

    They are the two symbolic tensors of a check.  Returns the Riemann
    tensor and, per top-level call, its input, its output and the
    counters of the scopes it opened.
    """
    chart = Chart(2)
    g = metric_from_potential(parse(COUPLED, chart), chart)
    calls = []
    original_print = expr._print_node

    def counting_print(e, text):
        scope = getattr(text, "__self__", None)
        if isinstance(scope, CountingScope):
            scope.printed[id(e)] += 1
        return original_print(e, text)

    def top_level(e):
        CountingScope.opened.clear()
        out = simplify(e)
        calls.append((e, out, list(CountingScope.opened)))
        CountingScope.opened.clear()
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "_Simplify", CountingScope)
        mp.setattr(expr, "_print_node", counting_print)
        for name, module in list(sys.modules.items()):
            if name.startswith("parakahler.") and name != "parakahler.expr" \
                    and getattr(module, "simplify", None) is simplify:
                mp.setattr(module, "simplify", top_level)
        tensor = riemann(g)
        r_zero(g, model_product_structure(chart))
    return tensor, calls


def test_riemann_simplifies_and_prints_each_node_once_per_call(riemann_run):
    _, calls = riemann_run
    assert calls
    shared_visits = 0
    for _, _, scopes in calls:
        # nested calls reuse the outermost call's scope
        assert len(scopes) == 1
        scope = scopes[0]
        assert max(scope.simplified.values(), default=0) <= 1
        assert max(scope.printed.values(), default=0) <= 1
        shared_visits += sum(1 for key, n in scope.visits.items()
                             if n > 1 and key in scope.simplified)
    # the inputs do share subtrees, so the bound above is not met trivially
    assert shared_visits > 0


def test_riemann_simplify_calls_match_reference(riemann_run):
    _, calls = riemann_run
    for e, out, _ in calls:
        assert to_source(out) == to_source(reference_simplify(e))


def test_riemann_entries_match_reference(riemann_run):
    tensor, _ = riemann_run
    assert tensor.canonical
    for entry in tensor.canonical.values():
        assert_matches_reference(entry)


def test_scope_is_dropped_when_simplify_returns(monkeypatch):
    refs = []

    class Recorded(expr._Simplify):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(expr, "_Simplify", Recorded)
    x1 = Var("x", 1)
    shared = Sum((x1, Product((Const(2.0), x1))))
    out = simplify(Product((shared, Call("exp", shared), Power(shared, 2.0))))
    assert to_source(out) == "3*x1*(3*x1)^2*exp(3*x1)"
    assert len(refs) == 1
    assert refs[0]() is None
