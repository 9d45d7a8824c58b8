"""simplify's memo, kept on the nodes, against the un-memoized simplifier.

`reference_simplify` below is simplify with no memo: every shared subtree
is simplified again at each use, every sort key is printed anew, and no
node remembers an earlier call.  The memoized simplify must give the
same source on trees that share subtrees by reference, on trees whose
subtrees earlier calls already simplified, and on every input of the
Riemann and comparison tensors of a coupled n=2 potential and every
stored Riemann entry.  Counting wrappers check that each node is
simplified once and printed for a sort key once across all of those
calls.  The memo is freed with its nodes, is not copied with them, and
threads that simplify one tree agree.
"""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import weakref
from collections import Counter
from types import SimpleNamespace

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
    _diff,
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

    factors = []
    regroup = False
    for base in sorted(order, key=_reference_sort_key):
        p = exponents[base]
        if p == 0.0:
            continue
        factor = base if p == 1.0 else _reference_power(Power(base, p))
        if isinstance(factor, Const):
            coeff *= factor.value
            continue
        factors.append(factor)
        if isinstance(base, Power):
            regroup = regroup or (factor.base if isinstance(factor, Power) else factor) != base
    if regroup:
        return _reference_product(Product((Const(coeff), *factors)))
    if coeff == 0.0:
        return ZERO
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
        return _reference_power(Power(base.base, base.exponent * p))
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


def assert_no_node_holds_itself(*roots):
    for node in distinct_nodes(*roots):
        memo = getattr(node, "_simplified", None)
        assert memo is None or memo is True or (isinstance(memo, expr.Expression)
                                                and memo is not node)


def assert_matches_reference(e):
    out = simplify(e)
    expected = reference_simplify(e)
    assert to_source(out) == to_source(expected)
    assert out == expected
    assert_hash_is_fields_hash(e, out)
    assert_no_node_holds_itself(e, out)


# ---------------------------------------------------------------------------
# trees that share subtrees by reference
# ---------------------------------------------------------------------------

LEAVES = [Var("x", 1), Var("y", 1), Var("x", 2), Const(0.0), Const(1.0), Const(-1.0),
          Const(2.0), Const(0.5), Const(-3.0)]
EXPONENTS = [0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -2.0]


def edge_leaves():
    """-0.0 and constants that do not fold: 0/0, (-1)^1.5 and 0^-1, as fresh nodes."""
    return [Const(-0.0), Quotient(Const(0.0), Const(0.0)), Power(Const(-1.0), 1.5),
            Power(Const(0.0), -1.0)]


@st.composite
def shared_trees(draw, edges=False, earlier=False):
    """A tree built bottom-up, each new node reusing earlier nodes as children.

    edges adds edge_leaves() and the exponents 1.5 and -0.5; earlier lets
    a step simplify an earlier node, whose result then joins the pool, so
    the tree holds nodes that earlier calls simplified or returned.
    """
    pool = list(LEAVES) + (edge_leaves() if edges else [])
    exponents = EXPONENTS + ([1.5, -0.5] if edges else [])
    kinds = ["sum", "product", "quotient", "power", "call"] + (["simplified"] if earlier else [])

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("sum", "product"):
            children = tuple(pick() for _ in range(draw(st.integers(1, 4))))
            node = Sum(children) if kind == "sum" else Product(children)
        elif kind == "quotient":
            node = Quotient(pick(), pick())
        elif kind == "power":
            node = Power(pick(), draw(st.sampled_from(exponents)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(expr._FUNCTIONS)), pick())
        else:
            node = simplify(pick())
        pool.append(node)
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(shared_trees())
def test_memoized_simplify_matches_reference_on_shared_trees(e):
    assert_matches_reference(e)


@settings(max_examples=300, deadline=None)
@given(shared_trees(edges=True, earlier=True))
def test_memoized_simplify_matches_reference_across_calls(e):
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
    # a later call gets the same objects back
    assert simplify(e) is out and simplify(out) is out and simplify(shared) is first


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
                         ids=["deepcopy", "pickle"])
def test_copies_carry_no_memo(copy_of):
    chart = Chart(1)
    e = parse("(x1*y1 + 2)^2/sin(2 + y1*x1) + 3*(x1*y1 + 2) - x1*y1", chart)
    out = simplify(e)
    assert e._simplified is out and out._simplified is True
    assert any(hasattr(node, "_text") for node in distinct_nodes(out))
    for original in (e, out):
        copied = copy_of(original)
        assert copied == original
        for node in distinct_nodes(copied):
            assert not hasattr(node, "_simplified") and not hasattr(node, "_text")
        again = simplify(copied)
        assert again == out and to_source(again) == to_source(out)


class WeakSum(Sum):
    """A Sum that a weak reference can watch."""

    __slots__ = ("__weakref__",)


class WeakProduct(Product):
    """A Product that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_memo_is_dropped_with_its_nodes():
    x1 = Var("x", 1)
    shared = WeakSum((x1, Product((Const(2.0), x1))))
    e = WeakProduct((shared, Call("exp", shared), Power(shared, 2.0)))
    refs = [weakref.ref(shared), weakref.ref(e)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = simplify(e)
        assert to_source(out) == "3*x1*(3*x1)^2*exp(3*x1)"
        assert e._simplified is out
        del shared, e, out
        # no table holds a node and the memo makes no cycle: reference
        # counts alone free the input and what its slots hold
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_threads_simplifying_one_tree_agree():
    chart = Chart(2)
    x1, y2 = Var("x", 1), Var("y", 2)
    tree = _diff(_diff(parse(COUPLED + " + ln(2 + x1^2*y2^2)/(1 + x2*y1)", chart), x1), y2)
    expected = to_source(reference_simplify(tree))
    workers = 8
    barrier = threading.Barrier(workers)
    results = []

    def work():
        barrier.wait()
        results.append(simplify(tree))

    threads = [threading.Thread(target=work) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == workers
    assert {to_source(out) for out in results} == {expected}
    assert_no_node_holds_itself(tree, *results)


# ---------------------------------------------------------------------------
# the Riemann tensor of a coupled n=2 potential
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def riemann_run():
    """riemann and r_zero on the coupled potential, with every simplify recorded.

    They are the two symbolic tensors of a check.  Returns the Riemann
    tensor, each top-level call's input and output, and per node, by id,
    how often the rules for sums, products, quotients and powers ran on
    it and how often it was printed for a sort key.  earlier_hits counts
    memo hits on nodes whose memo an earlier top-level call wrote.  Every
    counted node is kept, so no id is reused.
    """
    chart = Chart(2)
    g = metric_from_potential(parse(COUPLED, chart), chart)
    run = SimpleNamespace(calls=[], simplified=Counter(), printed=Counter(), earlier_hits=0)
    written = {}   # id(node) -> the top-level call during which its memo was written
    keep = []
    original_simplify, original_print = expr.simplify, expr._print_node

    def counting_simplify(e):
        if isinstance(e, (Const, Var)):
            return e
        keep.append(e)
        if hasattr(e, "_simplified"):
            run.earlier_hits += written.get(id(e), len(run.calls)) < len(run.calls)
        out = original_simplify(e)
        keep.append(out)
        written.setdefault(id(e), len(run.calls))
        written.setdefault(id(out), len(run.calls))
        return out

    def counting(rule):
        def counted_rule(e):
            keep.append(e)
            run.simplified[id(e)] += 1
            return rule(e)
        return counted_rule

    def counting_print(e, text):
        if text is expr._source:
            keep.append(e)
            run.printed[id(e)] += 1
        return original_print(e, text)

    def top_level(e):
        out = counting_simplify(e)
        run.calls.append((e, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "simplify", counting_simplify)   # the recursive calls
        mp.setattr(expr, "_print_node", counting_print)
        for kind in ("sum", "product", "quotient", "power"):
            rule = f"_simplify_{kind}"
            mp.setattr(expr, rule, counting(getattr(expr, rule)))
        for name, module in list(sys.modules.items()):
            if name.startswith("parakahler.") and name != "parakahler.expr" \
                    and getattr(module, "simplify", None) is simplify:
                mp.setattr(module, "simplify", top_level)
        run.tensor = riemann(g)
        r_zero(g, model_product_structure(chart))
    return run


def test_riemann_simplifies_and_prints_each_node_once_across_calls(riemann_run):
    run = riemann_run
    assert run.calls and run.printed
    assert max(run.simplified.values()) == 1
    assert max(run.printed.values()) == 1
    # later calls meet nodes that earlier calls simplified, so the bounds
    # above are not met trivially
    assert run.earlier_hits > 0


def test_riemann_simplify_calls_match_reference(riemann_run):
    for e, out in riemann_run.calls:
        assert to_source(out) == to_source(reference_simplify(e))


def test_riemann_entries_match_reference(riemann_run):
    tensor = riemann_run.tensor
    assert tensor.canonical
    for entry in tensor.canonical.values():
        assert_matches_reference(entry)
