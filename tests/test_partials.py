"""One table of partial derivatives per scalar: Chart.partials and what reads it.

The table keys each partial by its sorted index tuple and derives it once,
from its parent one index shorter.  sympy is the oracle for its values;
the exactness of nabla_J on potential metrics is the property it buys:
every K_{a b c} that the connection reads is one object, so the mixed-type
Christoffel symbols cancel to the exact zero.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from parakahler import expr, geometry
from parakahler.curvature import metric_from_potential, nabla_J
from parakahler.expr import parse, to_source
from parakahler.geometry import Chart, Metric, model_product_structure

EXPONENTS = ("2", "3", "-1", "-2")


@st.composite
def rational_sources(draw, n: int, depth: int = 4) -> str:
    """A polynomial or rational source over x1..yn with small integer constants."""
    coordinates = st.sampled_from([f"{c}{i}" for c in "xy" for i in range(1, n + 1)])
    shape = draw(st.sampled_from(("leaf", "binary", "binary", "power")) if depth
                 else st.just("leaf"))
    if shape == "leaf":
        return draw(st.one_of(coordinates, coordinates, st.integers(1, 4).map(str)))
    if shape == "binary":
        left, op, right = (draw(rational_sources(n, depth - 1)), draw(st.sampled_from("+-*/")),
                           draw(rational_sources(n, depth - 1)))
        return f"({left} {op} {right})"
    return f"({draw(rational_sources(n, depth - 1))})^{draw(st.sampled_from(EXPONENTS))}"


@st.composite
def sources_and_indices(draw):
    n = draw(st.integers(1, 2))
    index = draw(st.lists(st.integers(0, 2 * n - 1), max_size=4))
    return n, draw(rational_sources(n)), index


class TestTable:
    def test_entry_is_kept_by_its_sorted_index(self):
        chart = Chart(2)
        partial = chart.partials(parse("x1^3*y2/(1 + y1^2)", chart))
        assert partial() is partial()
        assert partial(3, 0, 2) is partial(0, 2, 3) is partial(2, 3, 0)
        assert partial(1, 1) is partial(1, 1)

    def test_each_entry_is_its_parent_along_the_last_index(self, monkeypatch):
        chart = Chart(2)
        f = parse("x1*y1 + x2^2*y2^3 + x1*x2*y1*y2", chart)
        derived = []
        original = geometry.differentiate
        monkeypatch.setattr(geometry, "differentiate",
                            lambda e, v: derived.append((e, v)) or original(e, v))
        partial = chart.partials(f)
        value = partial(3, 1, 0, 3)
        # parents (0,), (0, 1), (0, 1, 3) and the entry (0, 1, 3, 3), each once
        assert [v.name for _, v in derived] == ["x1", "x2", "y2", "y2"]
        assert derived[0][0] is f and derived[-1][0] is partial(0, 1, 3)
        assert partial(0, 3, 3, 1) is value and len(derived) == 4

    def test_index_outside_the_chart_raises(self):
        chart = Chart(1)
        partial = chart.partials(parse("x1*y1", chart))
        for index in ((2,), (0, -1)):
            with pytest.raises(IndexError):
                partial(*index)

    def test_potential_metric_reads_the_potential_table(self):
        chart = Chart(2)
        g = metric_from_potential(parse("ln(1 + x1*y1 + x2*y2)", chart), chart)
        assert g.entries[0][3] is g.entries[3][0] is g.potential(3, 0)
        assert g.partial((1,), 0, 3) is g.partial((0,), 3, 1) is g.potential(0, 1, 3)
        assert g.partial((2, 1), 3, 0) is g.potential(0, 1, 2, 3)
        assert g.partial((0,), 0, 1) is expr.ZERO and g.partial((), 2, 3) is expr.ZERO

    def test_matrix_metric_has_a_table_per_upper_entry(self):
        chart = Chart(1)
        rows = [["2 + x1^2", "1 + x1*y1"], ["1 + x1*y1", "3 + y1^2"]]
        g = Metric.from_rows(chart, [[parse(e, chart) for e in row] for row in rows])
        assert g.potential is None
        assert g.partial((), 1, 0) is g.entries[0][1]
        assert g.partial((1, 0), 1, 0) is g.partial((0, 1), 0, 1)
        assert to_source(g.partial((0, 0), 0, 0)) == "2"


def _exact(text: str, sympy):
    """sympy expression of a printed source: ^ as **, each float as the nearest small fraction.

    Constant folding prints 1/3 as 0.3333333333333333; read back, it is 1/3.
    """
    e = sympy.sympify(text.replace("^", "**"))
    return e.xreplace({f: sympy.Rational(Fraction(float(f)).limit_denominator(10 ** 6))
                       for f in e.atoms(sympy.Float)})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sources_and_indices())
@example((2, "(x1 - y2)^3/(x2 + 3)", [3, 0, 3, 1]))
@example((1, "(x1/3 + y1)^-2", [0, 1, 1]))
def test_table_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    n, source, index = case
    chart = Chart(n)
    reference = sympy.sympify(source.replace("^", "**"))
    assume(not reference.has(sympy.zoo, sympy.nan))
    value = chart.partials(parse(source, chart))(*index)
    symbols = [sympy.Symbol(chart.names()[a]) for a in index]
    expected = sympy.diff(reference, *symbols) if symbols else reference
    assert sympy.cancel(_exact(to_source(value), sympy) - expected) == 0


@st.composite
def potentials(draw):
    """x.y plus small polynomial, ln(1 + ...) and quotient terms, finite on [-2, 2]^2n."""
    n = draw(st.integers(1, 3))
    variables = [f"{c}{i}" for c in "xy" for i in range(1, n + 1)]
    monomial = st.lists(st.sampled_from(variables), min_size=1, max_size=3).map("*".join)
    small = st.sampled_from(("0.01", "0.02", "0.05"))
    term = st.one_of(
        st.builds("{}*{}".format, small, monomial),
        st.builds("ln(1 + {}*{})".format, small, monomial),
        st.builds("{}*ln(1 + ({})^2)".format, small, monomial),
        st.builds("{}*{}/(1 + ({})^2)".format, small, monomial, monomial),
    )
    terms = draw(st.lists(term, min_size=1, max_size=4))
    bilinear = " + ".join(f"x{i}*y{i}" for i in range(1, n + 1))
    return n, " + ".join([bilinear, *terms])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(potentials(), st.integers(0, 100))
@example((2, "ln(1 + x1*y1 + x2*y2)"), 0)
@example((3, "ln(1 + x1*y1 + x2*y2 + x3*y3)"), 17)
def test_nabla_J_of_a_potential_metric_is_exactly_zero(case, seed):
    # (nabla_a J)^b_c = 2 Gamma^b_{ac} or 0; where it can be nonzero, the
    # lowered symbols read K_{abc} and K_{bac} as one object, and g^-1's
    # diagonal blocks are structural zeros
    n, source = case
    chart = Chart(n)
    g = metric_from_potential(parse(source, chart), chart)
    assert nabla_J(g, model_product_structure(chart), seed=seed) == 0.0
