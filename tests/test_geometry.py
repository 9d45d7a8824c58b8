"""Model structures, differential forms, and the compatibility identity."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.expr import ONE, ZERO, Const, Var, parse, simplify, to_source
from parakahler.geometry import (
    Chart,
    DegreeError,
    Metric,
    VectorField,
    compatibility_check,
    compatibility_violation,
    exterior_derivative,
    form_to_text,
    function_form,
    interior_product,
    j_dual_apply,
    make_form,
    model_dual_structure,
    model_metric,
    model_product_structure,
    zero_form,
)

import helpers

CHART1 = Chart(1)
CHART2 = Chart(2)


def random_form(rng, chart, degree, terms=3):
    entries = []
    for _ in range(terms):
        idx = tuple(rng.sample(range(chart.dim), degree))
        entries.append((idx, helpers.random_polynomial(rng, chart, max_degree=2)))
    return make_form(chart, degree, entries)


class TestChart:
    def test_dimension(self):
        assert CHART2.dim == 4

    def test_variable_layout(self):
        assert CHART2.variable(0) == Var("x", 1)
        assert CHART2.variable(1) == Var("x", 2)
        assert CHART2.variable(2) == Var("y", 1)
        assert CHART2.variable(3) == Var("y", 2)

    def test_names(self):
        assert CHART2.names() == ("x1", "x2", "y1", "y2")

    def test_bad_n(self):
        with pytest.raises(ValueError):
            Chart(0)


class TestModelStructures:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_matrix(self, n):
        chart = Chart(n)
        g = model_metric(chart)
        point = chart.sample_point(random.Random(0))
        gm = g.at(point)
        expected = np.zeros((2 * n, 2 * n))
        expected[:n, n:] = np.eye(n)
        expected[n:, :n] = np.eye(n)
        assert np.array_equal(gm, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_structure_matrix(self, n):
        chart = Chart(n)
        J = model_product_structure(chart)
        point = chart.sample_point(random.Random(1))
        jm = J.at(point)
        expected = np.diag([1.0] * n + [-1.0] * n)
        assert np.array_equal(jm, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_j_squares_to_identity_exactly(self, n):
        J = model_product_structure(Chart(n)).entries
        dim = 2 * n
        for a in range(dim):
            for b in range(dim):
                square = simplify(sum((J[a][c] * J[c][b] for c in range(dim)), start=ZERO))
                assert isinstance(square, Const)
                assert square.value == (1.0 if a == b else 0.0)

    def test_j_not_identity(self):
        J = model_product_structure(CHART1)
        jm = J.at({"x1": 0.0, "y1": 0.0})
        assert not np.array_equal(jm, np.eye(2))

    def test_neutral_signature(self):
        gm = model_metric(CHART2).at({"x1": 0, "x2": 0, "y1": 0, "y2": 0})
        eigenvalues = np.linalg.eigvalsh(gm)
        assert sum(1 for v in eigenvalues if v > 0) == 2
        assert sum(1 for v in eigenvalues if v < 0) == 2


class TestMetricApply:
    def test_crossed_basis_vectors(self):
        # g(d/dx1, d/dy1) = 1, g(d/dx1, d/dx1) = g(d/dy1, d/dy1) = 0
        g = model_metric(CHART1)
        assert g.entries == ((ZERO, ONE), (ONE, ZERO))

    def test_j_eigenvectors(self):
        # J d/dx1 = d/dx1 and J d/dy1 = -d/dy1
        J = model_product_structure(CHART1)
        assert J.entries == ((ONE, ZERO), (ZERO, Const(-1.0)))


class TestCompatibility:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_pair_compatible(self, n):
        chart = Chart(n)
        assert compatibility_check(model_metric(chart),
                                   model_product_structure(chart), trials=100)

    def test_euclidean_metric_fails(self):
        rows = [[Const(1.0) if a == b else Const(0.0) for b in range(2)]
                for a in range(2)]
        g = Metric.from_rows(CHART1, rows)
        assert not compatibility_check(g, model_product_structure(CHART1))

    @pytest.mark.parametrize("trials", [0, 20])
    def test_every_trial_count_samples(self, trials):
        g = Metric.from_rows(CHART1, [[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]])
        J = model_product_structure(CHART1)
        assert not compatibility_check(g, J, trials=trials)
        assert compatibility_violation(g, J, trials, seed=0) == 2.0


class TestExteriorDerivative:
    def test_differential_of_product(self):
        f = function_form(CHART1, parse("x1*y1", CHART1))
        df = exterior_derivative(f)
        assert to_source(simplify(df.coefficient((0,)))) == "y1"
        assert to_source(simplify(df.coefficient((1,)))) == "x1"

    def test_one_term_example(self):
        # d(x1 dy1) = dx1 ^ dy1
        w = make_form(CHART1, 1, [((1,), Var("x", 1))])
        dw = exterior_derivative(w)
        assert simplify(dw.coefficient((0, 1))) == Const(1.0)

    @settings(derandomize=True, max_examples=100)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_d_squared_zero(self, seed):
        rng = random.Random(seed)
        degree = rng.choice([0, 1, 2])
        w = random_form(rng, CHART2, degree)
        dd = exterior_derivative(exterior_derivative(w))
        assert helpers.forms_equal_on_samples(dd, zero_form(CHART2, degree + 2), seed=seed)

    def test_leibniz_rule_functions(self):
        rng = random.Random(7)
        f = helpers.random_polynomial(rng, CHART1)
        g = helpers.random_polynomial(rng, CHART1)
        from parakahler.expr import Product
        lhs = exterior_derivative(function_form(CHART1, simplify(Product((f, g)))))
        rhs = (exterior_derivative(function_form(CHART1, f)).scale(g)
               .add(exterior_derivative(function_form(CHART1, g)).scale(f)))
        assert helpers.forms_equal_on_samples(lhs, rhs)


class TestVerticalDerivative:
    def test_product_example(self):
        # f = x1*y1 gives y1 dx1 - x1 dy1
        f = parse("x1*y1", CHART1)
        w = helpers.vertical_derivative(f, CHART1)
        assert to_source(simplify(w.coefficient((0,)))) == "y1"
        assert to_source(simplify(w.coefficient((1,)))) == "-x1"

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_bracket_identity(self, seed):
        # [i_J, d] on functions: i_J(df) - d(i_J f) with i_J f = 0
        rng = random.Random(seed)
        f = helpers.random_polynomial(rng, CHART2, max_degree=3)
        Jd = model_dual_structure(CHART2)
        df = exterior_derivative(function_form(CHART2, f))
        bracket = j_dual_apply(Jd, df)
        direct = helpers.vertical_derivative(f, CHART2)
        assert helpers.forms_equal_on_samples(bracket, direct, seed=seed)


class TestInsertionOperator:
    # on 1-forms the insertion i_J is the dual action J*
    def test_on_df_example(self):
        f = parse("x1*y1", CHART1)
        Jd = model_dual_structure(CHART1)
        out = j_dual_apply(Jd, exterior_derivative(function_form(CHART1, f)))
        assert to_source(simplify(out.coefficient((0,)))) == "y1"
        assert to_source(simplify(out.coefficient((1,)))) == "-x1"

    def test_degree_three_rejected(self):
        Jd = model_dual_structure(CHART2)
        w = zero_form(CHART2, 3)
        with pytest.raises(DegreeError):
            j_dual_apply(Jd, w)


class TestInteriorProduct:
    def test_contraction_example(self):
        # i_xi(dx1^dy1) = a dy1 - b dx1 for xi = a dx1-dir + b dy1-dir
        xi = VectorField(CHART1, (Const(2.0), Const(5.0)))
        w = make_form(CHART1, 2, [((0, 1), Const(1.0))])
        out = interior_product(xi, w)
        assert simplify(out.coefficient((1,))) == Const(2.0)
        assert simplify(out.coefficient((0,))) == Const(-5.0)

    def test_function_rejected(self):
        xi = VectorField(CHART1, (ONE, ZERO))
        with pytest.raises(DegreeError):
            interior_product(xi, function_form(CHART1, Const(1.0)))

    @settings(derandomize=True, max_examples=30)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_nilpotent_on_two_forms(self, seed):
        rng = random.Random(seed)
        w = random_form(rng, CHART2, 2)
        xi = VectorField(CHART2, tuple(Const(rng.uniform(-2, 2)) for _ in range(4)))
        twice = interior_product(xi, interior_product(xi, w))
        assert helpers.forms_equal_on_samples(twice, zero_form(CHART2, 0), seed=seed)


class TestJDual:
    def test_liouville_rotation(self):
        # J* maps (y1/2) dx1 + (x1/2) dy1 to (y1/2) dx1 - (x1/2) dy1
        Jd = model_dual_structure(CHART1)
        alpha = make_form(CHART1, 1, [
            ((0,), parse("0.5*y1", CHART1)),
            ((1,), parse("0.5*x1", CHART1)),
        ])
        out = j_dual_apply(Jd, alpha)
        assert to_source(simplify(out.coefficient((0,)))) == "0.5*y1"
        assert to_source(simplify(out.coefficient((1,)))) == "-0.5*x1"


class TestFormPrinting:
    def test_two_form_with_coefficient(self):
        w = make_form(CHART1, 2, [((0, 1), Const(2.0))])
        assert form_to_text(w) == "2 · dx1^dy1"

    def test_unit_coefficient_implicit(self):
        w = make_form(CHART1, 2, [((0, 1), Const(1.0))])
        assert form_to_text(w) == "dx1^dy1"

    def test_zero_form(self):
        assert form_to_text(zero_form(CHART1, 2)) == "0"

    def test_negative_coefficients_use_minus(self):
        w = make_form(CHART1, 1, [((0,), parse("0.5*y1", CHART1)),
                                  ((1,), parse("-0.5*x1", CHART1))])
        assert form_to_text(w) == "0.5*y1 · dx1 - 0.5*x1 · dy1"

    def test_normalized_index_order(self):
        w = make_form(CHART1, 2, [((1, 0), Const(1.0))])
        assert form_to_text(w) == "-dx1^dy1"
