"""Expression kernel: parsing, differentiation, simplification, evaluation."""

import copy
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from parakahler import expr
from parakahler.expr import (
    Call,
    Const,
    MAX_NESTING,
    EvaluationError,
    ParseError,
    Power,
    Product,
    Quotient,
    SamplingError,
    Sum,
    Var,
    differentiate,
    equal_on_samples,
    evaluate,
    Compiled,
    free_variables,
    parse,
    simplify,
    to_source,
)
from parakahler.geometry import Chart

import helpers
from test_simplify_memo import shared_trees

X1 = Var("x", 1)
Y1 = Var("y", 1)
CHART1 = Chart(1)
CHART2 = Chart(2)


def fd_derivative(e, v, point, h=1e-6):
    plus = dict(point)
    minus = dict(point)
    plus[v.name] += h
    minus[v.name] -= h
    return (evaluate(e, plus) - evaluate(e, minus)) / (2.0 * h)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_variable_and_index(self):
        assert parse("x1", CHART1) == X1
        assert parse("y1", CHART1) == Y1
        assert parse("x2", CHART2) == Var("x", 2)

    def test_index_beyond_chart(self):
        with pytest.raises(ParseError):
            parse("x2", CHART1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse("x1*z9", CHART1)
        assert "z9" in str(err.value)

    def test_precedence_product_over_sum(self):
        e = parse("x1 + 2*y1", CHART1)
        assert evaluate(e, {"x1": 1.0, "y1": 3.0}) == 7.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-x1^2", CHART1)
        assert evaluate(e, {"x1": 3.0, "y1": 0.0}) == -9.0

    def test_power_right_associative_exponent_sign(self):
        e = parse("x1^-2", CHART1)
        assert evaluate(e, {"x1": 2.0, "y1": 0.0}) == 0.25

    def test_parenthesized_sum(self):
        e = parse("0.5*(x1^2 + y1^2)", CHART1)
        assert evaluate(e, {"x1": 3.0, "y1": 4.0}) == 12.5

    def test_function_call(self):
        e = parse("sin(x1)*cos(y1)", CHART1)
        p = {"x1": 0.3, "y1": 1.1}
        assert math.isclose(evaluate(e, p), math.sin(0.3) * math.cos(1.1))

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(x1)", CHART1)

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x1^y1", CHART1)

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + ", CHART1)
        assert err.value.offset is not None

    def test_division(self):
        e = parse("x1/2", CHART1)
        assert evaluate(e, {"x1": 5.0, "y1": 0.0}) == 2.5

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("   ", CHART1)

    def test_chains_parse_flat(self):
        two = Const(2.0)
        minus = Const(-1.0)
        assert parse("x1 + y1 - 2*x1*y1 + 2", CHART1) == Sum(
            (X1, Y1, Product((minus, Product((two, X1, Y1)))), two))
        # each / closes the product so far
        assert parse("x1*y1/2*x1", CHART1) == Product((Quotient(Product((X1, Y1)), two), X1))
        assert parse("x1/y1/2", CHART1) == Quotient(Quotient(X1, Y1), two)
        assert parse("-x1*y1", CHART1) == Product((Product((minus, X1)), Y1))

    def test_long_flat_sum_parses_and_evaluates(self):
        source = " + ".join(f"{k}*x1^{k % 5}*y1" for k in range(1, 3001))
        e = parse(source, CHART1)
        assert isinstance(e, Sum) and len(e.terms) == 3000
        assert evaluate(e, {"x1": 1.0, "y1": 1.0}) == 3000 * 3001 / 2
        assert to_source(simplify(e)) == \
            "901500*y1 + 899100*x1*y1 + 899700*x1^2*y1 + 900300*x1^3*y1 + 900900*x1^4*y1"

    @pytest.mark.parametrize("opening,closing", [
        ("(", ")"), ("sin(", ")"), ("-", ""), ("1^", ""), ("x1/", ""),
    ], ids=["parentheses", "calls", "signs", "exponents", "quotients"])
    def test_nesting_bound(self, opening, closing):
        depth = MAX_NESTING
        parse(opening * depth + "1" + closing * depth, CHART1)
        depth = MAX_NESTING + 1
        with pytest.raises(ParseError) as err:
            parse(opening * depth + "1" + closing * depth, CHART1)
        assert f"nests deeper than {MAX_NESTING} levels" in str(err.value)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

class TestDifferentiate:
    def test_sin_matches_cos(self):
        # d sin(x1)/dx1 at 0.3 equals cos(0.3) = 0.955336...
        e = parse("sin(x1)", CHART1)
        d = differentiate(e, X1)
        value = evaluate(d, {"x1": 0.3, "y1": 0.0})
        assert math.isclose(value, math.cos(0.3), rel_tol=1e-12)
        assert math.isclose(value, 0.9553364891, rel_tol=1e-9)

    def test_product_rule(self):
        e = parse("x1*y1", CHART1)
        assert to_source(differentiate(e, X1)) == "y1"
        assert to_source(differentiate(e, Y1)) == "x1"

    def test_power_rule(self):
        e = parse("x1^3", CHART1)
        d = differentiate(e, X1)
        assert evaluate(d, {"x1": 2.0, "y1": 0.0}) == 12.0

    def test_quotient_rule(self):
        e = parse("x1/y1", CHART1)
        d = differentiate(e, Y1)
        p = {"x1": 3.0, "y1": 2.0}
        assert math.isclose(evaluate(d, p), -3.0 / 4.0)

    def test_chain_rule_exp(self):
        e = parse("exp(2*x1)", CHART1)
        d = differentiate(e, X1)
        p = {"x1": 0.4, "y1": 0.0}
        assert math.isclose(evaluate(d, p), 2.0 * math.exp(0.8))

    def test_ln(self):
        e = parse("ln(x1)", CHART1)
        d = differentiate(e, X1)
        assert math.isclose(evaluate(d, {"x1": 4.0, "y1": 0.0}), 0.25)

    def test_hyperbolic_pair(self):
        sinh = parse("sinh(x1)", CHART1)
        cosh = parse("cosh(x1)", CHART1)
        assert equal_on_samples(differentiate(sinh, X1), cosh, trials=30, seed=3)
        assert equal_on_samples(differentiate(cosh, X1), sinh, trials=30, seed=4)

    def test_constant_derivative_is_zero(self):
        assert differentiate(Const(7.0), X1) == Const(0.0)

    @settings(derandomize=True, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_central_difference(self, seed):
        rng = random.Random(seed)
        e = helpers.random_polynomial(rng, CHART2)
        v = rng.choice(CHART2.variables())
        point = helpers.random_point(rng, CHART2, box=1.5)
        exact = evaluate(differentiate(e, v), point)
        approx = fd_derivative(e, v, point)
        assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_linearity(self, seed):
        rng = random.Random(seed)
        a = helpers.random_polynomial(rng, CHART1)
        b = helpers.random_polynomial(rng, CHART1)
        lhs = differentiate(Sum((a, b)), X1)
        rhs = Sum((differentiate(a, X1), differentiate(b, X1)))
        assert equal_on_samples(lhs, rhs, trials=20, seed=seed)

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_mixed_partials_commute(self, seed):
        rng = random.Random(seed)
        e = helpers.random_polynomial(rng, CHART2, max_degree=4)
        v, w = rng.sample(list(CHART2.variables()), 2)
        lhs = differentiate(differentiate(e, v), w)
        rhs = differentiate(differentiate(e, w), v)
        assert equal_on_samples(lhs, rhs, trials=20, seed=seed)


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

class TestSimplify:
    def test_collects_like_terms(self):
        e = Sum((X1, X1, Product((Const(-2.0), X1))))
        assert simplify(e) == Const(0.0)

    def test_zero_product_annihilates(self):
        e = Product((Const(0.0), parse("sin(x1)", CHART1)))
        assert simplify(e) == Const(0.0)

    def test_constant_folding(self):
        e = parse("2*3 + 4", CHART1)
        assert simplify(e) == Const(10.0)

    def test_power_flattening(self):
        e = Power(Power(X1, 2.0), 3.0)
        assert to_source(simplify(e)) == "x1^6"

    def test_unit_coefficient_dropped(self):
        e = Product((Const(1.0), X1))
        assert simplify(e) == X1

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_preserves_value(self, seed):
        rng = random.Random(seed)
        e = helpers.random_polynomial(rng, CHART2, max_degree=4, terms=6)
        assert equal_on_samples(e, simplify(e), trials=10, seed=seed)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(shared_trees(edges=True, earlier=True))
    def test_idempotent(self, e):
        once = simplify(e)
        again = simplify(copy.deepcopy(once))   # a copy carries no memo, so this simplifies anew
        assert again == once
        assert to_source(again) == to_source(once)

    @pytest.mark.parametrize("source,expected", [
        ("(x1^-1)^-1", "x1"),
        ("(0^-1)^-1", "0"),
        ("x1*(-1)^1.5*(-1)^1.5", "-x1"),
        ("x1*(x1^2)^0.5*(x1^2)^1.5", "x1^5"),
        ("y1*(x1^2)^0.5*x1^-2*(x1^2)^0.5", "y1"),
    ])
    def test_merged_powers_are_a_fixed_point(self, source, expected):
        once = simplify(parse(source, CHART1))
        assert to_source(once) == expected
        assert simplify(copy.deepcopy(once)) == once

    @settings(derandomize=True, max_examples=60)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_print_parse_roundtrip(self, seed):
        rng = random.Random(seed)
        e = simplify(helpers.random_polynomial(rng, CHART2, max_degree=3))
        back = parse(to_source(e), CHART2)
        assert equal_on_samples(e, back, trials=10, seed=seed)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_missing_variable(self):
        with pytest.raises(EvaluationError):
            evaluate(X1, {"y1": 1.0})

    def test_division_by_zero(self):
        e = parse("1/x1", CHART1)
        with pytest.raises(EvaluationError):
            evaluate(e, {"x1": 0.0, "y1": 0.0})

    def test_log_of_negative(self):
        e = parse("ln(x1)", CHART1)
        with pytest.raises(EvaluationError):
            evaluate(e, {"x1": -1.0, "y1": 0.0})

    def test_fractional_power_of_negative(self):
        e = Power(X1, 0.5)
        with pytest.raises(EvaluationError):
            evaluate(e, {"x1": -4.0, "y1": 0.0})

    def test_integer_power_of_negative_is_fine(self):
        assert evaluate(Power(X1, 3.0), {"x1": -2.0, "y1": 0.0}) == -8.0

    def test_columns_match_scalar(self):
        import numpy as np
        e = parse("x1^2 + sin(y1)", CHART1)
        xs = np.linspace(-1.0, 1.0, 7)
        ys = np.linspace(0.0, 2.0, 7)
        column = Compiled((e,)).columns({"x1": xs, "y1": ys})[0]
        for k in range(7):
            assert math.isclose(column[k], evaluate(e, {"x1": xs[k], "y1": ys[k]}))

    def test_compiled_matches_evaluate(self):
        e = parse("x1*y1 + cos(x1)", CHART1)
        f = Compiled((e,), ("x1", "y1"))
        assert f((0.7, -1.2)) == [evaluate(e, {"x1": 0.7, "y1": -1.2})]

    def test_free_variables(self):
        e = parse("x1*y2 + 3", CHART2)
        assert free_variables(e) == frozenset({Var("x", 1), Var("y", 2)})

    def test_free_variables_visits_a_shared_node_once(self):
        # 2^60 paths reach x1 through 60 levels of e + e; a tree walk would not return
        e = X1
        for _ in range(60):
            e = Sum((e, e))
        assert free_variables(e) == frozenset({X1})

    @settings(max_examples=200, deadline=None)
    @given(shared_trees(edges=True))
    def test_free_variables_matches_the_recursive_definition(self, e):
        def reference(node):   # the tree walk free_variables replaced
            if isinstance(node, Var):
                return frozenset((node,))
            return frozenset().union(*map(reference, expr._children(node)))

        assert free_variables(e) == reference(e)


# ---------------------------------------------------------------------------
# sampling equality
# ---------------------------------------------------------------------------

class TestEqualOnSamples:
    def test_identity_detected(self):
        a = parse("(x1 + y1)^2", CHART1)
        b = parse("x1^2 + 2*x1*y1 + y1^2", CHART1)
        assert equal_on_samples(a, b)

    def test_hyperbolic_identity(self):
        a = parse("cosh(x1)^2 - sinh(x1)^2", CHART1)
        assert equal_on_samples(a, Const(1.0))

    def test_difference_detected(self):
        a = parse("x1^2", CHART1)
        b = parse("x1^2 + 0.001*y1", CHART1)
        assert not equal_on_samples(a, b)

    def test_deterministic_given_seed(self):
        a = parse("sin(x1)*y1", CHART1)
        b = parse("y1*sin(x1)", CHART1)
        assert equal_on_samples(a, b, seed=5) == equal_on_samples(a, b, seed=5)

    def test_everywhere_singular_raises(self):
        e = Quotient(Const(1.0), Sum((X1, Product((Const(-1.0), X1)))))
        with pytest.raises(SamplingError):
            equal_on_samples(e, e, trials=3, seed=0)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

class TestPrinting:
    def test_negative_leading_coefficient(self):
        assert to_source(simplify(parse("-1*x1", CHART1))) == "-x1"

    def test_monomial(self):
        assert to_source(simplify(parse("-3*x1*y1", CHART1))) == "-3*x1*y1"

    def test_integer_constants_have_no_decimal(self):
        assert to_source(Const(2.0)) == "2"
        assert to_source(Const(2.5)) == "2.5"

    def test_power_caret(self):
        assert to_source(Power(X1, 2.0)) == "x1^2"

    def test_call(self):
        assert to_source(Call("sin", X1)) == "sin(x1)"

    def test_sum_with_negative_tail(self):
        e = simplify(parse("x1 - y1", CHART1))
        assert to_source(e) in ("x1 - y1", "x1 + -y1", "x1 + -1*y1")
        assert equal_on_samples(parse(to_source(e), CHART1), e)
