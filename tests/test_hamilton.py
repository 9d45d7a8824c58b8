"""Liouville form, canonical form, Hamiltonian fields, and their ODEs."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.expr import (
    Compiled,
    Const,
    EvaluationError,
    Var,
    ZERO,
    differentiate,
    equal_on_samples,
    evaluate,
    is_zero,
    parse,
    simplify,
    to_source,
)
from parakahler.geometry import (
    Chart,
    exterior_derivative,
    form_to_text,
    function_form,
    interior_product,
    j_dual_apply,
    make_form,
    model_dual_structure,
    zero_form,
)
from parakahler.hamilton import (
    HamiltonianSystem,
    canonical_form,
    hamilton_odes,
    hamiltonian_vector_field,
    liouville_one_form,
)

import helpers
from test_simplify_memo import shared_trees

CHART1 = Chart(1)
CHART2 = Chart(2)


def system(source, chart=CHART1):
    return HamiltonianSystem.from_source(source, chart)


def z_h_of_h(H):
    """Z_H(H) = H_y * H_x - H_x * H_y summed over i, simplified."""
    Z = hamiltonian_vector_field(H)
    return simplify(sum((c * d for c, d in zip(Z.components, H.gradient)), start=ZERO))


def form_matrix(phi, point):
    dim = phi.chart.dim
    m = np.zeros((dim, dim))
    for (a, b), coefficient in phi.terms():
        value = evaluate(coefficient, point)
        m[a, b] = value
        m[b, a] = -value
    return m


class TestLiouvilleOneForm:
    def test_n1_coefficients(self):
        lam = liouville_one_form(CHART1)
        assert to_source(simplify(lam.coefficient((0,)))) == "0.5*y1"
        assert to_source(simplify(lam.coefficient((1,)))) == "-0.5*x1"

    def test_n2_text(self):
        lam = liouville_one_form(CHART2)
        assert form_to_text(lam) == (
            "0.5*y1 · dx1 + 0.5*y2 · dx2 - 0.5*x1 · dy1 - 0.5*x2 · dy2")

    def test_dual_involution_recovers_omega(self):
        # J* applied to lambda gives back omega = (y dx + x dy)/2
        lam = liouville_one_form(CHART1)
        omega = make_form(CHART1, 1, [((0,), parse("0.5*y1", CHART1)),
                                      ((1,), parse("0.5*x1", CHART1))])
        back = j_dual_apply(model_dual_structure(CHART1), lam)
        assert helpers.forms_equal_on_samples(back, omega)


class TestCanonicalForm:
    def test_n1(self):
        assert form_to_text(canonical_form(CHART1)) == "dx1^dy1"

    def test_n2(self):
        assert form_to_text(canonical_form(CHART2)) == "dx1^dy1 + dx2^dy2"

    def test_closed(self):
        phi = canonical_form(CHART2)
        assert helpers.forms_equal_on_samples(exterior_derivative(phi),
                                              zero_form(CHART2, 3))

    def test_equals_minus_d_lambda(self):
        lam = liouville_one_form(CHART2)
        direct = canonical_form(CHART2)
        assert helpers.forms_equal_on_samples(exterior_derivative(lam).scale(-1.0), direct)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nondegenerate_unit_determinant(self, n):
        chart = Chart(n)
        phi = canonical_form(chart)
        point = chart.sample_point(random.Random(0))
        det = np.linalg.det(form_matrix(phi, point))
        assert abs(det) == pytest.approx(1.0)


class TestHamiltonianVectorField:
    def test_bilinear(self):
        Z = hamiltonian_vector_field(system("x1*y1"))
        assert to_source(simplify(Z.components[0])) == "x1"
        assert to_source(simplify(Z.components[1])) == "-y1"

    def test_oscillator(self):
        Z = hamiltonian_vector_field(system("0.5*(x1^2 + y1^2)"))
        assert to_source(simplify(Z.components[0])) == "y1"
        assert to_source(simplify(Z.components[1])) == "-x1"

    def test_constant_hamiltonian(self):
        Z = hamiltonian_vector_field(system("4"))
        assert Z.is_zero()

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_defining_equation(self, seed):
        # i_{Z_H} Phi = dH coefficientwise
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        H = HamiltonianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=5))
        Z = hamiltonian_vector_field(H)
        lhs = interior_product(Z, canonical_form(chart))
        rhs = exterior_derivative(function_form(chart, H.H))
        assert helpers.forms_equal_on_samples(lhs, rhs, seed=seed)

    @settings(derandomize=True, max_examples=30)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_closed_form_matches_generic_solve(self, seed):
        # solve (i_Z Phi)_b = sum_a Z^a Omega_ab = dH_b numerically at a point
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        H = HamiltonianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=5))
        point = chart.sample_point(rng)
        omega = form_matrix(canonical_form(chart), point)
        dH = [evaluate(differentiate(H.H, v), point) for v in chart.variables()]
        generic = np.linalg.solve(omega.T, dH)
        closed = Compiled(hamiltonian_vector_field(H).components).at(point)
        assert np.allclose(closed, generic, rtol=1e-12, atol=1e-12)

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_hamiltonian_is_first_integral(self, seed):
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        H = HamiltonianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=5))
        assert equal_on_samples(z_h_of_h(H), Const(0.0), trials=10, seed=seed)

    def test_self_derivative_simplifies_to_zero_exactly(self):
        assert is_zero(z_h_of_h(system("x1*y1 + x1^2")))


class TestHamiltonOdes:
    def test_bilinear(self):
        sys = hamilton_odes(system("x1*y1"))
        assert to_source(simplify(sys.rhs[0])) == "x1"
        assert to_source(simplify(sys.rhs[1])) == "-y1"

    def test_oscillator(self):
        sys = hamilton_odes(system("0.5*(x1^2 + y1^2)"))
        assert to_source(simplify(sys.rhs[0])) == "y1"
        assert to_source(simplify(sys.rhs[1])) == "-x1"

    def test_zero_hamiltonian(self):
        sys = hamilton_odes(system("0"))
        assert all(is_zero(simplify(e)) for e in sys.rhs)

    def test_matches_vector_field_components(self):
        H = system("x1^2*y1 + y1^2", CHART1)
        Z = hamiltonian_vector_field(H)
        sys = hamilton_odes(H)
        for a in range(CHART1.dim):
            assert equal_on_samples(sys.rhs[a], Z.components[a])


class TestHamiltonianSystemValidation:
    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(CHART1, parse("x2", CHART2))


class TestSeparable:
    """H.separable: H_x reads no momentum, so the symplectic Euler step may skip H_xy."""

    @pytest.mark.parametrize("source,chart,separable", [
        ("0.5*(x1^2 + y1^2)", CHART1, True),
        ("0", CHART1, True),
        ("exp(y1)*cosh(y2) + ln(x1*x2)/(x1 - x2) + x2^0.5", CHART2, True),
        ("0.5*y1^2 + 0*x1*y1", CHART1, True),   # simplify drops the coupling
        ("x1*y1", CHART1, False),
        ("0.5*(y1^2 + y2^2) + x1*y2", CHART2, False),
    ])
    def test_flag_and_a_zero_mixed_block(self, source, chart, separable):
        H = system(source, chart)
        assert H.separable is separable
        if separable:   # what the step that skips H_xy relies on
            assert all(e == Const(0.0) for row in H.mixed_hessian for e in row)

    @settings(max_examples=200, deadline=None)
    @given(shared_trees())
    def test_derivative_in_an_absent_momentum_is_zero(self, e):
        # the trees read x1, x2 and y1 only; a quotient by an exact zero keeps
        # 0/0, where e itself fails, so the step fails at H_x before any H_xy
        if differentiate(e, Var("y", 2)) != Const(0.0):
            with pytest.raises(EvaluationError):
                evaluate(e, {"x1": 0.3, "x2": 0.7, "y1": -0.4})
