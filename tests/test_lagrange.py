"""Lagrangian pipeline: forms, energy, semispray solve, residuals, laws."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.expr import (
    Const,
    EvaluationError,
    Product,
    Var,
    equal_on_samples,
    parse,
    simplify,
    to_source,
)
from parakahler.geometry import (
    Chart,
    exterior_derivative,
    interior_product,
    zero_form,
)
from parakahler.integrate import Trajectory, conservation_report, integrate_rk4
from parakahler.lagrange import (
    REGULARITY_TOL,
    DegenerateLagrangianError,
    LagrangianSystem,
    Semispray,
    energy,
    energy_differential,
    energy_is_conserved,
    euler_lagrange_system,
    exponential_law_report,
    kahler_form,
    solve_semispray,
    _full_rank,
)

import helpers

CHART1 = Chart(1)
CHART2 = Chart(2)
CHART3 = Chart(3)


def system(source, chart=CHART1):
    return LagrangianSystem.from_source(source, chart)


class TestKahlerForm:
    def test_bilinear_example(self):
        phi = kahler_form(system("x1*y1"))
        assert str(phi) == "2 · dx1^dy1"

    def test_degenerate_example(self):
        phi = kahler_form(system("0.5*(x1^2 + y1^2)"))
        assert phi.is_zero()

    def test_constant_lagrangian(self):
        assert kahler_form(system("3")).is_zero()

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_expanded_hessian_form(self, seed):
        # against -d(d_J L) derived afresh; every key of Phi_L is (i, n + j)
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2, CHART3])
        L = LagrangianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=5))
        phi = kahler_form(L)
        n = chart.n
        assert all(i < n <= j for i, j in phi.coefficients)
        assert helpers.forms_equal_on_samples(phi, helpers.twisted_kahler_form(L), seed=seed)

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_closed(self, seed):
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        L = LagrangianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=5))
        dphi = exterior_derivative(kahler_form(L))
        assert helpers.forms_equal_on_samples(dphi, zero_form(chart, 3), seed=seed)


class TestEnergy:
    def test_solved_bilinear(self):
        L = system("x1*y1")
        xi = Semispray(CHART1, (parse("-x1", CHART1), parse("y1", CHART1)))
        assert to_source(energy(L, xi)) == "-3*x1*y1"

    def test_zero_semispray(self):
        L = system("x1*y1")
        xi = Semispray(CHART1, (Const(0.0), Const(0.0)))
        assert to_source(energy(L, xi)) == "-x1*y1"

    def test_quadratic(self):
        L = system("0.5*(x1^2 + y1^2)")
        xi = Semispray(CHART1, (parse("x1", CHART1), parse("-y1", CHART1)))
        e = energy(L, xi)
        target = parse("0.5*(x1^2 + y1^2)", CHART1)
        assert equal_on_samples(e, target)


class TestEnergyDifferential:
    def test_solved_bilinear(self):
        L = system("x1*y1")
        xi = Semispray(CHART1, (parse("-x1", CHART1), parse("y1", CHART1)))
        d = energy_differential(L, xi)
        assert to_source(simplify(d.coefficient((0,)))) == "-2*y1"
        assert to_source(simplify(d.coefficient((1,)))) == "-2*x1"

    def test_zero_semispray_reduces_to_minus_dL(self):
        L = system("x1*y1")
        xi = Semispray(CHART1, (Const(0.0), Const(0.0)))
        d = energy_differential(L, xi)
        assert to_source(simplify(d.coefficient((0,)))) == "-y1"
        assert to_source(simplify(d.coefficient((1,)))) == "-x1"

    @settings(derandomize=True, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_dynamics_identity(self, seed):
        # i_xi Phi_L = dE_L for the solved semispray
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        L = LagrangianSystem(chart, helpers.random_regular_lagrangian(rng, chart))
        xi = solve_semispray(L)
        lhs = interior_product(xi.as_vector_field(), kahler_form(L))
        rhs = energy_differential(L, xi)
        assert helpers.forms_equal_on_samples(lhs, rhs, seed=seed)


class TestSolveSemispray:
    def test_bilinear(self):
        xi = solve_semispray(system("x1*y1"))
        assert to_source(xi.X(1)) == "-x1"
        assert to_source(xi.Y(1)) == "y1"

    def test_quadratic(self):
        xi = solve_semispray(system("0.5*(x1^2 + y1^2)"))
        assert to_source(xi.X(1)) == "x1"
        assert to_source(xi.Y(1)) == "-y1"

    def test_linear_lagrangian_degenerate(self):
        with pytest.raises(DegenerateLagrangianError) as err:
            solve_semispray(system("x1"))
        assert "rank 0" in str(err.value)

    def test_rank_reported(self):
        with pytest.raises(DegenerateLagrangianError) as err:
            solve_semispray(system("x1*y1 + x2*y2 - x2*y2", CHART2))
        assert "rank 2 of 4" in str(err.value)

    def test_velocity_identification_not_imposed(self):
        # the solved X1 for L = x1*y1 is -x1, not the coordinate y1
        xi = solve_semispray(system("x1*y1"))
        assert not equal_on_samples(xi.X(1), Var("y", 1), trials=20, seed=0)

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_satisfies_both_coefficient_families(self, seed):
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        L = LagrangianSystem(chart, helpers.random_regular_lagrangian(rng, chart))
        el = euler_lagrange_system(L)
        for residual in el.residuals:
            assert equal_on_samples(residual, Const(0.0), trials=15, seed=seed)


@st.composite
def probe_matrices(draw):
    """Square matrices of dimension 2-6: random, or rank-deficient plus a
    perturbation near REGULARITY_TOL; either scaled by 10^k, |k| <= 150."""
    dim = draw(st.integers(2, 6))
    entries = lambda count: np.array(draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=count, max_size=count)))
    if draw(st.booleans()):
        m = entries(dim * dim).reshape(dim, dim)
    else:
        rank = draw(st.integers(0, dim - 1))
        m = entries(dim * rank).reshape(dim, rank) @ entries(rank * dim).reshape(rank, dim)
        eps = REGULARITY_TOL * 10.0 ** draw(st.floats(-3.0, 3.0))
        m = m + eps * entries(dim * dim).reshape(dim, dim)
    return m * 10.0 ** draw(st.sampled_from([0, 0, -150, 150, draw(st.integers(-150, 150))]))


class TestFullRankCertificate:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(probe_matrices())
    def test_never_claims_more_than_matrix_rank(self, m):
        if _full_rank(m.ravel().tolist(), len(m)):
            assert np.linalg.matrix_rank(m, tol=REGULARITY_TOL) == len(m)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_claims_well_conditioned_and_rejects_singular(self, dim):
        rng = np.random.default_rng(dim)
        m = np.eye(dim) + 0.2 * rng.uniform(-1.0, 1.0, (dim, dim))
        for scale in (1.0, 1e-6, 1e150):
            assert _full_rank((scale * m).ravel().tolist(), dim)
        assert not _full_rank((1e-150 * m).ravel().tolist(), dim)   # sigma_min below the tol
        singular = m.copy()
        singular[-1] = 3.0 * singular[0]
        assert not _full_rank(singular.ravel().tolist(), dim)
        assert not _full_rank([0.0] * (dim * dim), dim)


class TestEulerLagrangeSystem:
    def test_bilinear_odes(self):
        el = euler_lagrange_system(system("x1*y1"))
        assert to_source(el.semispray.X(1)) == "-x1"
        assert to_source(el.semispray.Y(1)) == "y1"

    def test_quadratic_odes(self):
        el = euler_lagrange_system(system("0.5*(x1^2 + y1^2)"))
        assert to_source(el.semispray.X(1)) == "x1"
        assert to_source(el.semispray.Y(1)) == "-y1"

    def test_exact_solution_annihilates_residuals(self):
        el = euler_lagrange_system(system("x1*y1"))
        for t in np.linspace(0.0, 2.0, 9):
            point = {"x1": 0.8 * math.exp(-t), "y1": -1.3 * math.exp(t)}
            from parakahler.expr import evaluate
            for residual in el.residuals:
                assert abs(evaluate(residual, point)) < 1e-12


class TestExponentialLaws:
    @settings(derandomize=True, max_examples=10)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rescaled_momenta_constant(self, seed):
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        L = LagrangianSystem(chart, helpers.random_regular_lagrangian(rng, chart))
        el = euler_lagrange_system(L)
        state0 = tuple(rng.uniform(-0.7, 0.7) for _ in range(chart.dim))
        traj = integrate_rk4(el.ode, state0, 0.0, 3.0, 1e-3)
        rep = exponential_law_report(L, traj)
        assert rep.max_drift() < 1e-5

    def test_momentum_products_conserved(self):
        # (dL/dx_j)(dL/dy_k) pairs e^t with e^-t growth
        from parakahler.expr import differentiate
        L = system("x1*y1 + 0.05*x1^3")
        el = euler_lagrange_system(L)
        traj = integrate_rk4(el.ode, (0.9, 1.1), 0.0, 5.0, 1e-3)
        product = simplify(Product((differentiate(L.L, Var("x", 1)),
                                    differentiate(L.L, Var("y", 1)))))
        rep = conservation_report(traj, product)
        assert rep.max_relative_drift < 1e-6

    def test_failing_row_named(self):
        L = system("ln(x1)*y1")
        traj = Trajectory(0.0, 0.1, [[1.0, 1.0], [0.0, 1.0], [1.0, 1.0]], ("x1", "y1"))
        with pytest.raises(EvaluationError) as info:
            exponential_law_report(L, traj)
        assert str(info.value) == "y1*1/x1 is not finite at step 1 (t = 0.1, x1 = 0, y1 = 1)"


class TestEnergyConservation:
    def test_bilinear_energy_conserved(self):
        L = system("x1*y1")
        xi = solve_semispray(L)
        assert energy_is_conserved(L, xi)
        el = euler_lagrange_system(L)
        traj = integrate_rk4(el.ode, (1.0, 1.0), 0.0, 5.0, 1e-3)
        rep = conservation_report(traj, energy(L, xi))
        assert rep.max_relative_drift < 1e-8

    def test_quadratic_energy_not_conserved(self):
        # Phi_L = 0 here: the flow does not preserve E_L
        L = system("0.5*(x1^2 + y1^2)")
        xi = solve_semispray(L)
        assert not energy_is_conserved(L, xi)


class TestLagrangianSystemValidation:
    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError):
            LagrangianSystem(CHART1, parse("x1*y2", CHART2))
