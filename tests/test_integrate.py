"""Integrators, conservation diagnostics, symplecticity, and CSV output."""

import math
import os
import random
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.expr import Const, parse
from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem, hamilton_odes
from parakahler.integrate import (
    NewtonConvergenceError,
    NonFiniteStateError,
    ODESystem,
    Trajectory,
    atomic_write_text,
    canonical_matrix,
    conservation_report,
    integrate_rk4,
    integrate_symplectic_euler,
    symplecticity_check,
    write_trajectory_csv,
)
from parakahler.lagrange import LagrangianSystem, euler_lagrange_system

import helpers

CHART1 = Chart(1)
CHART2 = Chart(2)


def decay_system():
    # dx1/dt = -x1, dy1/dt = 0
    return ODESystem(CHART1, rhs=(parse("-x1", CHART1), Const(0.0)))


class TestIntegrateRk4:
    def test_exponential_decay_value(self):
        traj = integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, 1e-3)
        assert traj.final_state()[0] == pytest.approx(math.exp(-1.0), abs=1e-8)
        assert traj.final_state()[0] == pytest.approx(0.36787944, abs=1e-8)

    def test_zero_rhs_constant_trajectory(self):
        sys = ODESystem(CHART1, rhs=(Const(0.0), Const(0.0)))
        traj = integrate_rk4(sys, (0.3, -0.7), 0.0, 1.0, 0.01)
        assert np.all(traj.states == traj.states[0])

    def test_bilinear_invariant(self):
        L = LagrangianSystem.from_source("x1*y1", CHART1)
        el = euler_lagrange_system(L)
        traj = integrate_rk4(el.ode, (1.0, 1.0), 0.0, 5.0, 1e-3)
        products = traj.states[:, 0] * traj.states[:, 1]
        assert np.max(np.abs(products - 1.0)) < 1e-8

    def test_order_four_convergence(self):
        # halving h divides the error by about 2^4
        exact = math.exp(-1.0)
        errors = {}
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, h)
            errors[h] = abs(traj.final_state()[0] - exact)
        assert 14.0 <= errors[1e-2] / errors[5e-3] <= 18.0
        assert 14.0 <= errors[5e-3] / errors[2.5e-3] <= 18.0

    def test_overflow_raises_with_step_index(self):
        sys = ODESystem(CHART1, rhs=(parse("x1^2", CHART1), Const(0.0)))
        with pytest.raises(NonFiniteStateError) as err:
            integrate_rk4(sys, (1.0, 0.0), 0.0, 5.0, 0.01)
        assert err.value.step > 0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate_rk4(decay_system(), (1.0, 0.0), 1.0, 0.0, 0.1)

    def test_step_budget_enforced(self):
        with pytest.raises(ValueError):
            integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1e9, 1e-2)

    def test_wrong_state_length(self):
        with pytest.raises(ValueError):
            integrate_rk4(decay_system(), (1.0,), 0.0, 1.0, 0.1)


class TestSymplecticEuler:
    def test_bilinear_closed_form_update(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        h = 0.01
        traj = integrate_symplectic_euler(H, (1.0, 1.0), 0.0, 0.1, h)
        x, y = 1.0, 1.0
        for k in range(1, traj.steps + 1):
            y = y / (1.0 + h)
            x = x * (1.0 + h)
            assert traj.states[k, 0] == pytest.approx(x, rel=1e-14)
            assert traj.states[k, 1] == pytest.approx(y, rel=1e-14)

    def test_bilinear_product_exact_per_step(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        traj = integrate_symplectic_euler(H, (1.0, 1.0), 0.0, 5.0, 0.01)
        products = traj.states[:, 0] * traj.states[:, 1]
        assert np.max(np.abs(products - 1.0)) < 1e-12

    def test_oscillator_bounded_drift(self):
        # 1e4 steps: drift stays bounded and oscillatory, no secular growth
        H = HamiltonianSystem.from_source("0.5*(x1^2 + y1^2)", CHART1)
        traj = integrate_symplectic_euler(H, (1.0, 0.0), 0.0, 100.0, 0.01)
        values = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
        assert np.max(np.abs(values - values[0])) < 5e-3
        half = traj.steps // 2
        assert (np.max(np.abs(values[half:] - values[0]))
                <= np.max(np.abs(values[:half] - values[0])) * 1.5 + 1e-12)

    def test_zero_hamiltonian_constant(self):
        H = HamiltonianSystem.from_source("0", CHART1)
        traj = integrate_symplectic_euler(H, (0.4, -0.9), 0.0, 1.0, 0.1)
        assert np.all(traj.states == traj.states[0])

    def test_newton_failure_raises_with_step_index(self):
        # implicit equation h*y'^2 + y' - y = 0 has no real root here
        H = HamiltonianSystem.from_source("x1*y1^2", CHART1)
        with pytest.raises(NewtonConvergenceError) as err:
            integrate_symplectic_euler(H, (1.0, -1.0), 0.0, 1.0, 0.5)
        assert err.value.step == 1

    def test_n2_oscillators_decouple(self):
        H = HamiltonianSystem.from_source("x1*y1 + x2*y2", CHART2)
        traj = integrate_symplectic_euler(H, (1.0, 2.0, 1.0, 1.0), 0.0, 1.0, 0.01)
        p1 = traj.states[:, 0] * traj.states[:, 2]
        p2 = traj.states[:, 1] * traj.states[:, 3]
        assert np.max(np.abs(p1 - 1.0)) < 1e-12
        assert np.max(np.abs(p2 - 2.0)) < 1e-12


class TestConservationReport:
    def test_bilinear_hamiltonian_rk4(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        traj = integrate_rk4(hamilton_odes(H), (1.0, 1.0), 0.0, 5.0, 1e-3)
        rep = conservation_report(traj, H.H)
        assert rep.max_relative_drift < 1e-8

    def test_energy_along_euler_lagrange_flow(self):
        L = LagrangianSystem.from_source("x1*y1", CHART1)
        el = euler_lagrange_system(L)
        traj = integrate_rk4(el.ode, (1.0, 1.0), 0.0, 5.0, 1e-3)
        rep = conservation_report(traj, parse("-3*x1*y1", CHART1))
        assert rep.max_relative_drift < 1e-8
        assert rep.first == pytest.approx(-3.0)

    def test_constant_quantity_zero_drift(self):
        traj = integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, 0.01)
        rep = conservation_report(traj, Const(7.0))
        assert rep.max_relative_drift == 0.0
        assert rep.minimum == rep.maximum == 7.0

    def test_as_dict_keys(self):
        traj = integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, 0.1)
        rep = conservation_report(traj, Const(1.0))
        assert set(rep.as_dict()) == {
            "first", "last", "minimum", "maximum", "max_relative_drift"}


class TestSymplecticityCheck:
    def test_symplectic_euler_bilinear(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        dev = symplecticity_check(H, "symplectic-euler", (1.0, 1.0), 0.01, 100)
        assert dev < 1e-4

    def test_rk4_small_but_nonzero_at_large_step(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        dev = symplecticity_check(H, "rk4", (1.0, 1.0), 0.2, 100)
        assert 1e-9 < dev < 1e-2

    def test_identity_flow(self):
        H = HamiltonianSystem.from_source("0", CHART1)
        dev = symplecticity_check(H, "symplectic-euler", (0.5, 0.5), 0.01, 100)
        assert dev < 1e-10

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_symplectic_euler_preserves_form_random_h(self, seed):
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        H = HamiltonianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=3, terms=4, coeff_box=0.4))
        state0 = tuple(rng.uniform(-0.8, 0.8) for _ in range(chart.dim))
        dev = symplecticity_check(H, "symplectic-euler", state0, 0.01, 100)
        assert dev < 1e-4

    def test_unknown_scheme_rejected(self):
        H = HamiltonianSystem.from_source("x1*y1", CHART1)
        with pytest.raises(ValueError):
            symplecticity_check(H, "verlet", (1.0, 1.0), 0.01, 10)

    def test_canonical_matrix_shape(self):
        m = canonical_matrix(CHART2)
        expected = np.block([[np.zeros((2, 2)), np.eye(2)],
                             [-np.eye(2), np.zeros((2, 2))]])
        assert np.array_equal(m, expected)


class TestTrajectory:
    def test_row_count(self):
        traj = integrate_rk4(decay_system(), (1.0, 0.0), 0.0, 1.0, 0.1)
        assert traj.steps == 10
        assert traj.states.shape == (11, 2)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, 0.1, np.array([[1.0, np.nan]]), ("x1", "y1"))

    def test_columns_keyed_by_names(self):
        traj = integrate_rk4(decay_system(), (1.0, 2.0), 0.0, 0.5, 0.1)
        cols = traj.columns()
        assert set(cols) == {"x1", "y1"}
        assert np.all(cols["y1"] == 2.0)


class TestCsvOutput:
    def test_header_and_roundtrip(self, tmp_path):
        traj = integrate_rk4(decay_system(), (1.0, -0.25), 0.0, 0.5, 0.1)
        path = os.path.join(tmp_path, "traj.csv")
        write_trajectory_csv(traj, path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "t,x1,y1"
        assert len(lines) == traj.steps + 2
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        # 17 significant digits reproduce the doubles exactly
        assert np.array_equal(data[:, 1:], traj.states)
        assert np.array_equal(data[:, 0], traj.times)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = os.path.join(tmp_path, "out.txt")
        atomic_write_text(path, "payload")
        assert os.listdir(tmp_path) == ["out.txt"]
        with open(path) as handle:
            assert handle.read() == "payload"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_atomic_write_gives_the_mode_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(os.path.join(tmp_path, "plain.txt"), "w") as handle:
                handle.write("payload")
            atomic_write_text(os.path.join(tmp_path, "atomic.txt"), "payload")
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE(os.stat(os.path.join(tmp_path, name)).st_mode)
                 for name in ("plain.txt", "atomic.txt")}
        assert modes["atomic.txt"] == modes["plain.txt"] == 0o666 & ~umask

    def test_atomic_write_keeps_an_existing_target_mode(self, tmp_path):
        previous = os.umask(0o022)
        try:
            for name in ("plain.txt", "atomic.txt"):
                path = os.path.join(tmp_path, name)
                atomic_write_text(path, "first")
                os.chmod(path, 0o600)
            with open(os.path.join(tmp_path, "plain.txt"), "w") as handle:
                handle.write("second")
            atomic_write_text(os.path.join(tmp_path, "atomic.txt"), "second")
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE(os.stat(os.path.join(tmp_path, name)).st_mode)
                 for name in ("plain.txt", "atomic.txt")}
        assert modes["atomic.txt"] == modes["plain.txt"] == 0o600
        with open(os.path.join(tmp_path, "atomic.txt")) as handle:
            assert handle.read() == "second"

    def test_atomic_write_goes_through_a_symlink(self, tmp_path):
        # open(path, "w") writes the link's target and keeps the link
        os.mkdir(os.path.join(tmp_path, "reports"))
        for name in ("plain", "atomic"):
            target = os.path.join(tmp_path, "reports", f"{name}.json")
            with open(target, "w") as handle:
                handle.write("first")
            os.symlink(os.path.join("reports", f"{name}.json"),
                       os.path.join(tmp_path, f"{name}-link.json"))
        with open(os.path.join(tmp_path, "plain-link.json"), "w") as handle:
            handle.write("second")
        atomic_write_text(os.path.join(tmp_path, "atomic-link.json"), "second")
        for name in ("plain", "atomic"):
            assert os.path.islink(os.path.join(tmp_path, f"{name}-link.json"))
            with open(os.path.join(tmp_path, "reports", f"{name}.json")) as handle:
                assert handle.read() == "second"
        assert sorted(os.listdir(os.path.join(tmp_path, "reports"))) == ["atomic.json",
                                                                         "plain.json"]

    def test_rows_are_the_per_value_format(self, tmp_path):
        # more rows than one block of conversion, holding extreme doubles
        special = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1.0 / 3.0, 0.0]
        rng = random.Random(11)
        states = [[rng.choice(special) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
                   for _ in range(4)] for _ in range(2500)]
        states[0] = special[:4]
        traj = Trajectory(-0.0, 5e-324, np.array(states), ("x1", "x2", "y1", "y2"))
        path = os.path.join(tmp_path, "traj.csv")
        write_trajectory_csv(traj, path)
        times = traj.times
        expected = ["t,x1,x2,y1,y2"] + [",".join("%.17g" % v for v in [times[i], *row])
                                        for i, row in enumerate(traj.states)]
        with open(path) as handle:
            assert handle.read() == "\n".join(expected) + "\n"

    def test_n2_header_order(self, tmp_path):
        H = HamiltonianSystem.from_source("x1*y1 + x2*y2", CHART2)
        traj = integrate_symplectic_euler(H, (1.0, 1.0, 1.0, 1.0), 0.0, 0.1, 0.05)
        path = os.path.join(tmp_path, "traj2.csv")
        write_trajectory_csv(traj, path)
        with open(path) as handle:
            assert handle.readline().strip() == "t,x1,x2,y1,y2"


class TestHamiltonianDriftInvariant:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rk4_preserves_h_on_bounded_flows(self, seed):
        # polynomial flows can escape in finite time; bounded runs must
        # conserve H tightly under RK4
        rng = random.Random(seed)
        chart = rng.choice([CHART1, CHART2])
        H = HamiltonianSystem(chart, helpers.random_polynomial(
            rng, chart, max_degree=4, terms=4, coeff_box=0.5))
        state0 = tuple(rng.uniform(-1.0, 1.0) for _ in range(chart.dim))
        try:
            traj = integrate_rk4(hamilton_odes(H), state0, 0.0, 5.0, 1e-3)
        except NonFiniteStateError:
            return
        if np.max(np.abs(traj.states)) > 8.0:
            return
        rep = conservation_report(traj, H.H)
        assert rep.max_relative_drift < 1e-7
