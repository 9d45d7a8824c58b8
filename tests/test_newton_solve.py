"""The symplectic Euler step's Newton solve and tolerance floor.

_solve is checked against numpy.linalg.solve, to a tolerance on
well-conditioned systems and to the bit on general ones; _newton_floor
against the rule that leaves momenta below 2048 at the absolute
tolerance.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem
from parakahler.integrate import (
    NEWTON_TOL,
    NewtonConvergenceError,
    _StepFailure,
    _newton_floor,
    _solve,
    integrate_symplectic_euler,
)


class TestNewtonSolve:
    """_solve, the symplectic Euler step's elimination, against numpy.linalg.solve."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
        st.permutations(range(n)))))
    def test_well_conditioned_systems_match_numpy(self, system):
        # |a_ii| >= n exceeds the sum of the row's other entries (at most n - 1)
        # by 1 or more, so cond(a) <= 2n + 1 in the max norm and 1e-12 is far
        # above the rounding of either solve; permuting the rows makes the
        # pivot search swap them back
        entries, b, signs, order = system
        n = len(b)
        a = [[entries[i][j] + (signs[i] * (n + 1) if i == j else 0.0) for j in range(n)]
             for i in range(n)]
        a = [a[i] for i in order]
        b = [b[i] for i in order]
        expected = np.linalg.solve(np.array(a), np.array(b))
        x = _solve([row[:] for row in a], b[:])
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_numpy(self, n):
        # the operation order of numpy.linalg.solve on its bundled OpenBLAS,
        # fused multiply-adds included, on systems with no dominant diagonal
        rng = random.Random(n)
        for _ in range(300):
            a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
            b = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            expected = np.linalg.solve(np.array(a), np.array(b)).tolist()
            assert _solve([row[:] for row in a], b[:]) == expected

    def test_zero_leading_entry_swaps_rows(self):
        assert _solve([[0.0, 2.0], [4.0, 1.0]], [6.0, 9.0]) == [1.5, 3.0]

    @pytest.mark.parametrize("a", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
    ], ids=["zero-1x1", "rank-1-2x2", "rank-2-3x3"])
    def test_exactly_singular_system_fails(self, a):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(a), np.ones(len(a)))
        with pytest.raises(_StepFailure) as err:
            _solve([row[:] for row in a], [1.0] * len(a))
        assert err.value.error is NewtonConvergenceError
        assert str(err.value) == "singular Newton system"


class TestNewtonFloor:
    def test_floor_is_below_the_tolerance_under_2048(self):
        below = math.nextafter(2048.0, 0.0)
        assert _newton_floor([below, -1.0], [0.5, -below]) < NEWTON_TOL
        assert _newton_floor([2048.0], [0.0]) > NEWTON_TOL
        assert _newton_floor([0.0], [-1e5]) == 4.0 * math.ulp(1e5)

    def test_oscillator_at_large_momentum_is_the_linear_map(self):
        # H_x = x1 does not involve y1, so each step is y' = y - h*x, x' = x + h*y';
        # the residual of y' is the rounding of y - h*x, near ulp(1e5) = 1.5e-11
        H = HamiltonianSystem.from_source("0.5*(x1^2 + y1^2)", Chart(1))
        traj = integrate_symplectic_euler(H, (1.0, 1e5), 0.0, 0.5, 0.01)
        x, y = 1.0, 1e5
        for row in traj.states[1:]:
            y = y - 0.01 * x
            x = x + 0.01 * y
            assert row.tolist() == [x, y]
