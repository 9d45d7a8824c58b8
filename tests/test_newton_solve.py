"""The symplectic Euler step's Newton solve and tolerance floor.

The step solves I + h*H_xy with linalg.elimination_function(n), the
generated elimination that tests/test_semispray_solve.py checks at dims
1..8; here it is checked against numpy.linalg.solve to a tolerance on
the Newton Jacobians the step meets, and an exact zero pivot must fail
the step as a singular Newton system.  The tolerance floor of 4 ulp of
the largest momentum must leave momenta below 2048 at the absolute
tolerance, and let Newton stop at rounding level beyond.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem
from parakahler.integrate import (
    NEWTON_TOL,
    NewtonConvergenceError,
    _StepFailure,
    _symplectic_euler_function,
    integrate_symplectic_euler,
)
from parakahler.linalg import elimination_function


def solve(a, b):
    return elimination_function(len(b))(*[e for row in a for e in row], *b)


class TestNewtonSolve:
    """elimination_function on the symplectic Euler step's systems, against numpy.linalg.solve."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.floats(0.0, 0.1))))
    def test_well_conditioned_systems_match_numpy(self, system):
        # Newton Jacobians I + h*H_xy with |H_xy| <= 1 and h <= 0.1: each row's
        # off-diagonal sum is at most 0.3 against a diagonal of 0.9 or more, so
        # cond(a) < 2.5 in the max norm and 1e-12 is far above the rounding of
        # either solve, which may differ in the last bits
        entries, b, h = system
        n = len(b)
        a = [[(1.0 if i == j else 0.0) + h * entries[i][j] for j in range(n)] for i in range(n)]
        expected = np.linalg.solve(np.array(a), np.array(b))
        assert np.max(np.abs(solve(a, b) - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_zero_leading_entry_swaps_rows(self):
        assert solve([[0.0, 2.0], [4.0, 1.0]], [6.0, 9.0]) == [1.5, 3.0]

    @pytest.mark.parametrize("a", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
    ], ids=["zero-1x1", "rank-1-2x2", "rank-2-3x3"])
    def test_exactly_singular_system_fails(self, a):
        # a generated step with h = 1 and H_xy = a - I meets the Jacobian a;
        # H_x = 1 keeps the residual above the tolerance
        n = len(a)
        se = _symplectic_euler_function(n, False)
        hxy = [a[i][j] - (1.0 if i == j else 0.0) for i in range(n) for j in range(n)]
        with pytest.raises(_StepFailure) as err:
            se(lambda *s: [1.0] * n, None, lambda *s: hxy, 1.0, 1, array("d"), *[0.0] * (2 * n))
        assert err.value.error is NewtonConvergenceError
        assert str(err.value) == "singular Newton system"


class TestNewtonFloor:
    def test_floor_is_below_the_tolerance_under_2048(self):
        # the step stops at max |residual| <= max(NEWTON_TOL, 4 ulp(m)), m the
        # largest momentum: below 2048 the floor never decides
        assert 4.0 * math.ulp(math.nextafter(2048.0, 0.0)) < NEWTON_TOL < 4.0 * math.ulp(2048.0)

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

    def test_nonseparable_large_momentum_stops_at_the_floor(self):
        # H_x = (x1 + 0.1*y1, x2 + 0.1*y2 + 0.2*y1) reads the momenta, so every
        # step runs the general Newton loop and its solve; at momenta near 1e5
        # the residual cannot fall below 1e-12, and only the floor stops Newton
        H = HamiltonianSystem.from_source(
            "0.5*(x1^2 + x2^2 + y1^2 + y2^2) + 0.1*(x1*y1 + x2*y2) + 0.2*x2*y1", Chart(2))
        assert not H.separable
        h, steps = 0.01, 50
        states = integrate_symplectic_euler(H, (1.0, -2.0, 1e5, -7e4), 0.0, steps * h, h).states
        hx = H.compiled_blocks[0]
        residuals = []
        for old, new in zip(states[:-1].tolist(), states[1:].tolist()):
            y, v = old[2:], new[2:]
            g = hx(old[:2] + v)
            norm = max(abs((v[i] - y[i]) + h * g[i]) for i in range(2))
            assert norm <= 4.0 * math.ulp(max(map(abs, y + v)))
            residuals.append(norm)
        assert max(residuals) > NEWTON_TOL   # the floor decided at least once

    def test_nonlinear_large_momentum_final_state_bits(self):
        # H_x reads the momenta cubically, so Newton takes more than one
        # iteration per step, and at momenta of 2048 and more the 4 ulp floor,
        # not 1e-12, decides where it stops: a looser floor stops some steps an
        # iterate early and moves these bits (pinned from the 4 ulp loop)
        H = HamiltonianSystem.from_source(
            "0.5*(x1^2 + x2^2 + y1^2 + y2^2) + 3e-8*(x1*y1^3 + x2*y2^3) + 0.2*x2*y1", Chart(2))
        assert not H.separable
        final = integrate_symplectic_euler(H, (1.0, -2.0, 2048.0, 4096.0), 0.0, 0.5, 0.01)
        assert [v.hex() for v in final.final_state().tolist()] == [
            "0x1.1d2b8773f6b8ap+10", "0x1.14ee71017e6b7p+11",
            "0x1.a208546c8bb9ap+10", "0x1.56132ec832a46p+11"]
