"""The package's float elimination against numpy.linalg.solve, and the numeric semispray on it.

linalg.elimination_function(dim) is generated partial-pivot elimination
on floats.  For 2n > 4 the semispray solves Hess(L) (X, Y) = (L_x, -L_y)
with it at each point, and the symplectic Euler step solves its Newton
system with it at every n (tests/test_newton_solve.py).  It keeps
LAPACK's pivot choice but not its operation order, so it is checked
against numpy.linalg.solve to a tolerance, and against its own loop
form, helpers.reference_elimination, to the bit.  The systems are
diagonally dominant: |a_ii| >= dim exceeds the sum of the rest of its
row (at most dim - 1) by 1 or more, so cond(a) <= 2*dim + 1 in the max
norm.  Either solve is then within about dim * cond * 2**-52, below
4e-14 for dim <= 8, of the exact solution relative to max |x|; the
tolerance is 1e-12.  Failures must read as they did when the
semispray's solve was numpy's: a non-finite Hessian or right-hand-side
entry raises the compiled system's EvaluationError, and an exactly
singular Hessian reached by a step names its rank, step, t and state.
"""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler import integrate, lagrange
from parakahler.expr import Compiled, EvaluationError, parse, simplify
from parakahler.geometry import Chart
from parakahler.integrate import NonFiniteStateError, ODESystem, integrate_rk4
from parakahler.lagrange import (
    DegenerateLagrangianError,
    LagrangianSystem,
    NumericSemispray,
    euler_lagrange_system,
)
from parakahler.linalg import elimination_function

import helpers
from test_fused_steps import NUMERIC, reference_rk4_step, reference_run

TOL = 1e-12
# coupled through every family, so no Hessian row is a multiple of a unit row
DENSE_N3 = ("x1*y1 + 2*x2*y2 + 1.5*x3*y3 + 0.3*x1*y2*y3 + 0.2*x2^2*y1 + 0.1*x3*y1^2"
            " + 0.4*y2*y3^2")


def solve(a, b):
    return elimination_function(len(b))(*[e for row in a for e in row], *b)


def dominant_systems(entries):
    """Diagonally dominant systems of dim 1..8, rows permuted so pivoting swaps them back."""
    return st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
        st.permutations(range(n))))


def assemble(system):
    entries, b, signs, order = system
    n = len(b)
    a = [[entries[i][j] + (signs[i] * (n + 1) if i == j else 0.0) for j in range(n)]
         for i in range(n)]
    return [a[i] for i in order], [b[i] for i in order]


class TestElimination:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(dominant_systems(st.floats(-1.0, 1.0)))
    def test_dominant_systems_match_numpy(self, system):
        a, b = assemble(system)
        expected = np.linalg.solve(np.array(a), np.array(b))
        assert np.max(np.abs(solve(a, b) - expected)) <= TOL * np.max(np.abs(expected))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(dominant_systems(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))))
    def test_sparse_systems_match_numpy(self, system):
        # exact zeros below the pivots make zero multipliers, whose updates are skipped
        a, b = assemble(system)
        expected = np.linalg.solve(np.array(a), np.array(b))
        assert np.max(np.abs(solve(a, b) - expected)) <= TOL * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_multipliers_skip_their_updates(self, n):
        # a permuted positive diagonal: the pivots swap the rows back and every
        # multiplier is +0.0, so x_i = b_i / d_i exactly.  b_0 < 0 and b_1 = -0.0:
        # an update of row 1 would give -0.0 - 0.0 * b_0 = +0.0, so x_1 = -0.0
        # shows it was skipped; b_i >= 0 beyond keeps the back substitution's
        # -0.0 - 0.0 * x_j at -0.0
        rng = random.Random(n)
        for _ in range(50):
            d = [rng.uniform(0.5, 2.0) for _ in range(n)]
            b = [-rng.uniform(0.5, 1.0), -0.0][:n] + [rng.uniform(0.0, 1.0) for _ in range(n - 2)]
            order = list(range(n))
            rng.shuffle(order)
            a = [[d[i] if i == j else 0.0 for j in range(n)] for i in order]
            x = solve(a, [b[i] for i in order])
            assert [v.hex() for v in x] == [(b[i] / d[i]).hex() for i in range(n)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))))
    def test_bits_are_the_loop_forms(self, system):
        # small integers make ties for the pivot common, and only the first
        # largest row gives the loop form's bits
        a, b = system
        try:
            expected = helpers.reference_elimination(a, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                solve(a, b)
            return
        assert [v.hex() for v in solve(a, b)] == [v.hex() for v in expected]

    @pytest.mark.parametrize("a", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
        [[1.0 if i == j and i != 2 else 0.0 for j in range(5)] for i in range(5)],
        [[1.0, 2.0, 0.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]],
        [[float(i + j) for j in range(6)] for i in range(6)],
        [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 6, *([[0.0] * 5 + [1.0]] * 4)],
    ], ids=["zero-1", "rank-1-2", "rank-2-3", "zero-column-5", "equal-rows-scaled-5", "rank-2-6",
            "zero-row-6"])
    def test_exact_zero_pivot_is_singular(self, a):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(a), np.ones(len(a)))
        with pytest.raises(ZeroDivisionError):
            solve(a, [1.0] * len(a))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_non_finite_entry_is_never_hidden(self, n):
        # every position of a and b, dense and sparse, pivot or not: the solve
        # raises or returns a non-finite component, so a fast run is re-run checked
        rng = random.Random(n)
        kernel = elimination_function(n)
        for sparse in (False, True):
            a = [[(0.0 if sparse and rng.random() < 0.6 else rng.uniform(-1.0, 1.0))
                  + (rng.choice([-1.0, 1.0]) * (n + 1) if i == j else 0.0) for j in range(n)]
                 for i in range(n)]
            rng.shuffle(a)
            values = [e for row in a for e in row] + [rng.uniform(-1.0, 1.0) for _ in range(n)]
            for position in range(len(values)):
                for bad in (math.inf, -math.inf, math.nan):
                    injected = values[:position] + [bad] + values[position + 1:]
                    try:
                        x = kernel(*injected)
                    except ZeroDivisionError:
                        continue
                    assert not all(map(math.isfinite, x)), (position, bad)


# ---------------------------------------------------------------------------
# the numeric semispray on the elimination
# ---------------------------------------------------------------------------

def numpy_semispray(source, n):
    """The per-point solve the package made with numpy.linalg.solve."""
    L = LagrangianSystem.from_source(source, Chart(n))
    dim = 2 * n
    rhs = [g if a < n else simplify(-g) for a, g in enumerate(L.gradient)]
    system = Compiled([*(e for row in L.hessian for e in row), *rhs], L.chart.names())

    def f(state):
        values = system(state)
        return np.linalg.solve(np.array(values[:dim * dim]).reshape(dim, dim),
                               np.array(values[dim * dim:]))

    return f


@pytest.mark.parametrize("source,state0", [
    (NUMERIC, [0.1, 0.2, -0.1, 0.05, 0.1, 0.2]),
    (DENSE_N3, [0.3, -0.2, 0.1, 0.5, 0.4, -0.3]),
], ids=["numeric", "dense"])
def test_rk4_matches_numpy_solve_reference(source, state0):
    # 50 steps of h = 0.01: a step is contractive to within e^{0.01}, so the
    # solves' rounding gaps of order 1e-16 stay far below 1e-13 * max |state|
    steps, h = 50, 0.01
    ode = euler_lagrange_system(LagrangianSystem.from_source(source, Chart(3))).ode
    assert isinstance(ode.vector_function, NumericSemispray)
    states = integrate_rk4(ode, state0, 0.0, steps * h, h).states
    expected = reference_run(reference_rk4_step(numpy_semispray(source, 3), h), state0, steps)
    assert np.max(np.abs(states - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_no_numpy_call_per_evaluation(monkeypatch):
    ode = euler_lagrange_system(LagrangianSystem.from_source(DENSE_N3, Chart(3))).ode
    state0 = [0.3, -0.2, 0.1, 0.5, 0.4, -0.3]
    expected = integrate_rk4(ode, state0, 0.0, 0.5, 0.01).states

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy called per semispray evaluation")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np, "array", forbidden)
    assert np.array_equal(integrate_rk4(ode, state0, 0.0, 0.5, 0.01).states, expected)


def injected_semispray(n, position, bad):
    """A NumericSemispray of dim = 2n whose entry at position reads bad where x1 = x2 = 10.

    The other entries are the constants of a diagonally dominant system.
    """
    chart = Chart(n)
    dim = chart.dim
    rng = random.Random(position)
    sources = [repr(rng.uniform(-1.0, 1.0) + (dim + 1.0 if i == j else 0.0))
               for i in range(dim) for j in range(dim)]
    sources += [repr(rng.uniform(-1.0, 1.0)) for _ in range(dim)]
    sources[position] = {"inf": "1e308*x1", "-inf": "-1e308*x1",
                         "nan": "1e308*x1 - 1e308*x2"}[bad]
    return NumericSemispray(chart, [parse(s, chart) for s in sources])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_non_finite_entry_raises_the_systems_error(n, bad):
    # the failure the numpy solve reported, since it evaluated system(state) first,
    # and it names the entry: d2L/dx1dy1, or dL/dx1 and -dL/dy1 on the right
    state = [10.0, 10.0] + [0.5] * (2 * n - 2)
    chart = Chart(n)
    names = chart.names()
    labels = ([f"d2L/d{p}d{q}" for p in names for q in names]
              + [f"dL/dx{i}" for i in range(1, n + 1)] + [f"-dL/dy{i}" for i in range(1, n + 1)])
    where = ", ".join(f"{name} = {v:.9g}" for name, v in zip(names, state))
    for position in range((2 * n) ** 2 + 2 * n):
        semispray = injected_semispray(n, position, bad)
        with pytest.raises(EvaluationError) as parent:
            semispray.system(state)
        assert parent.value.index == position
        assert str(parent.value).startswith(f"{labels[position]}: non-finite value ")
        with pytest.raises(EvaluationError) as checked:
            semispray(state)
        assert (str(checked.value), checked.value.index) == (str(parent.value), position)
        with pytest.raises(NonFiniteStateError) as info:
            integrate_rk4(ODESystem(chart, rhs_callable=semispray), state, 0.0, 0.02, 0.01)
        assert str(info.value) == \
            f"evaluation failed in step 1, from t = 0 at {where}: {parent.value}"
        assert info.value.__cause__.index == position


def test_hessian_compiled_once(monkeypatch):
    # the rank probes read the Hessian from the numeric system itself
    built = []

    class Counting(Compiled):
        def __init__(self, exprs, *args, **kwargs):
            exprs = tuple(exprs)
            built.append(len(exprs))
            super().__init__(exprs, *args, **kwargs)

    monkeypatch.setattr(lagrange, "Compiled", Counting)
    euler_lagrange_system(LagrangianSystem.from_source(DENSE_N3, Chart(3)))
    assert built == [6 * 6 + 6]


def test_rank_probes_need_only_the_hessian():
    # the gradient ln(x1) fails at every probe with x1 < 0, the Hessian 1/x1 does not
    L = LagrangianSystem.from_source("x1*ln(x1) + x1*y1 + x2*y2 + x3*y3", Chart(3))
    ode = euler_lagrange_system(L).ode
    states = integrate_rk4(ode, [0.5, 0.1, 0.2, 0.3, 0.4, 0.5], 0.0, 0.1, 0.01).states
    assert np.all(np.isfinite(states))


def test_singular_hessian_names_step_t_and_state():
    # L_x1 = x1*y1 and L_y1 = 0.5*x1^2, so the (x1, y1) block [[y1, x1], [x1, 0]]
    # is singular exactly on x1 = 0, where the flow starts; probes find rank 6
    L = LagrangianSystem.from_source("0.5*x1^2*y1 + x2*y2 + x3*y3", Chart(3))
    ode = euler_lagrange_system(L).ode
    with pytest.raises(DegenerateLagrangianError) as info:
        integrate_rk4(ode, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 0.0, 1.0, 0.01)
    error = info.value
    assert (error.rank, error.size, error.step) == (5, 6, 1)
    assert str(error) == ("degenerate Lagrangian: Hessian rank 5 of 6 reached in step 1, "
                          "from t = 0 at x1 = 0, x2 = 0.1, x3 = 0.2, y1 = 0.3, y2 = 0.4, "
                          "y3 = 0.5")


def test_unchecked_is_the_fast_form():
    ode = euler_lagrange_system(LagrangianSystem.from_source(DENSE_N3, Chart(3))).ode
    semispray = ode.vector_function
    state = [0.3, -0.2, 0.1, 0.5, 0.4, -0.3]
    assert semispray.unchecked(*state) == semispray(state)
    loop, fast, _ = integrate._rk4_step(semispray, 0.01, 6)
    out, expected = array("d"), array("d")
    loop(*fast, 1, out, *state)
    integrate._rk4_function(6)(semispray.unchecked, 0.005, 0.01, 0.01 / 6.0, 1, expected, *state)
    assert out == expected
