"""The float-list steps of `integrate` against the numpy-array steps they replaced.

`reference_rk4_step` and `reference_symplectic_euler_step` are the array
forms the package used before its steps ran on lists of floats.  The
list forms keep their operation order, so trajectories must be equal to
the last bit, not merely close.  An RK4 step is one generated function
per dimension, fed by the compiled right-hand side unchecked or by an
rhs_callable.  The symplectic Euler step solves its Newton system with
linalg.elimination_function(n), and the array form solves it with the
same algorithm written as loops, helpers.reference_elimination, so
these equalities hold by construction, whatever BLAS numpy uses.  On a
separable H the step is the explicit map y' = y - h*H_x(x),
x' = x + h*H_y(y'), and must still give the general Newton loop's
trajectory bit for bit, signs of zero included, and fail where and as
the loop fails.  Each scheme's steps run in one generated loop: a run
without failure is one call of it, and a step whose unchecked run fails
runs again alone, checked, before the unchecked loop resumes.
"""

import itertools
import math
import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler import integrate
from parakahler.expr import Compiled
from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem, hamilton_odes
from parakahler.integrate import (
    BACKTRACK,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    NewtonConvergenceError,
    NonFiniteStateError,
    ODESystem,
    canonical_matrix,
    integrate_rk4,
    integrate_symplectic_euler,
    symplecticity_check,
)
from parakahler.lagrange import LagrangianSystem, euler_lagrange_system
from parakahler.linalg import elimination_function

import helpers

BILINEAR = "x1*y1"
# the x1*y1^4 and x1*x2*y1*y2 terms make H_x nonlinear in y, so Newton iterates
QUARTIC = "0.5*(y1^2 + y2^2) + 0.1*x1*y1^4 + 0.25*(x1^2 + x2^2)^2 + 0.1*x1*x2*y1*y2"
COUPLED = "1.3*x1*y1 + 1.4*x2*y2 + 0.05*x1^2*y2 + 0.04*x2*y1"
NUMERIC = "x1*y1 + 2*x2*y2 + 1.5*x3*y3 + 0.1*x1^2*y2 + 0.05*x3^2"
# H_x is nonlinear in y at n=1 and at n=3 (the n=3 one non-separable), so
# Newton iterates; COUPLED's H_x is linear in y, so its one Newton update
# per step is the solve itself and the solve must equal the loop form's to the bit
NONLINEAR_N1 = "x1*y1 + 0.2*x1^2*y1^4"
NONSEPARABLE_N3 = "x1*y1 + x2*y2 + x3*y3 + 0.2*y1*y2*y3 + 0.1*x1*y2^2 + 0.3*x3*y1*y3"


def reference_rk4_step(f, h):
    """One classical fourth-order Runge-Kutta step of size h for xdot = f(x)."""

    def step(state, k):
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def reference_symplectic_euler_step(H, h):
    """One symplectic Euler step of size h, compiled from H's derivatives."""
    n, names = H.chart.n, H.chart.names()
    labels = [f"dH/d{v}" for v in names]
    hx = Compiled(H.gradient[:n], names, labels[:n])
    hy = Compiled(H.gradient[n:], names, labels[n:])
    hxy = Compiled((e for row in H.mixed_hessian for e in row), names,
                   [f"d2H/d{u}d{v}" for u in names[:n] for v in names[n:]])

    def step(state, k):
        work = state.copy()

        def residual(yv):
            work[n:] = yv
            return yv - state[n:] + h * np.array(hx(work))

        ynew = state[n:]
        r = residual(ynew)
        for iteration in range(NEWTON_MAX_ITERS + 1):
            if not np.all(np.isfinite(r)):
                raise NonFiniteStateError(k)
            norm = float(np.max(np.abs(r)))
            if norm <= NEWTON_TOL:
                break
            if iteration == NEWTON_MAX_ITERS:
                raise NewtonConvergenceError(k)
            work[n:] = ynew
            jac = np.eye(n) + h * np.array(hxy(work)).reshape(n, n)
            if not np.all(np.isfinite(jac)):
                raise NonFiniteStateError(k)
            try:
                delta = np.array(helpers.reference_elimination(jac.tolist(), (-r).tolist()))
            except ZeroDivisionError as exc:
                raise NewtonConvergenceError(
                    k, f"singular Newton system at step {k}") from exc
            for scale in BACKTRACK:   # the last, smallest scale is taken regardless
                candidate = ynew + scale * delta
                rc = residual(candidate)
                if float(np.max(np.abs(rc))) < norm:
                    break
            ynew, r = candidate, rc

        work[n:] = ynew
        return np.concatenate([state[:n] + h * np.array(hy(work)), ynew])

    return step


def reference_run(step, state0, steps):
    """The states of steps applications of step(state, k) from state0, as rows."""
    rows = [np.asarray(state0, float)]
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            rows.append(step(rows[-1], k))
    return np.array(rows)


def reference_rk4(system, state0, h, steps):
    f = system.vector_function
    return reference_run(reference_rk4_step(lambda s: np.array(f(s)), h), state0, steps)


def hamiltonian(source, n):
    return HamiltonianSystem.from_source(source, Chart(n))


def lagrangian_ode(source, n):
    return euler_lagrange_system(LagrangianSystem.from_source(source, Chart(n))).ode


RK4_CASES = pytest.mark.parametrize("system,state0,h,steps", [
    (lambda: hamilton_odes(hamiltonian(BILINEAR, 1)), [1.0, -0.5], 0.01, 200),
    (lambda: hamilton_odes(hamiltonian(QUARTIC, 2)), [0.3, -0.2, 0.5, 0.4], 0.01, 200),
    (lambda: lagrangian_ode(COUPLED, 2), [0.1, 0.2, -0.1, 0.05], 0.01, 200),
    (lambda: lagrangian_ode(NUMERIC, 3), [0.1, 0.2, -0.1, 0.05, 0.1, 0.2], 0.01, 50),
], ids=["bilinear-n1", "quartic-n2", "coupled-lagrangian-n2", "numeric-semispray-n3"])


@RK4_CASES
def test_rk4_matches_array_reference(system, state0, h, steps):
    system = system()
    fused = integrate_rk4(system, state0, 0.0, steps * h, h).states
    assert np.array_equal(fused, reference_rk4(system, state0, h, steps))


@RK4_CASES
def test_generated_rk4_step_is_the_step_and_matches_reference(system, state0, h, steps,
                                                              monkeypatch):
    system = system()
    dim = system.chart.dim
    generated = integrate._rk4_function(dim)
    calls = []

    def recording(d):
        calls.append(d)
        return generated

    monkeypatch.setattr(integrate, "_rk4_function", recording)
    fused = integrate_rk4(system, state0, 0.0, steps * h, h).states
    assert calls == [dim]   # the rhs_callable of the n=3 semispray included
    step = reference_rk4_step(lambda s: np.array(system.vector_function(s)), h)
    loop, fast, _ = integrate._rk4_step(system.vector_function, h, dim)
    for k in range(1, steps + 1):
        out = array("d")
        loop(*fast, 1, out, *fused[k - 1].tolist())
        assert np.array_equal(out, step(fused[k - 1], k))


def reference_symplecticity(H, state0, h, steps):
    """symplecticity_check(H, "rk4", ...) with the array-form step."""
    odes = hamilton_odes(H)

    def flow(s):
        return reference_rk4(odes, s, h, steps)[-1]

    dim = H.chart.dim
    base = np.asarray(state0, float)
    M = np.empty((dim, dim))
    for j in range(dim):
        bump = np.zeros(dim)
        bump[j] = integrate.FD_STEP
        M[:, j] = (flow(base + bump) - flow(base - bump)) / (2.0 * integrate.FD_STEP)
    omega = canonical_matrix(H.chart)
    return float(np.max(np.abs(M.T @ omega @ M - omega)))


@pytest.mark.parametrize("source,n,state0", [
    (BILINEAR, 1, [1.0, 1.0]),
    (QUARTIC, 2, [0.3, -0.2, 0.5, 0.4]),
    (NONSEPARABLE_N3, 3, [0.3, -0.2, 0.1, 0.5, 0.4, -0.3]),
], ids=["bilinear-n1", "quartic-n2", "nonseparable-n3"])
def test_rk4_symplecticity_check_matches_array_reference(source, n, state0):
    H = hamiltonian(source, n)
    assert symplecticity_check(H, "rk4", state0, 0.05, 20) == \
        reference_symplecticity(H, state0, 0.05, 20)


@pytest.mark.parametrize("source,n,state0,h,steps,iterations", [
    (BILINEAR, 1, [1.0, -0.5], 0.01, 200, 1),
    (NONLINEAR_N1, 1, [0.5, 0.4], 0.05, 100, 2),
    (QUARTIC, 2, [0.3, -0.2, 0.5, 0.4], 0.05, 100, 2),
    (COUPLED, 2, [0.48, 0.84, -0.94, -0.07], 0.05, 40, 1),
    (NONSEPARABLE_N3, 3, [0.3, -0.2, 0.1, 0.5, 0.4, -0.3], 0.05, 60, 2),
], ids=["bilinear-n1", "nonlinear-n1", "quartic-n2", "coupled-linear-n2",
        "nonseparable-n3"])
def test_symplectic_euler_matches_array_reference(source, n, state0, h, steps, iterations):
    H = hamiltonian(source, n)
    hxy = H.compiled_mixed_hessian
    jacobians = []

    def counting(values):
        jacobians.append(values)
        return hxy(values)

    counting.unchecked = lambda *values: counting(values)   # the step's fast call
    vars(H)["compiled_mixed_hessian"] = counting   # one Jacobian per Newton iteration
    fused = integrate_symplectic_euler(H, state0, 0.0, steps * h, h).states
    assert len(jacobians) >= iterations * steps
    expected = reference_run(reference_symplectic_euler_step(H, h), state0, steps)
    assert np.array_equal(fused, expected)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_steps_match_array_reference_from_any_state(state0):
    H = hamiltonian(QUARTIC, 2)
    h, steps = 0.02, 25
    rk4 = integrate_rk4(hamilton_odes(H), state0, 0.0, steps * h, h).states
    assert np.array_equal(rk4, reference_rk4(hamilton_odes(H), state0, h, steps))
    se = integrate_symplectic_euler(H, state0, 0.0, steps * h, h).states
    expected = reference_run(reference_symplectic_euler_step(H, h), state0, steps)
    assert np.array_equal(se, expected)


def test_symplectic_euler_step_calls_no_numpy_solve(monkeypatch):
    H = hamiltonian(QUARTIC, 2)
    expected = reference_run(reference_symplectic_euler_step(H, 0.05), [0.3, -0.2, 0.5, 0.4], 20)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy called inside a symplectic Euler step")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    se = integrate_symplectic_euler(H, [0.3, -0.2, 0.5, 0.4], 0.0, 1.0, 0.05).states
    assert np.array_equal(se, expected)


# ---------------------------------------------------------------------------
# separable H = T(y) + V(x): H_x reads no momentum, so the step is explicit,
# y' = y - h*H_x(x) (y itself within the Newton tolerance), x' = x + h*H_y(y').
# The Newton loop takes the same y': on the identity Jacobian its update is
# h*H_x, and the first candidate's residual, at most 1.5 ulp, meets its stop rule
# ---------------------------------------------------------------------------

# the shape of the benchmark's quartic, and two more separable systems
BENCH_QUARTIC = ("0.5*(y1^2 + y2^2) + 0.5*(1.43*x1^2 + 0.71*x2^2) + 0.11*(x1^4 + x2^4)"
                 " + 0.05*x1^2*x2^2")
OSCILLATOR = "0.5*(x1^2 + y1^2)"
SEPARABLE_N3 = "0.5*(y1^2 + y2^2 + y3^2) + 0.1*y1^4 + 0.5*(x1^2 + x2^2 + x3^2) + 0.2*x1*x2*x3"


def general_symplectic_euler(source, n, state0, h, steps):
    """The trajectory of the Newton loop that evaluates H_x per iterate and H_xy, on any H."""
    H = hamiltonian(source, n)
    vars(H)["separable"] = False
    return integrate_symplectic_euler(H, state0, 0.0, steps * h, h).states


@pytest.mark.parametrize("source,n,state0,h,steps", [
    (BENCH_QUARTIC, 2, [0.31, -0.22, 0.4, 0.13], 5e-4, 400),
    (BENCH_QUARTIC, 2, [0.3, -0.2, 0.5, 0.4], 0.05, 100),
    (OSCILLATOR, 1, [1.0, -0.5], 0.01, 200),
    (SEPARABLE_N3, 3, [0.3, -0.2, 0.1, 0.5, 0.4, -0.3], 0.05, 60),
    (BENCH_QUARTIC, 2, [0.3, -0.2, -0.0, -0.0], 0.05, 40),
    (OSCILLATOR, 1, [0.0, -0.0], 0.01, 10),
    # |h*H_x| <= 1e-12 and y = 0: each step keeps y, signs of zero included
    (BENCH_QUARTIC, 2, [1e-11, -1e-11, 0.0, -0.0], 0.05, 10),
    # momenta of 2048 and more, where the floor of 4 ulp decides
    (OSCILLATOR, 1, [1.0, 3e4], 0.01, 50),
    (BENCH_QUARTIC, 2, [0.5, -0.5, 2048.0, -5000.0], 1e-3, 50),
    (SEPARABLE_N3, 3, [0.1, 0.2, -0.3, 2048.0, -1e5, 4096.5], 1e-4, 20),
], ids=["bench-quartic-n2", "bench-quartic-n2-h0.05", "oscillator-n1", "separable-n3",
        "negative-zero-momenta", "oscillator-at-rest", "equilibrium-keeps-y",
        "oscillator-large-momentum", "quartic-large-momentum", "separable-n3-large-momentum"])
def test_separable_symplectic_euler_matches_references(source, n, state0, h, steps):
    H = hamiltonian(source, n)
    assert H.separable
    fused = integrate_symplectic_euler(H, state0, 0.0, steps * h, h).states
    # bit for bit, signs of zero included, the general Newton loop's trajectory
    assert fused.tobytes() == general_symplectic_euler(source, n, state0, h, steps).tobytes()
    if max(map(abs, state0[n:])) < 2048.0:   # the array form has no floor
        expected = reference_run(reference_symplectic_euler_step(H, h), state0, steps)
        assert np.array_equal(fused, expected)


def test_equilibrium_step_keeps_the_state():
    state0 = [1e-11, -1e-11, 0.0, -0.0]
    H = hamiltonian(BENCH_QUARTIC, 2)
    states = integrate_symplectic_euler(H, state0, 0.0, 0.5, 0.05).states
    assert all(row.tobytes() == np.array(state0).tobytes() for row in states)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_separable_steps_match_references_from_any_state(state0):
    H = hamiltonian(BENCH_QUARTIC, 2)
    h, steps = 0.02, 25
    se = integrate_symplectic_euler(H, state0, 0.0, steps * h, h).states
    assert se.tobytes() == general_symplectic_euler(BENCH_QUARTIC, 2, state0, h, steps).tobytes()
    expected = reference_run(reference_symplectic_euler_step(H, h), state0, steps)
    assert np.array_equal(se, expected)


class Counted:
    """A compiled block whose calls, checked or unchecked, are counted by name."""

    def __init__(self, block, name, calls):
        self.block, self.name, self.calls = block, name, calls

    def __call__(self, values):
        self.calls[self.name] += 1
        return self.block(values)

    def unchecked(self, *values):
        self.calls[self.name] += 1
        return self.block.unchecked(*values)


@pytest.mark.parametrize("source,n,state0", [
    (BENCH_QUARTIC, 2, [0.31, -0.22, 0.4, 0.13]),
    (OSCILLATOR, 1, [1.0, -0.5]),
], ids=["bench-quartic-n2", "oscillator-n1"])
def test_separable_step_evaluates_the_force_once(source, n, state0):
    H = hamiltonian(source, n)
    expected = integrate_symplectic_euler(H, state0, 0.0, 1.0, 0.01).states
    calls = dict.fromkeys(["H_x", "H_y", "H_xy"], 0)
    vars(H)["compiled_blocks"] = tuple(
        Counted(block, name, calls) for block, name in zip(H.compiled_blocks, calls))
    vars(H)["compiled_mixed_hessian"] = Counted(H.compiled_mixed_hessian, "H_xy", calls)
    assert np.array_equal(integrate_symplectic_euler(H, state0, 0.0, 1.0, 0.01).states, expected)
    assert calls == {"H_x": 100, "H_y": 100, "H_xy": 0}


# the explicit separable step against the Newton loop, one step at a time, at
# the edges of its arithmetic: signs of zero, subnormals, |h*H_x| within one
# ulp of either bound of the stop rule, momenta of 2048 and more, y - h*H_x
# past the largest double by a few ulp (where the Newton loop gives up after
# 25 iterations, or stops on a candidate just below the largest double) or by
# far, and non-finite momenta or forces
MAX = sys.float_info.max
MOMENTA = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-12, 0.3, -1.7,
           2048.0, -2048.0, 4096.5, 3e4, -1e5, 1e15, 1e300, -1.7e308, MAX, -MAX,
           math.inf, -math.inf, math.nan]


def edge_forces(y, m, rng):
    """Values of h*H_x for the component with momentum y when max |y_i| is m."""
    floor = 4.0 * math.ulp(m)
    forces = [0.0, -0.0, 5e-324, -5e-324, 1e-12, math.nextafter(1e-12, 1.0),
              math.nextafter(1e-12, 0.0), floor, math.nextafter(floor, math.inf),
              math.nextafter(floor, 0.0), rng.uniform(-2.0, 2.0), 1e5, MAX, -MAX,
              math.inf, math.nan]
    if math.isfinite(y) and abs(y) > 1e300:   # y - h*H_x a little or far past MAX
        for k in (0.25, 0.5, 1.0, 3.0, 5.0, 1e6, 1e9, 1e12):
            forces.append(-math.copysign((MAX - abs(y)) + k * math.ulp(MAX), y))
    return forces


def one_step(n, separable, x, y, hx_values, h):
    """The bytes one step appends, or the class and message of its failure."""
    def hx(*state):
        return list(hx_values)

    def hy(*state):
        return [0.5 * v + 0.25 * state[0] for v in state[n:]]

    def hxy(*state):
        return [0.0] * (n * n)

    out = array("d")
    try:
        integrate._symplectic_euler_function(n, separable)(hx, hy, hxy, h, 1, out, *x, *y)
    except integrate._StepFailure as exc:
        return exc.error, str(exc)
    return out.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_explicit_step_is_the_newton_loop_at_the_edges(n):
    rng = random.Random(n)
    outcomes = set()
    for _ in range({1: 3000, 2: 4000, 3: 4000}[n]):
        y = [rng.choice(MOMENTA) for _ in range(n)]
        m = max(map(abs, y))
        forces = [rng.choice(edge_forces(v, m, rng)) for v in y]
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        h = 1.0 if rng.random() < 0.8 else 0.01
        hx_values = [f / h for f in forces]
        explicit = one_step(n, True, x, y, hx_values, h)
        assert explicit == one_step(n, False, x, y, hx_values, h), (x, y, forces, h)
        outcomes.add(explicit[0] if isinstance(explicit, tuple) else "appended")
    # the draws reach each outcome of the Newton loop on the identity: it
    # never stalls there, and a run that gives up on an overflow says so
    assert outcomes == {"appended", NonFiniteStateError}


@pytest.mark.parametrize("y1,excess,outcome,reason", [
    (1e308, 1.0, NonFiniteStateError, "Newton update overflows in step 1"),
    (MAX - 10 * math.ulp(MAX), 1.0, None, None),
    (1e308, 1e12, NonFiniteStateError, "non-finite Newton residual in step 1"),
], ids=["newton-gives-up", "newton-stops-below-max", "non-finite-residual"])
def test_overflowing_momentum_steps_as_the_newton_loop(y1, excess, outcome, reason):
    # y1 - h*H_x passes the largest double by `excess` ulp of it, so the
    # explicit step hands the run to the Newton loop
    force = (MAX - y1) + excess * math.ulp(MAX)
    source = f"0.5*y1^2 - {force!r}*x1"
    H = hamiltonian(source, 1)
    assert H.separable

    def run(states):
        try:
            return states().tobytes()
        except (NonFiniteStateError, NewtonConvergenceError) as exc:
            return type(exc), str(exc)

    explicit = run(lambda: integrate_symplectic_euler(H, [0.5, y1], 0.0, 1.0, 1.0).states)
    assert explicit == run(lambda: general_symplectic_euler(source, 1, [0.5, y1], 1.0, 1))
    if outcome is None:
        assert isinstance(explicit, bytes)
    else:
        assert explicit[0] == outcome and explicit[1].startswith(reason)


SIGNED = [0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25, 1e300, -1e300]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_solve_on_the_identity_is_the_separable_update(n):
    # the Newton loop's update on a separable H is the elimination's back
    # substitution on the identity: d_n = r_n, d_k = r_k - 0.0*d_(k+1) - .. - 0.0*d_n,
    # which is r itself, as the explicit step takes it, since r is never -0.0
    if n <= 4:
        vectors = itertools.product(SIGNED, repeat=n)
    else:
        rng = random.Random(5)
        vectors = [[rng.choice(SIGNED) for _ in range(n)] for _ in range(2000)]
    identity = [1.0 if i == j else 0.0 for i in range(n) for j in range(n)]
    for r in vectors:
        update = list(r)
        for k in range(n - 2, -1, -1):
            for j in range(k + 1, n):
                update[k] = update[k] - 0.0 * update[j]
        assert [v.hex() for v in elimination_function(n)(*identity, *r)] == \
            [v.hex() for v in update]


# ---------------------------------------------------------------------------
# one generated call runs a whole integration; only a failed step re-runs checked
# ---------------------------------------------------------------------------

def record_loops(monkeypatch, name):
    """Make integrate.<name> hand out its loops wrapped to record (first call, steps) per call."""
    factory = getattr(integrate, name)
    calls = []

    def recording_factory(*key):
        loop = factory(*key)

        def recording(*args):
            calls.append((args[0], args[4]))
            return loop(*args)

        return recording

    monkeypatch.setattr(integrate, name, recording_factory)
    return calls


class FailsOnce:
    """A compiled flow whose unchecked form fails at its call number `at` only.

    It raises OverflowError or returns inf there; the checked form never fails.
    """

    def __init__(self, flow, at, how):
        self.flow, self.at, self.how, self.calls = flow, at, how, 0

    def __call__(self, values):
        return self.flow(values)

    def unchecked(self, *values):
        self.calls += 1
        if self.calls == self.at:
            if self.how == "raises":
                raise OverflowError("unchecked flow overflowed")
            return [math.inf] * len(self.flow.exprs)
        return self.flow.unchecked(*values)


@pytest.mark.parametrize("how", ["raises", "returns-inf"])
def test_rk4_reruns_only_the_failed_step_checked(how, monkeypatch):
    odes = hamilton_odes(hamiltonian(QUARTIC, 2))
    state0, h, steps = [0.3, -0.2, 0.5, 0.4], 0.01, 200
    # four calls per step: the second stage of step 100 fails
    flow = FailsOnce(odes.vector_function, 4 * 99 + 2, how)
    calls = record_loops(monkeypatch, "_rk4_function")
    fused = integrate_rk4(ODESystem(odes.chart, rhs_callable=flow), state0, 0.0, steps * h, h)
    assert np.array_equal(fused.states, reference_rk4(odes, state0, h, steps))
    assert [("fast" if f == flow.unchecked else "checked", count) for f, count in calls] == \
        [("fast", 200), ("checked", 1), ("fast", 100)]


@pytest.mark.parametrize("how", ["raises", "returns-inf"])
def test_symplectic_euler_reruns_only_the_failed_step_checked(how, monkeypatch):
    H = hamiltonian(BENCH_QUARTIC, 2)
    state0, h, steps = [0.31, -0.22, 0.4, 0.13], 0.01, 200
    hx, hy = H.compiled_blocks
    hx = FailsOnce(hx, 100, how)   # one H_x per separable step: step 100 fails
    vars(H)["compiled_blocks"] = (hx, hy)
    calls = record_loops(monkeypatch, "_symplectic_euler_function")
    fused = integrate_symplectic_euler(H, state0, 0.0, steps * h, h)
    expected = reference_run(reference_symplectic_euler_step(H, h), state0, steps)
    assert np.array_equal(fused.states, expected)
    assert [("fast" if f == hx.unchecked else "checked", count) for f, count in calls] == \
        [("fast", 200), ("checked", 1), ("fast", 100)]


@pytest.mark.parametrize("scheme,source", [
    ("rk4", QUARTIC),
    ("symplectic-euler", BENCH_QUARTIC),
    ("symplectic-euler", QUARTIC),
], ids=["rk4", "separable-se", "newton-se"])
def test_a_run_without_failure_is_one_generated_call(scheme, source, monkeypatch):
    H = hamiltonian(source, 2)
    state0, h, steps = [0.3, -0.2, 0.5, 0.4], 0.001, 1000
    if scheme == "rk4":
        calls = record_loops(monkeypatch, "_rk4_function")
        traj = integrate_rk4(hamilton_odes(H), state0, 0.0, steps * h, h)
    else:
        calls = record_loops(monkeypatch, "_symplectic_euler_function")
        traj = integrate_symplectic_euler(H, state0, 0.0, steps * h, h)
    assert traj.steps == steps
    assert [count for _, count in calls] == [steps]
