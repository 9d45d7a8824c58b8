"""Fixed-step integration of derived flows with structure diagnostics.

Provides the classical fourth-order Runge-Kutta scheme for any autonomous
system on the chart and a symplectic Euler scheme for Hamiltonian systems
(x as positions, y as momenta for the canonical pairing), plus drift and
symplecticity reports.  No adaptive step control: the diagnostics want
uniform grids, so t1 - t0 must be a whole number of steps.

A step works on floats; its arithmetic follows the array form term by
term, so trajectories are bit-identical to it.  Each scheme's step loop
is one function generated per dimension: _rk4_function(dim), and
_symplectic_euler_function(n, separable), whose Newton iterate and
residual are locals.  One call runs a whole integration with the state
in locals, appending each state to one buffer of doubles, and returns
at the first state its one check finds not finite.  Both call the flows
unchecked (Compiled.unchecked, and the unchecked form of an
rhs_callable that has one, as the numeric semispray of a Lagrangian
with 2n > 4 does); when the loop raises or stops short, _run re-runs
only the failed step through the checked calls, so failures read as
before, and resumes the unchecked loop.  The symplectic Euler step
solves its n x n Newton system on floats with
linalg.elimination_function(n), the generated partial-pivot elimination
the numeric semispray also uses, with no numpy call inside a step; its
Newton tolerance has a floor at rounding level for large momenta.  For a
separable H = T(y) + V(x) (HamiltonianSystem.separable) the step is the
explicit map y' = y - h*H_x(x), x' = x + h*H_y(y') (Hairer, Lubich and
Wanner, Geometric Numerical Integration, 2006, section VI.3), with no
Newton loop and no H_xy.  It gives the Newton loop's states bit for bit:
on the identity Jacobian one Newton update always meets the stop rule.
Compiled flows are cached per system (ODESystem.vector_function,
HamiltonianSystem.compiled_blocks for H_x and H_y), so repeated runs on
one system compile nothing.  H_xy (HamiltonianSystem.compiled_mixed_hessian)
is derived and compiled only when the Newton loop can run: once per
non-separable system, and for a separable one only when a step hands an
overflow to the Newton loop.
"""

from __future__ import annotations

import math
import os
import stat
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import Compiled, EvaluationError, Expression, generated_function, to_source
from .geometry import Chart
from .linalg import elimination_function

MAX_STEPS = 10_000_000
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 25
BACKTRACK = tuple(2.0 ** -i for i in range(7))   # damped Newton step scales 1 .. 1/64
SPAN_RTOL = 1e-9     # t1 - t0 may miss a whole number of steps by this much, relative
FD_STEP = 1e-6
_CSV_BLOCK = 1024    # trajectory rows formatted at a time, to bound the floats made at once


class NonFiniteStateError(Exception):
    """The state left floating-point range; carries the failing step index."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"non-finite state at step {step}")
        self.step = step


class NewtonConvergenceError(Exception):
    """The implicit substep failed to converge; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"Newton iteration failed at step {step}")
        self.step = step


@dataclass(frozen=True)
class ODESystem:
    """Autonomous first-order system on the chart coordinates.

    Exactly one of rhs (a tuple of 2n Expressions) or rhs_callable (a map
    from a state, a list of floats, to its derivative, a list of floats)
    must be provided; the callable form exists for systems whose symbolic
    solve is infeasible, as lagrange.NumericSemispray for 2n > 4.  An
    rhs_callable with an unchecked(*state) form, as that one has, is
    run unchecked by RK4 and called only when that fails.
    """

    chart: Chart
    rhs: Optional[tuple] = None
    rhs_callable: Optional[Callable] = None

    def __post_init__(self):
        if (self.rhs is None) == (self.rhs_callable is None):
            raise ValueError("provide exactly one of rhs or rhs_callable")
        if self.rhs is not None and len(self.rhs) != self.chart.dim:
            raise ValueError(f"expected {self.chart.dim} right-hand sides")

    @cached_property
    def vector_function(self) -> Callable:
        """The right-hand side as a map from a list of floats to a list, compiled once."""
        if self.rhs_callable is not None:
            return self.rhs_callable
        names = self.chart.names()
        return Compiled(self.rhs, names, labels=[f"d{name}/dt" for name in names])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on the uniform grid t0, t0+h, ..., t0+steps*h."""

    t0: float
    h: float
    states: np.ndarray
    names: tuple

    def __post_init__(self):
        states = np.asarray(self.states, float)
        if states.ndim != 2 or states.shape[1] != len(self.names):
            raise ValueError("states must be (steps+1) x len(names)")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory contains non-finite entries")
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.states.shape[0])

    def columns(self) -> dict:
        """Per-coordinate arrays keyed by name, for vectorized evaluation."""
        return {name: self.states[:, i] for i, name in enumerate(self.names)}

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def evaluate(self, compiled: Compiled) -> list:
        """Values of compiled expressions on every row, steps + 1 each.

        A row where one is not finite is reported by its step, t and state.
        """
        try:
            values = compiled.columns(self.columns())
        except EvaluationError as exc:
            if exc.row is None:   # a missing coordinate, not a failing row
                raise
            k = exc.row
            raise EvaluationError(
                f"{to_source(compiled.exprs[exc.index])} is not finite at step {k} "
                f"(t = {self.times[k]:.9g}, {_where(self.names, self.states[k])})") from exc
        return [np.broadcast_to(v, self.times.shape) for v in values]


def _where(names, state) -> str:
    return ", ".join(f"{name} = {value:.9g}" for name, value in zip(names, state))


def _step_count(t0: float, t1: float, h: float) -> int:
    """The number of steps of size h from t0 to t1, which must be whole."""
    if not 0.0 < h < math.inf:
        raise ValueError("step size h must be positive and finite")
    if not (t1 > t0):
        raise ValueError("t1 must exceed t0")
    span = (t1 - t0) / h
    if span > MAX_STEPS:
        raise ValueError(f"{span:.3g} steps exceed the limit {MAX_STEPS}")
    steps = round(span)
    if abs(span - steps) > SPAN_RTOL * span:
        raise ValueError(f"t1 - t0 = {t1 - t0:.9g} is not a whole number of steps "
                         f"of h = {h:.9g} ({span:.9g} steps)")
    return steps


class _StepFailure(Exception):
    """Raised inside a step; _run re-raises it as error, naming the step, t and state.

    error(step, message) builds what _run raises: a class such as
    NonFiniteStateError, or a partial of one.
    """

    def __init__(self, error: Callable, reason: str):
        super().__init__(reason)
        self.error = error


def _run(step: tuple, state0: Sequence[float], t0: float, t1: float, h: float,
         names: tuple) -> Trajectory:
    """Run a generated step loop for steps 1..steps from state0.

    step is (loop, fast, checked).  loop(*fast, count, out, *state) runs
    count steps from state on unchecked evaluators, appends each new state
    to out, one flat buffer of doubles, and returns at the first state that
    is not finite, so len(out) tells how far it got; one call runs the
    whole integration unless a step fails.  When the loop raises or stops
    short, only the step it failed runs again, as loop(*checked, 1, out,
    *state) on the calls that check every value: it raises what they raise
    or appends the same state, and a state still not finite is a
    NonFiniteStateError.  Then the unchecked loop resumes.  A failed
    evaluation becomes a NonFiniteStateError, and every failure names the
    step and the t and state it started from.  The buffer is viewed as the
    (steps + 1) x len(names) array at the end.
    """
    steps = _step_count(t0, t1, h)
    dim = len(names)
    state = np.asarray(state0, float)
    if state.shape != (dim,):
        raise ValueError(f"initial state must have length {dim}")
    out = array("d", state.tolist())
    loop, fast, checked = step
    k = 1   # the next step: out holds the states before it
    with np.errstate(all="ignore"):
        while k <= steps:
            try:
                loop(*fast, steps - k + 1, out, *out[-dim:])
            except (ArithmeticError, ValueError, EvaluationError, _StepFailure):
                pass
            k = len(out) // dim
            if k > steps:
                break
            state = out[-dim:]
            try:
                loop(*checked, 1, out, *state)
            except EvaluationError as exc:
                raise NonFiniteStateError(
                    k, f"evaluation failed {_origin(k, t0, h, names, state)}: {exc}") from exc
            except _StepFailure as exc:
                raise exc.error(k, f"{exc} {_origin(k, t0, h, names, state)}") from None
            if len(out) == k * dim:
                raise NonFiniteStateError(
                    k, f"non-finite state {_origin(k, t0, h, names, state)}")
            k += 1
    return Trajectory(t0, h, np.frombuffer(out).reshape(steps + 1, dim), names)


def _origin(k: int, t0: float, h: float, names: tuple, state) -> str:
    return f"in step {k}, from t = {t0 + (k - 1) * h:.9g} at {_where(names, state)}"


def _append_if_finite(state: list) -> list:
    """Source lines, in a step loop, that append the new state to out or return if it is not finite.

    (v0 - v0) + .. + (vk - vk) is 0.0 exactly when every v is finite, and nan otherwise.
    """
    finite = " + ".join(f"({v} - {v})" for v in state)
    return [f"        if not ({finite} == 0.0):",
            "            return",
            f"        extend(({', '.join(state)},))"]


@lru_cache(maxsize=16)   # one per dimension
def _rk4_function(dim: int) -> Callable:
    """rk4(f, half, h, sixth, steps, out, s0, ..., s<dim-1>): RK4 steps, generated for dim.

    f maps the coordinates, as arguments, to the list of their
    derivatives.  rk4 runs steps steps from s with the state in locals,
    appends each new state to out, an array of doubles, and returns at the
    first state that is not finite, which it does not append.
    """
    s = [f"s{i}" for i in range(dim)]
    lines = [f"def rk4(f, half, h, sixth, steps, out, {', '.join(s)}):",
             "    extend = out.extend",
             "    for _ in range(steps):"]
    args = s
    for k, scale in (("a", "half"), ("b", "half"), ("c", "h"), ("d", None)):
        lines.append(f"        {''.join(f'{k}{i}, ' for i in range(dim))}= f({', '.join(args)})")
        args = [f"{x} + {scale} * {k}{i}" for i, x in enumerate(s)]
    new = [f"{x} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})" for i, x in enumerate(s)]
    lines += [f"        {', '.join(s)}, = {', '.join(new)},",
              *_append_if_finite(s)]
    return generated_function("\n".join(lines) + "\n", "<rk4>", {})


def _rk4_step(f: Callable, h: float, dim: int) -> tuple:
    """_run's (loop, fast, checked) for classical RK4 steps of size h for xdot = f(x).

    The loop is _rk4_function(dim): per step four calls of f and the
    array form's arithmetic, term by term, s + (h/6)*(k1 + 2*k2 + 2*k3 +
    k4), so results are identical.  fast calls the unchecked form of an f
    that has one (a Compiled flow, or the NumericSemispray of a Lagrangian
    beyond the symbolic solve); any other f maps a list to a list and
    runs checked in both.  A non-finite stage value reaches the new
    state, so the loop's one check of it finds it.
    """
    half, sixth = 0.5 * h, h / 6.0
    checked = (lambda *s: f(list(s)), half, h, sixth)
    unchecked = getattr(f, "unchecked", None)
    fast = checked if unchecked is None else (unchecked, half, h, sixth)
    return _rk4_function(dim), fast, checked


def integrate_rk4(sys: ODESystem, state0: Sequence[float], t0: float, t1: float,
                  h: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step."""
    return _run(_rk4_step(sys.vector_function, h, sys.chart.dim), state0, t0, t1, h,
                sys.chart.names())


@lru_cache(maxsize=16)   # one per (n, separable)
def _symplectic_euler_function(n: int, separable: bool) -> Callable:
    """se(hx, hy, hxy, h, steps, out, x1.., y1..): symplectic Euler steps, generated for n.

    hx, hy and hxy map the coordinates, as arguments, to the lists of
    H_x, H_y and H_xy by rows.  se runs steps steps from (x, y) with the
    state in locals, appends each new state to out, an array of doubles,
    and returns at the first state that is not finite, which it does not
    append.  The Newton iterate y', its residual and update are locals,
    and the arithmetic is the array form's, term by term: the residual
    (y' - y) + h*H_x, the Jacobian I + h*H_xy solved by
    linalg.elimination_function(n), bound as solve, the candidates
    y' - scale*delta, and the stop rule max |residual| <= max(NEWTON_TOL,
    4 ulp of the largest |y_i| or |y'_i|).  An exact zero pivot is a
    singular Newton system.  A loop that gives up after NEWTON_MAX_ITERS
    iterations reports an overflow, not a stall, when y' - delta, its
    last iterate less the last undamped update, is not finite: it kept
    halving toward a candidate past the largest double.  The check runs
    only on giving up.  Since a checked H_x never returns a non-finite
    value, only an unchecked run can meet one in a candidate's H_x; it
    raises there, and the checked re-run names the failure: where the
    checked H_x fails at a candidate that is not finite, the Newton
    update overflowed, and the step reports that.  A candidate's
    finiteness is tested only there, so a step that succeeds does no
    extra work.

    A separable step (H_x reads no momentum, so H_xy is 0) is explicit:
    r = 0.0 + h*H_x(x), y' = y if max |r| meets the stop rule at y, else
    y' = y - r, then x' = x + h*H_y(x, y'); it never calls hxy.  This is
    the Newton loop's step bit for bit.  On the identity Jacobian the
    loop's first residual is r and its update is r, so its first
    candidate is c = y - r.  The residual (c - y) + r of c is the rounding
    of c and of c - y, at most 1.5 ulp of max(|y|, |c|): below the first
    norm, so scale 1 is taken, and within 4 ulp, so the loop stops at c.
    A non-finite r or y fails the step as the loop's first residual does.
    Where y - r overflows, the loop may still backtrack to a finite
    candidate or give up on the overflow, so that step and the rest of the
    run go to the Newton loop, newton = _symplectic_euler_function(n,
    False), from the step's start.
    """
    def each(template: str, count: int = n, sep: str = ", ") -> str:
        return sep.join(template.format(i=i) for i in range(count))

    def largest(*templates: str) -> str:   # max |v| over the named floats
        terms = [f"abs({t.format(i=i)})" for t in templates for i in range(n)]
        return f"max({', '.join(terms)})" if len(terms) > 1 else terms[0]

    def finite(template: str, count: int = n) -> str:   # v - v is 0.0 exactly when v is finite
        return each(f"{template} - {template} == 0.0", count, " and ")

    residual_fails = "raise _StepFailure(NonFiniteStateError, 'non-finite Newton residual')"
    overflows = "raise _StepFailure(NonFiniteStateError, 'Newton update overflows')"
    if separable:
        lines = [f"    {each('g{i}')}, = hx({each('x{i}')}, {each('y{i}')})",
                 *(f"    r{i} = 0.0 + h * g{i}" for i in range(n)),
                 f"    norm = {largest('r{i}')}",
                 f"    if norm <= {NEWTON_TOL!r} or norm <= 4.0 * math.ulp({largest('y{i}')}):",
                 f"        {each('c{i}')}, = {each('y{i}')},",
                 f"        if not ({finite('r{i}')} and {finite('y{i}')}):",
                 f"            {residual_fails}",
                 "    else:",
                 *(f"        c{i} = y{i} - r{i}" for i in range(n)),
                 f"        if not ({finite('c{i}')}):",
                 f"            if not ({finite('r{i}')}):",
                 f"                {residual_fails}",
                 "            return newton(hx, hy, hxy, h, remaining, out, "
                 f"{each('x{i}')}, {each('y{i}')})",
                 f"    {each('a{i}')}, = hy({each('x{i}')}, {each('c{i}')})",
                 f"    {each('x{i}')}, {each('y{i}')}, = {each('x{i} + h * a{i}')}, {each('c{i}')},"]
    else:
        lines = [f"    {each('v{i}')}, = {each('y{i}')},",
                 f"    {each('g{i}')}, = hx({each('x{i}')}, {each('v{i}')})",
                 *(f"    r{i} = (v{i} - y{i}) + h * g{i}" for i in range(n)),
                 f"    for iteration in range({NEWTON_MAX_ITERS + 1}):",
                 f"        if not ({finite('r{i}')}):",
                 f"            {residual_fails}",
                 f"        norm = {largest('r{i}')}",
                 f"        if norm <= {NEWTON_TOL!r} or "
                 f"norm <= 4.0 * math.ulp({largest('y{i}', 'v{i}')}):",
                 "            break",
                 f"        if iteration == {NEWTON_MAX_ITERS}:",
                 f"            if not ({finite('(v{i} - d{i})')}):",
                 f"                {overflows}",
                 "            raise _StepFailure(NewtonConvergenceError, 'Newton iteration failed "
                 f"after {NEWTON_MAX_ITERS} iterations')",
                 f"        {each('j{i}', n * n)}, = hxy({each('x{i}')}, {each('v{i}')})",
                 *(f"        j{i} = {float(i % (n + 1) == 0)} + h * j{i}" for i in range(n * n)),
                 f"        if not ({finite('j{i}', n * n)}):",
                 "            raise _StepFailure(NonFiniteStateError, 'non-finite Newton Jacobian')",
                 "        try:",
                 f"            {each('d{i}')}, = solve({each('j{i}', n * n)}, {each('r{i}')})",
                 "        except ZeroDivisionError:",
                 "            raise _StepFailure(NewtonConvergenceError, 'singular Newton system')",
                 # the last, smallest scale is taken regardless
                 f"        for scale in {BACKTRACK!r}:",
                 *(f"            c{i} = v{i} - scale * d{i}" for i in range(n)),
                 "            try:",
                 f"                {each('g{i}')}, = hx({each('x{i}')}, {each('c{i}')})",
                 "            except EvaluationError:",   # only a checked H_x raises it
                 f"                if not ({finite('c{i}')}):",
                 f"                    {overflows}",
                 "                raise",
                 f"            if not ({finite('g{i}')}):",
                 "                raise _StepFailure(NonFiniteStateError, 'non-finite H_x')",
                 *(f"            q{i} = (c{i} - y{i}) + h * g{i}" for i in range(n)),
                 f"            if {finite('q{i}')} and {largest('q{i}')} < norm:",
                 "                break",
                 f"        {each('v{i}')}, {each('r{i}')}, = {each('c{i}')}, {each('q{i}')},",
                 f"    {each('a{i}')}, = hy({each('x{i}')}, {each('v{i}')})",
                 f"    {each('x{i}')}, {each('y{i}')}, = {each('x{i} + h * a{i}')}, {each('v{i}')},"]
    state = [f"{c}{i}" for c in "xy" for i in range(n)]
    lines = [f"def se(hx, hy, hxy, h, steps, out, {', '.join(state)}):",
             "    extend = out.extend",
             f"    for {'remaining in range(steps, 0, -1)' if separable else '_ in range(steps)'}:",
             *("    " + line for line in lines),
             *_append_if_finite(state)]
    helper = dict(newton=_symplectic_euler_function(n, False)) if separable else \
        dict(solve=elimination_function(n))
    return generated_function("\n".join(lines) + "\n", "<symplectic euler>",
                              dict(globals(), **helper))


def _symplectic_euler_step(H, h: float) -> tuple:
    """_run's (loop, fast, checked) for symplectic Euler steps of size h, from H's blocks.

    The loop is _symplectic_euler_function(n, H.separable), run on the
    blocks' unchecked calls and checked only on a step that fails.  H_xy
    (H.compiled_mixed_hessian) is derived and compiled here only when H
    is not separable; a separable step calls it only where it hands an
    overflowing step to the Newton loop, and that first call builds it.
    """
    hx, hy = H.compiled_blocks
    if H.separable:   # only the overflow hand-off calls H_xy: its first call builds it
        fast = lambda *s: H.compiled_mixed_hessian.unchecked(*s)
        checked = lambda *s: H.compiled_mixed_hessian(s)
    else:
        hxy = H.compiled_mixed_hessian
        fast, checked = hxy.unchecked, lambda *s: hxy(s)
    return (_symplectic_euler_function(H.chart.n, H.separable),
            (hx.unchecked, hy.unchecked, fast, h),
            (lambda *s: hx(s), lambda *s: hy(s), checked, h))


def integrate_symplectic_euler(H, state0: Sequence[float], t0: float, t1: float,
                               h: float) -> Trajectory:
    """Symplectic Euler for the para-Hamiltonian equations.

    One step solves y' = y - h * H_x(x, y') implicitly (damped Newton with
    the analytic Jacobian I + h * H_xy, at most 25 iterations, each
    halving its step at most six times), then advances
    x' = x + h * H_y(x, y').  The Newton system is solved on floats by
    linalg.elimination_function(n), Gaussian elimination with partial
    pivoting, which is backward stable in any operation order; an exactly
    singular one fails the step.  Newton stops when max |residual| <=
    max(1e-12, 4 ulp(m)), m the largest |y_i| or |y'_i|: the residual
    (y' - y) + h * H_x cannot fall below the rounding of y', so at large
    momenta the floor replaces the absolute 1e-12.  While every momentum
    is below 2048 in magnitude the floor is at most 9.1e-13 and the
    tolerance is 1e-12.  H is a HamiltonianSystem: its derivative blocks
    are derived and compiled once per system, so repeated runs on one
    system differentiate and compile nothing; H_xy is derived and
    compiled only when the Newton loop can run, so never for a separable
    H unless a step overflows into the loop.  When H is separable, H_x
    reads no momentum and H_xy is 0, and each step is explicit:
    y' = y - h * H_x(x), or y itself when |h * H_x| is within the Newton
    tolerance, then x' = x + h * H_y(x, y'), one H_x and one H_y per step.
    The Newton loop takes that same y', signs of zero included: its first
    update y - h * H_x leaves a residual of at most 1.5 ulp, which the
    stop rule accepts.  Where y - h * H_x overflows, the Newton loop runs
    that step and the rest, so failures read as they do for the loop: a
    loop that gives up after 25 iterations while its undamped update is
    not finite raises NonFiniteStateError "Newton update overflows", and
    otherwise NewtonConvergenceError.
    """
    return _run(_symplectic_euler_step(H, h), state0, t0, t1, h, H.chart.names())


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    """Drift statistics for a scalar quantity along a trajectory.

    max_relative_drift is max_t |q(t) - q(0)| / max(1, |q(0)|); quantities
    of order one make this an absolute drift.
    """

    first: float
    last: float
    minimum: float
    maximum: float
    max_relative_drift: float

    def as_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=32)
def _compiled_quantity(quantity: Expression) -> Compiled:
    """One compile per quantity, shared by its reports on every trajectory.

    Keyed on the expression's value; a node's hash is computed once.
    """
    return Compiled((quantity,))


def conservation_report(traj: Trajectory, quantity: Expression) -> ConservationReport:
    """Evaluate a would-be first integral on every row and report drift."""
    values = traj.evaluate(_compiled_quantity(quantity))[0]
    first = float(values[0])
    drift = float(np.max(np.abs(values - first))) / max(1.0, abs(first))
    return ConservationReport(first, float(values[-1]), float(values.min()),
                              float(values.max()), drift)


def canonical_matrix(chart: Chart) -> np.ndarray:
    """Constant coefficient matrix of the canonical 2-form dx_i ^ dy_i."""
    n = chart.n
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplecticity_check(H, scheme: str, state0: Sequence[float], h: float,
                        steps: int) -> float:
    """Deviation of the step-composed flow from preserving the canonical form.

    Computes the flow Jacobian M by central finite differences and returns
    the max entry of |M^T Omega M - Omega|.
    """
    chart = H.chart
    if scheme == "symplectic-euler":
        step = _symplectic_euler_step(H, h)
    elif scheme == "rk4":
        from .hamilton import hamilton_odes   # hamilton imports this module
        step = _rk4_step(hamilton_odes(H).vector_function, h, chart.dim)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    def flow(s):
        return _run(step, s, 0.0, steps * h, h, chart.names()).final_state()

    dim = chart.dim
    base = np.asarray(state0, float)
    M = np.empty((dim, dim))
    for j in range(dim):
        bump = np.zeros(dim)
        bump[j] = FD_STEP
        M[:, j] = (flow(base + bump) - flow(base - bump)) / (2.0 * FD_STEP)
    omega = canonical_matrix(chart)
    return float(np.max(np.abs(M.T @ omega @ M - omega)))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The file gets the mode open(path, "w") leaves: an existing target's
    permission bits, else 0o666 less the umask (tempfile.mkstemp would
    give 0o600).  A symlink is written through, as open() does: the temp
    file, the mode and the rename all go to the path it resolves to.  An
    OSError names path, whichever step failed.
    """
    target, path = path, os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:   # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, target) from exc


def write_trajectory_csv(traj: Trajectory, path: str):
    """CSV with header t,x1,..,xn,y1,..,yn and 17 significant digits.

    Each block of _CSV_BLOCK rows is formatted by one template, so no
    string per value or per row is built and few floats exist at once.
    """
    times, states = traj.times, traj.states
    row = ",".join(["%.17g"] * (1 + len(traj.names))) + "\n"
    chunks = ["t," + ",".join(traj.names) + "\n"]
    for start in range(0, len(times), _CSV_BLOCK):
        block = np.column_stack((times[start:start + _CSV_BLOCK],
                                 states[start:start + _CSV_BLOCK]))
        chunks.append(row * len(block) % tuple(block.ravel().tolist()))
    atomic_write_text(path, "".join(chunks))
