"""From a Lagrangian L(x, y) to its para-Kahler form, energy, and flow.

Pipeline: the 2-form Phi_L = -d(d_J L) = 2 sum_ij L_{x_i y_j} dx_i ^ dy_j is
read from L's Hessian, derived once per system; the energy is
E_L = sum_i X_i dL/dx_i - Y_i dL/dy_i - L for a semispray with components
(X, Y); requiring i_xi Phi_L = dE_L reduces to the linear system

    Hess(L) (X, Y) = (dL/dx, -dL/dy)

whose solution is the semispray of the Euler-Lagrange dynamics xdot = X,
ydot = Y.  The energy differential follows the convention that the
semispray coefficients X_i, Y_i are held constant under d; only under that
convention does i_xi Phi_L = dE_L close exactly.  Whether the flow
conserves E_L is decided on floats at sample points, from L's second and
third derivatives and the per-point solve, with no symbolic derivative
of E_L.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations_with_replacement
from typing import Callable, Optional

from . import linalg
from .expr import (
    MAX_RESAMPLES,
    SAMPLE_BOX,
    SAMPLE_REL_TOL,
    ZERO,
    Compiled,
    EvaluationError,
    Expression,
    SamplingError,
    as_expression,
    equal_on_samples,
    free_variables,
    is_zero,
    parse,
    simplify,
)
from .geometry import (
    Chart,
    DifferentialForm,
    VectorField,
    make_form,
)
from .integrate import ODESystem, Trajectory, _StepFailure, _where

REGULARITY_PROBES = 5
REGULARITY_TOL = 1e-9
# _full_rank's margin over REGULARITY_TOL, and its bound on ||H||_F ||X||_F
_RANK_MARGIN = 2.0
_RANK_CONDITION = 1e8


class DegenerateLagrangianError(Exception):
    """The Hessian system is singular; carries the numeric rank found.

    step is None when the probe points of the derivation found it, and
    otherwise the integration step whose flow reached a state where the
    Hessian is exactly singular; where then names that step, its t and
    its state.
    """

    def __init__(self, rank: int, size: int, step: Optional[int] = None,
                 where: str = "at probe points"):
        super().__init__(f"degenerate Lagrangian: Hessian rank {rank} of {size} {where}")
        self.rank = rank
        self.size = size
        self.step = step


@dataclass(frozen=True)
class LagrangianSystem:
    """A Lagrangian expression over the chart coordinates."""

    chart: Chart
    L: Expression
    partials: Callable = field(init=False, repr=False, compare=False)   # Chart.partials(L)

    def __post_init__(self):
        object.__setattr__(self, "L", as_expression(self.L))
        object.__setattr__(self, "partials", self.chart.partials(self.L))
        for v in free_variables(self.L):
            try:
                self.chart.index(v)
            except IndexError as exc:
                raise ValueError(
                    f"Lagrangian references {v.name} outside the chart") from exc

    @staticmethod
    def from_source(source: str, chart: Chart) -> "LagrangianSystem":
        return LagrangianSystem(chart, parse(source, chart))

    @cached_property
    def gradient(self) -> tuple:
        """(dL/dx_1, .., dL/dy_n), read from L's table."""
        return tuple(map(self.partials, range(self.chart.dim)))

    @cached_property
    def compiled_gradient(self) -> Compiled:
        """The gradient compiled once: the trajectory reports read it."""
        return Compiled(self.gradient)

    @cached_property
    def hessian(self) -> tuple:
        """Rows a of d2L/dz_a dz_b in chart order, read from L's table: (b, a) is (a, b)."""
        dim = self.chart.dim
        return tuple(tuple(self.partials(a, b) for b in range(dim)) for a in range(dim))

    @cached_property
    def semispray_rhs(self) -> tuple:
        """(dL/dx_1, .., -dL/dy_1, ..): the right-hand side of the semispray system."""
        n = self.chart.n
        return tuple(g if a < n else simplify(-g) for a, g in enumerate(self.gradient))

    @cached_property
    def numeric_semispray(self) -> "NumericSemispray":
        """The Hessian system compiled once per system: Hessian rows, then semispray_rhs.

        The rank probe, the numeric semispray beyond 2n = 4 and energy_rate
        all read it.
        """
        return NumericSemispray(self.chart, [*(e for row in self.hessian for e in row),
                                             *self.semispray_rhs])

    @cached_property
    def energy_rate(self) -> Callable:
        """rate(*state): xi(E_L) at a state, on floats; derived and compiled once per system.

        With s_a = 1 on x rows and -1 on y rows, xi solves Hess xi = s grad L
        and E_L = (s grad L).xi - L, so xi(E_L) = (s grad L).D xi +
        xi.(s Hess xi) - xi.grad L, where D xi = sum_c xi_c d_c xi.  The
        last two terms cancel, since s Hess xi = grad L.  Differentiating
        Hess xi = s grad L along xi gives Hess D xi = grad L - T(xi, xi, .),
        with T the third derivatives of L, and Hess is symmetric, so
        (s grad L).D xi = xi.Hess D xi:

            xi(E_L) = xi.grad L - sum_abc L_abc xi_a xi_b xi_c.

        The Hessian and semispray_rhs come from numeric_semispray's system,
        and one more Compiled holds each third derivative L_abc, a <= b <= c,
        that is not symbolically zero: L_abc is symmetric, so each is read
        once from L's table, as Hessian entry (a, b) differentiated along
        z_c, and weighted by the number of orderings of (a, b, c).  rate
        solves for xi once per state and checks nothing: it raises ArithmeticError,
        ValueError or EvaluationError where an entry is undefined or a pivot
        is exactly zero, and returns a value that is not finite where an
        entry is not finite.
        """
        dim, n = self.chart.dim, self.chart.n
        third, cubic = [], []
        for a, b, c in combinations_with_replacement(range(dim), 3):
            d = self.partials(a, b, c)
            if not is_zero(d):
                cubic.append((len(third), (1, 3, 6)[len({a, b, c}) - 1], a, b, c))
                third.append(d)
        semispray = self.numeric_semispray
        evaluate, solve = semispray.system.unchecked, semispray.solve
        evaluate_third = Compiled(third, self.chart.names()).unchecked
        signs = [(a, dim * dim + a, 1.0 if a < n else -1.0) for a in range(dim)]

        def rate(*state) -> float:
            values = evaluate(*state)
            xi = solve(*values)
            v = 0.0
            for a, k, sign in signs:   # values[k] is s_a L_a
                v += sign * xi[a] * values[k]
            values = evaluate_third(*state)
            for k, w, a, b, c in cubic:
                v -= w * values[k] * xi[a] * xi[b] * xi[c]
            return v

        return rate


@dataclass(frozen=True)
class Semispray:
    """Solved vector field components (X_1..X_n, Y_1..Y_n).

    components is None for charts beyond the symbolic-solve size, in which
    case numeric, a NumericSemispray, solves the Hessian system per point
    on floats.
    """

    chart: Chart
    components: Optional[tuple]
    numeric: Optional[Callable] = None

    @property
    def is_symbolic(self) -> bool:
        return self.components is not None

    def X(self, i: int) -> Expression:
        return self.components[i - 1]

    def Y(self, i: int) -> Expression:
        return self.components[self.chart.n + i - 1]

    def as_vector_field(self) -> VectorField:
        return VectorField(self.chart, self.components)


def kahler_form(L: LagrangianSystem) -> DifferentialForm:
    """Phi_L = -d(d_J L), a closed 2-form, degenerate iff L is.

    With d_J L = sum_i L_{x_i} dx_i - L_{y_i} dy_i for the model J, the
    dx ^ dx and dy ^ dy terms of d(d_J L) cancel because second partials
    commute, leaving Phi_L = 2 sum_ij L_{x_i y_j} dx_i ^ dy_j.  It is read
    from the mixed block of L.hessian, so it derives nothing once the
    Hessian is built.
    """
    n = L.chart.n
    return make_form(L.chart, 2, [((i, n + j), 2.0 * L.hessian[i][n + j])
                                  for i in range(n) for j in range(n)])


def energy(L: LagrangianSystem, xi: Semispray) -> Expression:
    """E_L = sum_i X_i dL/dx_i - Y_i dL/dy_i - L, simplified."""
    n, grad = L.chart.n, L.gradient
    acc = -L.L
    for i in range(n):
        acc = acc + xi.components[i] * grad[i]
        acc = acc - xi.components[n + i] * grad[n + i]
    return simplify(acc)


def energy_differential(L: LagrangianSystem, xi: Semispray) -> DifferentialForm:
    """dE_L with the semispray coefficients held constant under d.

    Coefficient of dx_j: sum_i X_i L_{x_i x_j} - Y_i L_{y_i x_j} - L_{x_j},
    and the analogous expression for dy_j.  Literal differentiation of the
    substituted energy would add dX/dY terms; the fixed-coefficient
    convention is the one under which i_xi Phi_L = dE_L holds.
    """
    dim, n = L.chart.dim, L.chart.n
    hess, grad = L.hessian, L.gradient
    terms = []
    for b in range(dim):
        acc = -grad[b]
        for i in range(n):
            acc = acc + xi.components[i] * hess[i][b]
            acc = acc - xi.components[n + i] * hess[n + i][b]
        terms.append(((b,), acc))
    return make_form(L.chart, 1, terms)


def _full_rank(entries: list, dim: int) -> bool:
    """Whether the dim x dim matrix H of entries, row by row, is shown to have full rank.

    X is H's inverse by linalg.elimination_function(dim), column by
    column, and R = I - H X.  When ||R||_F <= 1/2, H X = I - R is
    invertible and ||H^-1||_2 <= ||X||_F / (1 - ||R||_F), so every singular
    value of H is at least (1 - ||R||_F) / ||X||_F.  Full rank is claimed
    when that bound exceeds _RANK_MARGIN * REGULARITY_TOL and
    ||H||_F ||X||_F <= _RANK_CONDITION: below that condition the rounding
    of R, and numpy's singular values (off by about eps * sigma_max), stay
    far inside the margin, so numpy.linalg.matrix_rank(H, tol=REGULARITY_TOL)
    finds full rank too.  False claims nothing: an exact zero pivot, a
    non-finite or ill-conditioned inverse and a small singular value all
    give False.
    """
    solve = linalg.elimination_function(dim)
    rows = [entries[i * dim:(i + 1) * dim] for i in range(dim)]
    try:
        inverse = [solve(*entries, *(float(i == j) for i in range(dim))) for j in range(dim)]
    except ZeroDivisionError:
        return False
    R = [float(i == j) - sum(a * x for a, x in zip(row, column))
         for i, row in enumerate(rows) for j, column in enumerate(inverse)]
    residual, size, norm = (math.sqrt(sum(v * v for v in values))   # * overflows to inf, ** raises
                            for values in (R, entries, [x for column in inverse for x in column]))
    return (residual <= 0.5 and norm / (1.0 - residual) < 1.0 / (_RANK_MARGIN * REGULARITY_TOL)
            and size * norm <= _RANK_CONDITION)


def _numeric_rank(L: LagrangianSystem, seed: int = 20240502) -> int:
    """Largest rank of the Hessian at the probe points.

    Each probe evaluates only the Hessian rows of L.numeric_semispray's
    system, so a point where only the right-hand side fails still counts;
    a failing entry is named with its label and the probe point.  Every
    probe is evaluated first; when _full_rank shows full rank at one, the
    rank is dim, else numpy.linalg.matrix_rank decides it at each probe.
    """
    chart = L.chart
    dim = chart.dim
    system = L.numeric_semispray.system
    matrices = []
    for point in chart.sample_points(REGULARITY_PROBES, seed):
        state = list(point.values())
        try:
            matrices.append(system(state, dim * dim))
        except EvaluationError as exc:
            raise EvaluationError(
                f"{exc} at probe point {_where(chart.names(), state)}") from exc
    if any(_full_rank(values, dim) for values in matrices):
        return dim
    import numpy as np
    return max(int(np.linalg.matrix_rank(np.array(values).reshape(dim, dim), tol=REGULARITY_TOL))
               for values in matrices)


class NumericSemispray:
    """The semispray at a state: Hess(L) (X, Y) = (L_x, -L_y) solved on floats.

    system compiles entries, the Hessian row by row and then the right-hand
    side, labelled d2L/dx1dy1 and dL/dx1 or -dL/dy1 so a failing entry
    names itself; the solve is linalg.elimination_function(dim), so no
    numpy call runs per evaluation.  unchecked(*state) feeds system.unchecked into
    the solve and checks nothing: it may raise, or return a non-finite
    component where an entry was not finite.  A call, on a list of
    floats, checks every entry first, so a non-finite one raises
    system's EvaluationError, and an exactly singular Hessian raises the
    step failure that becomes DegenerateLagrangianError, naming its rank
    (numpy's matrix_rank, imported on that path only), step, t and state.
    Integrators run unchecked and call again only when that fails, as
    they do for a Compiled flow.
    """

    def __init__(self, chart: Chart, entries):
        names = chart.names()
        labels = ([f"d2L/d{p}d{q}" for p in names for q in names]
                  + [f"{'' if a < chart.n else '-'}dL/d{p}" for a, p in enumerate(names)])
        self.system = system = Compiled(entries, names, labels)
        self.dim = dim = chart.dim
        self.solve = solve = linalg.elimination_function(dim)
        evaluate = system.unchecked
        self.unchecked = lambda *state: solve(*evaluate(*state))

    def __call__(self, state) -> list:
        values = self.system(state)
        try:
            return self.solve(*values)
        except ZeroDivisionError:   # an exact zero pivot
            import numpy as np
            dim = self.dim
            matrix = np.array(values[:dim * dim]).reshape(dim, dim)
            rank = int(np.linalg.matrix_rank(matrix))
            raise _StepFailure(partial(DegenerateLagrangianError, rank, dim), "reached") from None


def solve_semispray(L: LagrangianSystem) -> Semispray:
    """Solve Hess(L) (X, Y) = (dL/dx, -dL/dy) for the semispray.

    Symbolic Cramer solve for 2n <= 4.  Beyond, a NumericSemispray solves
    it per point by float elimination, whose rounding differs from
    numpy.linalg.solve's in the last bits.  Raises
    DegenerateLagrangianError, naming the numeric rank, when the
    Hessian is singular at every probe point.
    """
    chart = L.chart
    dim = chart.dim
    symbolic = dim <= linalg.MAX_SYMBOLIC_DIM
    rank = _numeric_rank(L)
    if rank < dim:
        det = linalg.determinant(L.hessian) if symbolic else None
        if det is None or is_zero(det) or equal_on_samples(det, ZERO, trials=20, seed=3):
            raise DegenerateLagrangianError(rank, dim)

    if symbolic:
        return Semispray(chart, linalg.cramer_solve(L.hessian, L.semispray_rhs))
    return Semispray(chart, None, L.numeric_semispray)


@dataclass(frozen=True)
class EulerLagrangeSystem:
    """First-order dynamics xdot_i = X_i, ydot_i = Y_i plus residual checks.

    The residuals restate the defining linear system with the solved
    components substituted; they vanish identically for a regular L.  They
    are None when the semispray is numeric-only.
    """

    chart: Chart
    semispray: Semispray
    residuals: Optional[tuple]

    @cached_property
    def ode(self) -> ODESystem:
        if self.semispray.is_symbolic:
            return ODESystem(self.chart, rhs=self.semispray.components)
        return ODESystem(self.chart, rhs_callable=self.semispray.numeric)


def euler_lagrange_system(L: LagrangianSystem) -> EulerLagrangeSystem:
    """Derive the Euler-Lagrange flow of L.

    Residual j (x-family): sum_i [L_{x_i x_j} X_i + L_{y_i x_j} Y_i] - L_{x_j};
    residual n+j (y-family): sum_i [L_{x_i y_j} X_i + L_{y_i y_j} Y_i] + L_{y_j}.
    """
    xi = solve_semispray(L)
    chart = L.chart
    if not xi.is_symbolic:
        return EulerLagrangeSystem(chart, xi, None)

    dim, n = chart.dim, chart.n
    hess, grad = L.hessian, L.gradient
    residuals = []
    for b in range(dim):
        acc = -grad[b] if b < n else grad[b]
        for i in range(dim):
            acc = acc + hess[i][b] * xi.components[i]
        residuals.append(simplify(acc))
    return EulerLagrangeSystem(chart, xi, tuple(residuals))


def energy_is_conserved(L: LagrangianSystem, xi: Semispray, trials: int = 40,
                        seed: int = 0) -> bool:
    """Whether xi(E_L) vanishes on samples, i.e. E_L is a first integral.

    Conservation is not automatic for every regular L under the fixed
    coefficient convention, so it is probed rather than assumed: at trials
    points drawn uniformly from [-2, 2] per coordinate, in chart order,
    with random.Random(seed), |v| < SAMPLE_REL_TOL * (1 + |v|) for v =
    xi(E_L) from L.energy_rate, on floats at every n.  A point where an
    entry is undefined or not finite, or a pivot is exactly zero, is drawn
    again, at most MAX_RESAMPLES times per trial, and then SamplingError
    names this check.  xi, the semispray solved from L, is not read: each
    point solves for it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    rate, dim = L.energy_rate, L.chart.dim
    for _ in range(trials):
        for _ in range(MAX_RESAMPLES + 1):
            try:
                v = rate(*[rng.uniform(-SAMPLE_BOX, SAMPLE_BOX) for _ in range(dim)])
            except (ArithmeticError, ValueError, EvaluationError):
                continue
            if v - v == 0.0:   # finite, so every entry was
                break
        else:
            raise SamplingError(f"E_L conservation check: no sample point where xi(E_L) is "
                                f"defined after {MAX_RESAMPLES} resamples")
        if abs(v) >= SAMPLE_REL_TOL * (1.0 + abs(v)):
            return False
    return True


# ---------------------------------------------------------------------------
# trajectory diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialLawReport:
    """Relative drift of (dL/dx_j) e^{-t} and (dL/dy_j) e^{t} along a flow.

    Both products are constant along exact Euler-Lagrange trajectories;
    drift is measured against max(1, |initial value|).  One number per
    index j for the x family and for the y family.
    """

    x_family: tuple
    y_family: tuple

    def as_dict(self) -> dict:
        return {"x_family": list(self.x_family), "y_family": list(self.y_family)}

    def max_drift(self) -> float:
        return max(self.x_family + self.y_family)


def exponential_law_report(L: LagrangianSystem, traj: Trajectory) -> ExponentialLawReport:
    """Drift of the exponentially-rescaled momenta along a trajectory.

    The momenta dL/dx_j and dL/dy_j come from the system's compiled gradient.
    """
    import numpy as np
    times = traj.times
    decay = np.exp(-(times - times[0]))
    growth = np.exp(times - times[0])
    values, n = traj.evaluate(L.compiled_gradient), L.chart.n
    x_drift, y_drift = [], []
    for f, g in zip(values[:n], values[n:]):
        scaled = f * decay
        x_drift.append(float(np.max(np.abs(scaled - scaled[0]))
                             / max(1.0, abs(scaled[0]))))
        scaled = g * growth
        y_drift.append(float(np.max(np.abs(scaled - scaled[0]))
                             / max(1.0, abs(scaled[0]))))
    return ExponentialLawReport(tuple(x_drift), tuple(y_drift))
