"""From a Hamiltonian H(x, y) to the para-Hamiltonian flow.

The Liouville 1-form is the dual twist of omega = (1/2) sum y_i dx_i
+ x_i dy_i, its negative exterior derivative is the canonical 2-form
Phi = sum dx_i ^ dy_i, and the Hamiltonian vector field Z_H solves
i_{Z_H} Phi = dH, giving the flow xdot_i = dH/dy_i, ydot_i = -dH/dx_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .expr import (
    Compiled,
    Const,
    Expression,
    as_expression,
    free_variables,
    parse,
    simplify,
)
from .geometry import (
    Chart,
    DifferentialForm,
    VectorField,
    exterior_derivative,
    j_dual_apply,
    make_form,
    model_dual_structure,
)
from .integrate import ODESystem


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian expression over the chart coordinates."""

    chart: Chart
    H: Expression
    partials: Callable = field(init=False, repr=False, compare=False)   # Chart.partials(H)

    def __post_init__(self):
        object.__setattr__(self, "H", as_expression(self.H))
        object.__setattr__(self, "partials", self.chart.partials(self.H))
        for v in free_variables(self.H):
            try:
                self.chart.index(v)
            except IndexError as exc:
                raise ValueError(
                    f"Hamiltonian references {v.name} outside the chart") from exc

    @staticmethod
    def from_source(source: str, chart: Chart) -> "HamiltonianSystem":
        return HamiltonianSystem(chart, parse(source, chart))

    @cached_property
    def gradient(self) -> tuple:
        """(dH/dx_1, .., dH/dy_n), read from H's table."""
        return tuple(map(self.partials, range(self.chart.dim)))

    @cached_property
    def mixed_hessian(self) -> tuple:
        """d2H/dx_i dy_j as rows i, the symplectic Euler Jacobian block.

        Read from H's table on first use, only when the Newton loop can
        run: the explicit step of a separable H never reads it.
        """
        n = self.chart.n
        return tuple(tuple(self.partials(i, n + j) for j in range(n)) for i in range(n))

    @cached_property
    def compiled_blocks(self) -> tuple:
        """Compiled (H_x, H_y), built once: the symplectic Euler step reads them."""
        n, names = self.chart.n, self.chart.names()
        labels = [f"dH/d{v}" for v in names]
        return (Compiled(self.gradient[:n], names, labels[:n]),
                Compiled(self.gradient[n:], names, labels[n:]))

    @cached_property
    def compiled_mixed_hessian(self) -> Compiled:
        """Compiled H_xy by rows, built on first use: the Newton loop's Jacobian reads it."""
        n, names = self.chart.n, self.chart.names()
        return Compiled((e for row in self.mixed_hessian for e in row), names,
                        [f"d2H/d{u}d{v}" for u in names[:n] for v in names[n:]])

    @cached_property
    def separable(self) -> bool:
        """Whether H_x reads no momentum, H = T(y) + V(x), so H_xy is 0: decided once."""
        return all(v.kind == "x" for e in self.gradient[:self.chart.n] for v in free_variables(e))

    @cached_property
    def odes(self) -> ODESystem:
        """The flow of Z_H, built once; hamilton_odes returns it."""
        return ODESystem(self.chart, rhs=hamiltonian_vector_field(self).components)


def liouville_one_form(chart: Chart) -> DifferentialForm:
    """lambda = J* omega = (1/2) sum y_i dx_i - (1/2) sum x_i dy_i."""
    half = Const(0.5)
    n = chart.n
    terms = []
    for i in range(n):
        terms.append(((i,), half * chart.variable(n + i)))
        terms.append(((n + i,), half * chart.variable(i)))
    omega = make_form(chart, 1, terms)
    return j_dual_apply(model_dual_structure(chart), omega)


def canonical_form(chart: Chart) -> DifferentialForm:
    """Phi = -d(lambda) = sum dx_i ^ dy_i; closed and non-degenerate."""
    return exterior_derivative(liouville_one_form(chart)).scale(-1.0)


def hamiltonian_vector_field(H: HamiltonianSystem) -> VectorField:
    """Z_H = sum dH/dy_i d/dx_i - dH/dx_i d/dy_i, the solution of i_Z Phi = dH."""
    n, dH = H.chart.n, H.gradient
    return VectorField(H.chart, dH[n:] + tuple(simplify(-d) for d in dH[:n]))


def hamilton_odes(H: HamiltonianSystem) -> ODESystem:
    """First-order flow xdot_i = dH/dy_i, ydot_i = -dH/dx_i, built once per system."""
    return H.odes
