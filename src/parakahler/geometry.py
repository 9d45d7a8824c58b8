"""Charts, vector fields, differential forms, and the flat model structures.

The chart is global on R^{2n} with coordinates ordered (x1..xn, y1..yn).
The model carries the neutral metric g = dx_i (x) dy_i + dy_i (x) dx_i and
the product structure J that is +1 on x-directions and -1 on y-directions;
J* acts the same way on the coordinate differentials.  Differential forms
are stored sparsely on strictly increasing index tuples, with permutation
signs normalized at insertion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

from .expr import (
    ONE,
    SAMPLE_BOX,
    ZERO,
    Compiled,
    Const,
    EvaluationError,
    Expression,
    Product,
    Var,
    as_expression,
    differentiate,
    is_zero,
    simplify,
    to_source,
)


COMPAT_TOL = 1e-9


class DegreeError(ValueError):
    """A form operation was applied at an unsupported degree."""


class DimensionMismatchError(ValueError):
    """Operands live on charts of different dimension."""


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Global coordinates (x1..xn, y1..yn) on R^{2n}; requires n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("chart dimension parameter n must be >= 1")

    @property
    def dim(self) -> int:
        return 2 * self.n

    def variable(self, a: int) -> Var:
        """Coordinate variable at flat index a, x-block first."""
        if not 0 <= a < self.dim:
            raise IndexError(f"flat index {a} outside 0..{self.dim - 1}")
        if a < self.n:
            return Var("x", a + 1)
        return Var("y", a - self.n + 1)

    def variables(self) -> tuple:
        return self._variables

    def names(self) -> tuple:
        return self._names

    @cached_property
    def _variables(self) -> tuple:
        """The coordinate variables, x-block first, built once per chart."""
        return tuple(self.variable(a) for a in range(self.dim))

    @cached_property
    def _names(self) -> tuple:
        return tuple(v.name for v in self._variables)

    def index(self, v: Var) -> int:
        if not 1 <= v.index <= self.n:
            raise IndexError(f"{v.name} outside chart with n={self.n}")
        return v.index - 1 if v.kind == "x" else self.n + v.index - 1

    def differential_name(self, a: int) -> str:
        return "d" + self.variable(a).name

    def sample_point(self, rng: random.Random, box: float = SAMPLE_BOX) -> dict:
        return {name: rng.uniform(-box, box) for name in self.names()}

    def sample_points(self, count: int, seed: int) -> list:
        """count points drawn in turn by sample_point from a fresh random.Random(seed)."""
        rng = random.Random(seed)
        return [self.sample_point(rng) for _ in range(count)]

    def partials(self, f: Expression) -> Callable:
        """partial(*index): f differentiated along the coordinates at index, in any order.

        A table of its own per call, keyed by the sorted index tuple: each
        entry is derived once, as its parent (the tuple less its last
        index) differentiated along that last index.
        """
        table = {(): f}

        def partial(*index) -> Expression:
            key = tuple(sorted(index))
            if key not in table:
                table[key] = differentiate(partial(*key[:-1]), self.variable(key[-1]))
            return table[key]

        return partial


def _component(name: str, *indices: int) -> str:
    """A label such as g_12 or R_1212: indices counted from 1, comma-separated past 9."""
    numbers = [str(i + 1) for i in indices]
    return f"{name}_{('' if all(i < 9 for i in indices) else ',').join(numbers)}"


def _at_point(point: Mapping[str, float]) -> str:
    return "at point " + ", ".join(f"{name} = {float(value):.9g}" for name, value in point.items())


def _stack(compiled: Compiled, points: list, *shape: int) -> np.ndarray:
    """compiled.at at each point in turn, as (len(points), *shape); a failure names its point."""
    import numpy as np
    values = []
    for point in points:
        try:
            values.append(compiled.at(point))
        except EvaluationError as exc:
            raise EvaluationError(f"{exc} {_at_point(point)}") from exc
    return np.array(values, dtype=float).reshape(len(points), *shape)


def _require_same_chart(a, b):
    if a.chart != b.chart:
        raise DimensionMismatchError(
            f"chart mismatch: n={a.chart.n} vs n={b.chart.n}")


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """Contravariant field with one Expression component per coordinate."""

    chart: Chart
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise DimensionMismatchError(
                f"expected {self.chart.dim} components, got {len(self.components)}")
        object.__setattr__(self, "components",
                           tuple(as_expression(c) for c in self.components))

    @cached_property
    def _compiled(self) -> Compiled:
        return Compiled(self.components)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        import numpy as np
        return np.array(self._compiled.at(point))

    def is_zero(self) -> bool:
        return all(is_zero(simplify(c)) for c in self.components)


# ---------------------------------------------------------------------------
# differential forms
# ---------------------------------------------------------------------------

def _normalize_tuple(indices):
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Returns (None, 0) when an index repeats, which kills the term.
    """
    order = list(indices)
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(order)):
        if order[i - 1] == order[i]:
            return None, 0
    return tuple(order), sign


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-k form as a map from strictly increasing index tuples.

    Absent tuples are zero.  Degree 0 stores a single coefficient at the
    empty tuple.  Construct through ``make_form`` so that signs are
    normalized and zero coefficients dropped.
    """

    chart: Chart
    degree: int
    coefficients: dict = field(compare=False)

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeError(f"degree {self.degree} is negative")
        if self.degree > self.chart.dim and self.coefficients:
            raise DegreeError(
                f"a nonzero form of degree {self.degree} cannot exist in "
                f"dimension {self.chart.dim}")

    def coefficient(self, indices) -> Expression:
        key, sign = _normalize_tuple(tuple(indices))
        if key is None:
            return ZERO
        value = self.coefficients.get(key, ZERO)
        return value if sign == 1 else simplify(-value)

    def terms(self):
        """Sorted (indices, coefficient) pairs with nonzero coefficients."""
        return tuple(sorted(self.coefficients.items()))

    def is_zero(self) -> bool:
        return not self.coefficients

    def add(self, other: "DifferentialForm") -> "DifferentialForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("can only add forms of equal degree")
        merged = list(self.coefficients.items()) + list(other.coefficients.items())
        return make_form(self.chart, self.degree, merged)

    def subtract(self, other: "DifferentialForm") -> "DifferentialForm":
        return self.add(other.scale(-1.0))

    def scale(self, factor) -> "DifferentialForm":
        factor = as_expression(factor)
        return make_form(self.chart, self.degree,
                         [(k, factor * v) for k, v in self.coefficients.items()])

    @cached_property
    def _compiled(self) -> Compiled:
        return Compiled(self.coefficients.values())

    def at(self, point: Mapping[str, float]) -> dict:
        return dict(zip(self.coefficients, self._compiled.at(point)))

    def __str__(self):
        return form_to_text(self)


def make_form(chart: Chart, degree: int, terms: Iterable) -> DifferentialForm:
    """Build a form from (index tuple, coefficient) pairs.

    Tuples may arrive in any order; signs from sorting are absorbed into
    the coefficients, duplicates are merged, zeros dropped.
    """
    collected: dict = {}
    for indices, coefficient in terms:
        key, sign = _normalize_tuple(tuple(indices))
        if key is None:
            continue
        coefficient = as_expression(coefficient)
        if sign == -1:
            coefficient = -coefficient
        if key in collected:
            collected[key] = collected[key] + coefficient
        else:
            collected[key] = coefficient
    cleaned = {}
    for key, coefficient in collected.items():
        coefficient = simplify(coefficient)
        if not is_zero(coefficient):
            cleaned[key] = coefficient
    return DifferentialForm(chart, degree, cleaned)


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def function_form(chart: Chart, f) -> DifferentialForm:
    """Wrap a scalar expression as a degree-0 form."""
    f = simplify(as_expression(f))
    return DifferentialForm(chart, 0, {} if is_zero(f) else {(): f})


def exterior_derivative(w: DifferentialForm) -> DifferentialForm:
    """Coordinate exterior derivative; d of d is zero.

    Top-degree input yields the zero form one degree up, so closedness
    checks are uniform in the chart dimension.
    """
    chart = w.chart
    if w.degree >= chart.dim:
        return zero_form(chart, w.degree + 1)
    terms = []
    for key, coefficient in w.coefficients.items():
        for a in range(chart.dim):
            partial = differentiate(coefficient, chart.variable(a))
            if not is_zero(partial):
                terms.append(((a,) + key, partial))
    return make_form(chart, w.degree + 1, terms)


def interior_product(X: VectorField, w: DifferentialForm) -> DifferentialForm:
    """Contraction of the first slot: (i_X w)(...) = w(X, ...)."""
    _require_same_chart(X, w)
    if w.degree < 1:
        raise DegreeError("interior product needs degree >= 1")
    terms = []
    for key, coefficient in w.coefficients.items():
        for m, idx in enumerate(key):
            component = X.components[idx]
            if is_zero(component):
                continue
            reduced = key[:m] + key[m + 1:]
            term = component * coefficient
            terms.append((reduced, term if m % 2 == 0 else -term))
    return make_form(w.chart, w.degree - 1, terms)


# ---------------------------------------------------------------------------
# metric and product structure
# ---------------------------------------------------------------------------

def _matrix_rows(chart: Chart, rows) -> tuple:
    dim = chart.dim
    rows = tuple(tuple(as_expression(e) for e in row) for row in rows)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise DimensionMismatchError(f"expected a {dim}x{dim} matrix")
    return rows


class _MatrixField:
    """A dim x dim matrix of expressions whose _compiled set holds its entries row by row."""

    def stack(self, points: list) -> np.ndarray:
        return _stack(self._compiled, points, self.chart.dim, self.chart.dim)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        return self.stack([point])[0]


@dataclass(frozen=True)
class Metric(_MatrixField):
    """Symmetric (0,2)-tensor; symmetry is imposed from the upper triangle.

    potential, if set, is the Chart.partials table of a potential K whose
    K_{x_i y_j} are the x-y entries, the diagonal blocks being zero.
    """

    chart: Chart
    entries: tuple
    potential: Optional[Callable] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_rows(chart: Chart, rows) -> "Metric":
        given = _matrix_rows(chart, rows)
        dim = chart.dim
        entries = tuple(tuple(given[min(a, b)][max(a, b)] for b in range(dim))
                        for a in range(dim))
        return Metric(chart, entries)

    @cached_property
    def _compiled(self) -> Compiled:
        dim = self.chart.dim
        pairs = [(a, b) for a in range(dim) for b in range(dim)]
        return Compiled((self.entries[min(a, b)][max(a, b)] for a, b in pairs),
                        labels=[_component("g", *pair) for pair in pairs])

    def partial(self, index: tuple, b: int, c: int) -> Expression:
        """d_index g_{bc}, each distinct partial derived once per metric.

        K's table at index + (b, c) for an x-y pair of a potential metric,
        ZERO for its other pairs; else the table of upper entry g_{bc}.
        """
        b, c = sorted((b, c))
        if self.potential is None:
            return self._tables[b][c](*index)
        return self.potential(*index, b, c) if b < self.chart.n <= c else ZERO

    @cached_property
    def _tables(self) -> tuple:
        return tuple(tuple(map(self.chart.partials, row)) for row in self.entries)


@dataclass(frozen=True)
class ProductStructure(_MatrixField):
    """(1,1)-tensor J with J squared the identity."""

    chart: Chart
    entries: tuple

    @staticmethod
    def from_rows(chart: Chart, rows) -> "ProductStructure":
        return ProductStructure(chart, _matrix_rows(chart, rows))

    @cached_property
    def _compiled(self) -> Compiled:
        dim = self.chart.dim
        return Compiled((e for row in self.entries for e in row),
                        labels=[_component("J", a, b) for a in range(dim) for b in range(dim)])


def model_metric(chart: Chart) -> Metric:
    """The flat neutral metric pairing x-directions with y-directions."""
    dim, n = chart.dim, chart.n
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = ONE
        rows[n + i][i] = ONE
    return Metric.from_rows(chart, rows)


def model_product_structure(chart: Chart) -> ProductStructure:
    """Diagonal structure: +1 on the x-block, -1 on the y-block."""
    dim, n = chart.dim, chart.n
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][i] = ONE
        rows[n + i][n + i] = Const(-1.0)
    return ProductStructure.from_rows(chart, rows)


def model_dual_structure(chart: Chart) -> ProductStructure:
    """J*, the action of J on coordinate differentials: the same matrix as J."""
    return model_product_structure(chart)


def j_dual_apply(Jd: ProductStructure, alpha: DifferentialForm) -> DifferentialForm:
    """Action on a 1-form: the new coefficient at b is sum_c J^c_b alpha_c."""
    _require_same_chart(Jd, alpha)
    if alpha.degree != 1:
        raise DegreeError("dual structure acts on 1-forms only")
    terms = []
    for (c,), coefficient in alpha.coefficients.items():
        for b in range(Jd.chart.dim):
            entry = Jd.entries[c][b]
            if is_zero(entry):
                continue
            terms.append(((b,), entry * coefficient))
    return make_form(alpha.chart, 1, terms)


class SampleRecord:
    """Values at a list of points, each evaluated once, stacked over the points.

    metric is g there, (S, dim, dim), and structure(J) a product structure,
    one stack per J; curvature keeps g's inverse and lowered symbols here.
    """

    def __init__(self, points: list, g: Optional[Metric] = None):
        self.points, self.g = points, g
        self._structures = {}

    @cached_property
    def metric(self) -> np.ndarray:
        return self.g.stack(self.points)

    def structure(self, J: ProductStructure) -> np.ndarray:
        if id(J) not in self._structures:   # J is kept with its stack, so its id stays its own
            self._structures[id(J)] = J, J.stack(self.points)
        return self._structures[id(J)][1]


def sample_record(g: Metric, trials: int, seed: int) -> SampleRecord:
    """The record at g.chart.sample_points(max(1, trials), seed), kept on g.

    The checks of g at those points share one evaluation of g, J, g^-1
    and the connection.
    """
    records = vars(g).setdefault("_records", {})
    key = (max(1, trials), seed)
    if key not in records:
        records[key] = SampleRecord(g.chart.sample_points(*key), g)
    return records[key]


def compatibility_violation(g: Metric, J: ProductStructure, trials: int,
                            seed: int) -> float:
    """Max entry of |J^T g + g J| over seeded sample points.

    J^T g + g J is the matrix of (X, Y) -> g(JX, Y) + g(X, JY), so this is
    zero exactly where J is g-compatible.
    """
    import numpy as np
    _require_same_chart(g, J)
    record = sample_record(g, trials, seed)
    G, Jm = record.metric, record.structure(J)
    return float(np.max(np.abs(Jm.transpose(0, 2, 1) @ G + G @ Jm)))


def compatibility_check(g: Metric, J: ProductStructure, trials: int = 20,
                        seed: int = 0) -> bool:
    """Whether g(JX, Y) + g(X, JY) vanishes to COMPAT_TOL at sample points."""
    return compatibility_violation(g, J, trials, seed) < COMPAT_TOL


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _coefficient_text(e: Expression) -> str:
    from .expr import Sum as _Sum
    text = to_source(e)
    return f"({text})" if isinstance(e, _Sum) else text


def basis_text(chart: Chart, indices) -> str:
    return "^".join(chart.differential_name(a) for a in indices)


def form_to_text(w: DifferentialForm) -> str:
    """Render as 'c · dx1^dy1 + ...'; unit coefficients are left implicit."""
    if w.is_zero():
        return "0"
    if w.degree == 0:
        return to_source(w.coefficients[()])
    rendered = ""
    for key, coefficient in w.terms():
        basis = basis_text(w.chart, key)
        text = _coefficient_text(coefficient)
        negated = text.startswith("-")
        if negated:
            text = _coefficient_text(simplify(Product((Const(-1.0), coefficient))))
        if isinstance(coefficient, Const) and abs(coefficient.value) == 1.0:
            piece = basis
        else:
            piece = f"{text} · {basis}"
        if not rendered:
            rendered = ("-" if negated else "") + piece
        else:
            rendered += (" - " if negated else " + ") + piece
    return rendered
