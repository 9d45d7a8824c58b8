"""Levi-Civita connection, curvature, and the space-form comparison tensor.

Conventions: Gamma^a_{bc} = (1/2) g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc});
R^e_{abc} = d_a Gamma^e_{bc} - d_b Gamma^e_{ac} + Gamma^e_{ad} Gamma^d_{bc}
- Gamma^e_{bd} Gamma^d_{ac}, lowered in the last slot to R_{abcd}.  The
comparison tensor R0 is the constant-curvature model built from g and J;
a space form is a metric whose curvature is a constant multiple of R0.
Both are CurvatureTensors whose components with a < b and c < d give the
rest by sign, so the two antisymmetries hold exactly.  The curvature
stores those entries, each simplified once as it is built; R0 stores
none and evaluates its closed form from the numbers g and J at each
point.

Christoffel symbols and the curvature are evaluated numerically, at any
dimension, from one connection: the first derivatives of g, read from
g's table of partials (Metric.partial), give its lowered symbols.  The
curvature stores its part linear in the second derivatives of g, from
that table, symbolically and adds its part quadratic in the first
derivatives from those symbols; a constant metric gives exactly the zero
tensor.

The checks read one sample record of g (geometry.sample_record; g keeps
its latest).  record.of(x) is x.stack(record), computed once and kept
with x: g, J, the connection's pair (g^-1 from one batched inverse, the
lowered symbols) and R at the sample points, each compiled set run once
per point and stacked, so the numpy algebra runs once per stack;
at(point) is the one-point case of the same code.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Mapping, Optional

from .expr import (
    ZERO,
    Compiled,
    Const,
    EvaluationError,
    Expression,
    as_expression,
    differentiate,
    free_variables,
    is_zero,
    simplify,
)
from .geometry import (Chart, Metric, ProductStructure, SampleRecord, _at_point, _component,
                       _require_same_chart, _Sampled, _stack, sample_record)

SINGULARITY_PROBES = 5
SINGULARITY_TOL = 1e-12
PLANE_TOL = 1e-9
ISOTROPY_TOL = 1e-9
SPACE_FORM_TOL = 1e-6
ZERO_TENSOR_TOL = 1e-9


class SingularMetricError(Exception):
    """The metric matrix is numerically singular at every probe point."""


class DegeneratePlaneError(Exception):
    """The plane's induced Gram determinant is below threshold."""


class IsotropicVectorError(Exception):
    """g(u, u) vanishes, so the J-plane of u is inadmissible."""


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def _check_invertible(g: Metric):
    """Raise unless the metric is invertible at some probe point."""
    import numpy as np
    for point in g.chart.sample_points(SINGULARITY_PROBES, 20240501):
        with np.errstate(all="ignore"):   # an overflowing det is inf, so not singular
            det = np.linalg.det(g.at(point))
        if abs(det) > SINGULARITY_TOL:
            return
    raise SingularMetricError("metric is singular at every probe point")


@dataclass(frozen=True)
class ChristoffelSymbols:
    """Levi-Civita connection of a metric, evaluated on sample records at any dimension.

    stack(record) is the pair (g^{-1}, G_{d,bc}) at the points of a
    SampleRecord, the lowered symbols G from the compiled first
    derivatives of the metric (Metric.partial).  coefficients(pair) gives
    Gamma^a_{bc} = g^{ad} G_{d,bc}, symmetric in the lower pair, and
    at(point) gives them at one point.
    """

    chart: Chart
    metric: Metric

    def is_zero(self) -> bool:
        return all(is_zero(self.metric.partial((a,), b, c))
                   for a, b, c in itertools.product(range(self.chart.dim), repeat=3) if b <= c)

    @cached_property
    def _compiled(self) -> Compiled:
        triples = list(itertools.product(range(self.chart.dim), repeat=3))
        return Compiled((self.metric.partial((a,), b, c) for a, b, c in triples),
                        labels=[f"d_{self.chart.names()[a]} {_component('g', b, c)}"
                                for a, b, c in triples])

    def stack(self, record: SampleRecord) -> tuple:
        """(g^{-1}, G_{d,bc}) at the record's points, g^{-1} from one batched inverse.

        G_{d,bc} = (1/2)(d_b g_{dc} + d_c g_{bd} - d_d g_{bc}).  The first
        point where |det g| <= SINGULARITY_TOL raises SingularMetricError,
        unless d g fails at an earlier one, as evaluating point by point
        would.
        """
        import numpy as np
        G, dim = record.of(self.metric), self.chart.dim
        with np.errstate(all="ignore"):   # an overflowing det is inf, so not singular
            det = np.abs(np.linalg.det(G))
        first = next((s for s, d in enumerate(det) if d <= SINGULARITY_TOL), len(G))
        values = _stack(self._compiled, record.points[:first], dim, dim, dim)   # d_a g_{bc}
        if first < len(G):
            raise SingularMetricError(f"metric singular: |det g| = {det[first]:.3e} <= "
                                      f"{SINGULARITY_TOL:g} {_at_point(record.points[first])}")
        return np.linalg.inv(G), 0.5 * (values.transpose(0, 2, 1, 3)
                                        + values.transpose(0, 3, 2, 1) - values)

    @staticmethod
    def coefficients(pair: tuple) -> np.ndarray:
        """Gamma^a_{bc} from a stack (g^{-1}, G), (S, dim, dim, dim)."""
        import numpy as np
        return np.einsum('sad,sdbc->sabc', *pair)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        return self.coefficients(self.stack(SampleRecord([point])))[0]


def christoffel(g: Metric) -> ChristoffelSymbols:
    """Levi-Civita connection coefficients of g, evaluated per point.

    One connection per metric, kept on g as its table of partials is, so
    g's invertibility is probed and its first derivatives compiled once.
    """
    kept = vars(g)
    if "connection" not in kept:
        _check_invertible(g)
        kept["connection"] = ChristoffelSymbols(g.chart, g)
    return kept["connection"]


# ---------------------------------------------------------------------------
# curvature tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureTensor(_Sampled):
    """(0,4)-tensor R_{abcd} in canonical storage.

    canonical maps keys (a, b, c, d) with a < b and c < d to simplified,
    nonzero entries.  When connection is set, they are only the linear
    part: stack() adds to each key g^{ef} (G_{e,bd} G_{f,ac} - G_{e,ad}
    G_{f,bc}) from the connection's lowered symbols G and inverse of g.
    Every other component follows from the two antisymmetries by sign, so
    they hold exactly.
    """

    chart: Chart
    canonical: dict
    connection: Optional[ChristoffelSymbols] = None

    @staticmethod
    def zero(chart: Chart) -> "CurvatureTensor":
        return CurvatureTensor(chart, {})

    def is_zero(self) -> bool:
        """Whether the tensor is zero by construction."""
        return not self.canonical and self.connection is None

    @property
    def metric(self) -> Optional[Metric]:
        """The metric whose sample records stack reads, if any."""
        return None if self.connection is None else self.connection.metric

    @cached_property
    def _compiled(self) -> Compiled:
        return Compiled(self.canonical.values(),
                        labels=[_component("R", *key) for key in self.canonical])

    @cached_property
    def _keys(self) -> np.ndarray:
        import numpy as np
        upper = ~np.tri(self.chart.dim, dtype=bool)
        return np.multiply.outer(upper, upper)   # True where a < b and c < d

    @staticmethod
    def _by_sign(out: np.ndarray) -> np.ndarray:
        """The components from those at the keys, every other one zero, by the antisymmetries."""
        out = out - out.swapaxes(-4, -3)
        return out - out.swapaxes(-2, -1)

    def stack(self, record: SampleRecord) -> np.ndarray:
        """Dense numeric components at the record's points, (S, dim, dim, dim, dim)."""
        import numpy as np
        dim, count = self.chart.dim, len(record.points)
        out = np.zeros((count,) + (dim,) * 4)
        keys = np.array(list(self.canonical), dtype=int).reshape(-1, 4).T
        out[(slice(None), *keys)] = _stack(self._compiled, record.points, len(self.canonical))
        if self.connection is not None:
            inverse, low = record.of(self.connection)
            low = low.reshape(count, dim, dim * dim)
            # P[s, a, b, c, d] = g^{ef} G_{e,bd} G_{f,ac}, from the matrices [(a, c), (b, d)]
            P = (low.transpose(0, 2, 1) @ (inverse @ low)).reshape(out.shape)
            P = P.transpose(0, 1, 3, 2, 4)
            out = np.where(self._keys, out + (P - P.swapaxes(1, 2)), 0.0)
        return self._by_sign(out)

    def apply(self, u, v, z, w, point: Mapping[str, float]) -> float:
        import numpy as np
        return float(np.einsum('abcd,a,b,c,d->', self.at(point),
                               np.asarray(u, float), np.asarray(v, float),
                               np.asarray(z, float), np.asarray(w, float)))


def riemann(g: Metric) -> CurvatureTensor:
    """Riemann (0,4) curvature of g in canonical storage, evaluated per point.

    With R^e_{abc} = d_a Gamma^e_{bc} - d_b Gamma^e_{ac} + Gamma^e_{ad}
    Gamma^d_{bc} - Gamma^e_{bd} Gamma^d_{ac} lowered in the last slot,
    R_{abcd} = (1/2)(d_a d_c g_{bd} + d_b d_d g_{ac} - d_a d_d g_{bc}
    - d_b d_c g_{ad}) + sum_{ef} g^{ef} (G_{e,bd} G_{f,ac} - G_{e,ad} G_{f,bc}),
    where G_{d,bc} are the lowered symbols of christoffel(g).  The linear
    part, read from g.partial, is stored simplified; CurvatureTensor.stack
    adds the quadratic part from that connection, at any dimension.  A
    constant metric gives the zero tensor.
    """
    chart = g.chart
    dim = chart.dim
    connection = christoffel(g)
    if connection.is_zero():
        return CurvatureTensor.zero(chart)
    entries = {}
    for a, b in itertools.combinations(range(dim), 2):
        for c, d in itertools.combinations(range(dim), 2):
            value = simplify(Const(0.5) * (g.partial((a, c), b, d) + g.partial((b, d), a, c)
                                           - g.partial((a, d), b, c) - g.partial((b, c), a, d)))
            if not is_zero(value):
                entries[(a, b, c, d)] = value
    return CurvatureTensor(chart, entries, connection)


@dataclass(frozen=True)
class ComparisonTensor(CurvatureTensor):
    """The comparison tensor R0 of g and J, in closed form at each point.

    It stores no entries: stack(record) evaluates the formula of r_zero
    from the stacks of g and J on a SampleRecord of g, keeps the
    components with a < b and c < d and gives the rest by sign, as
    CurvatureTensor.stack does.  A component that is not finite raises
    EvaluationError naming R0, the component and the first point with one.
    """

    metric: Optional[Metric] = None
    structure: Optional[ProductStructure] = None

    def is_zero(self) -> bool:
        return False

    def stack(self, record: SampleRecord) -> np.ndarray:
        import numpy as np
        gm = record.of(self.metric)
        with np.errstate(all="ignore"):   # the kept components are checked below
            gj = gm @ record.of(self.structure)
            # gg[s, a, c, b, d] = g_ac g_bd: at [s, a, b, c, d] its transpose by (0, 1, 3, 2, 4)
            # holds g_ac g_bd and by (0, 1, 3, 4, 2) g_ad g_bc; jj likewise for gJ
            gg, jj = (m[:, :, :, None, None] * m[:, None, None] for m in (gm, gj))
            out = 0.25 * (gg.transpose(0, 1, 3, 2, 4) - gg.transpose(0, 1, 3, 4, 2)
                          - jj.transpose(0, 1, 3, 2, 4) + jj.transpose(0, 1, 3, 4, 2) - 2.0 * jj)
        out = np.where(self._keys, out, 0.0)
        if not np.isfinite(out).all():
            s, *key = (int(i) for i in np.argwhere(~np.isfinite(out))[0])
            raise EvaluationError(f"{_component('R0', *key)}: non-finite value"
                                  f" {out[(s, *key)]} {_at_point(record.points[s])}")
        return self._by_sign(out)


def r_zero(g: Metric, J: ProductStructure) -> CurvatureTensor:
    """Comparison tensor of constant paraholomorphic sectional curvature.

    On basis vectors: (1/4) { g_ac g_bd - g_ad g_bc - (gJ)_ac (gJ)_bd
    + (gJ)_ad (gJ)_bc - 2 (gJ)_ab (gJ)_cd } with (gJ)_ab = g(e_a, J e_b),
    the model tensor of para-Kahler space forms (Cruceanu, Fortuny and
    Gadea, A survey on paracomplex geometry, Rocky Mountain J. Math. 26,
    1996).  It is plain algebra in the values of g and J at a point, so
    nothing is derived, simplified or compiled: see ComparisonTensor.
    """
    _require_same_chart(g, J)
    return ComparisonTensor(g.chart, {}, metric=g, structure=J)


# ---------------------------------------------------------------------------
# symmetry diagnostics
# ---------------------------------------------------------------------------

def _record(R, trials: int, seed: int) -> SampleRecord:
    """sample_record of the metric R reads, or, if it reads none, a record of R's own."""
    g = getattr(R, "metric", None)
    return (SampleRecord(R.chart.sample_points(max(1, trials), seed)) if g is None
            else sample_record(g, trials, seed))


def _scale(D: np.ndarray) -> np.ndarray:
    """max(1, max |R|) per sample of D[sample, a, b, c, d]: near a pole of g, |R| grows."""
    import numpy as np
    return np.maximum(1.0, np.abs(D).reshape(len(D), -1).max(axis=1))


@dataclass(frozen=True)
class SymmetryReport:
    """Max violations of the curvature identities over sampled points.

    The four named fields are max absolute violations, evaluated
    componentwise on coordinate quadruples; multilinearity extends the
    bound to arbitrary constant arguments from the unit box.  relative
    holds, in that order, the largest violation / _scale of R at its
    sample, which the verdicts read.  The J-invariance row is meaningful
    only for para-Kahler data.
    """

    antisymmetry_first_pair: float
    antisymmetry_second_pair: float
    first_bianchi: float
    j_invariance: float
    relative: tuple

    def as_dict(self) -> dict:
        """The absolute violations by identity name."""
        return {k: v for k, v in asdict(self).items() if k != "relative"}


def symmetry_report(R: CurvatureTensor, J: ProductStructure, trials: int = 10,
                    seed: int = 0) -> SymmetryReport:
    """Evaluate the curvature identities at sampled points.

    Checks both antisymmetries, the first Bianchi identity (cyclic sum
    over the first three slots), and J-invariance in the corrected form
    R(JX, JY, Z, V) = -R(X, Y, Z, V) that the comparison tensor and every
    para-Kahler curvature satisfy.
    """
    import numpy as np
    _require_same_chart(R, J)
    record = _record(R, trials, seed)
    D, Jm = record.of(R), record.of(J)
    twisted = np.einsum('spa,sqb,spqcd->sabcd', Jm, Jm, D)
    excess = np.abs([D + D.transpose(0, 2, 1, 3, 4), D + D.transpose(0, 1, 2, 4, 3),
                     D + D.transpose(0, 2, 3, 1, 4) + D.transpose(0, 3, 1, 2, 4),
                     twisted + D]).reshape(4, len(D), -1).max(axis=2)   # [identity, sample]
    return SymmetryReport(*map(float, excess.max(axis=1)),
                          relative=tuple(map(float, (excess / _scale(D)).max(axis=1))))


def nabla_J(g: Metric, J: ProductStructure, trials: int = 10, seed: int = 0) -> float:
    """Max violation of parallelism of J under the Levi-Civita connection.

    Returns the largest |(nabla_a J)^b_c| over sampled points, where
    (nabla_a J)^b_c = d_a J^b_c + Gamma^b_{ad} J^d_c - Gamma^d_{ac} J^b_d.
    When no entry of J reads a coordinate, as for every J the CLI builds,
    d_a J is zero and is neither derived nor compiled; leaving out its
    zeros can flip only the sign of a zero, which |.| does not see.  If
    the connection is zero by construction too, every term is an exact
    zero, so the exact 0.0 is returned without sampling.
    """
    import numpy as np
    _require_same_chart(g, J)
    chart = g.chart
    dim = chart.dim
    gamma = christoffel(g)
    reads = any(free_variables(e) for row in J.entries for e in row)
    if gamma.is_zero() and not reads:   # every term is an exact zero
        return 0.0
    record = sample_record(g, trials, seed)
    G, Jm = gamma.coefficients(record.of(gamma)), record.of(J)
    term2 = np.einsum('sbad,sdc->sabc', G, Jm)
    if reads:
        triples = list(itertools.product(range(dim), repeat=3))
        names = chart.names()
        dJ = Compiled((differentiate(J.entries[b][c], chart.variable(a)) for a, b, c in triples),
                      names, [f"d_{names[a]} {_component('J', b, c)}" for a, b, c in triples])
        term2 = _stack(dJ, record.points, dim, dim, dim) + term2
    term3 = np.einsum('sdac,sbd->sabc', G, Jm)
    return float(np.max(np.abs(term2 - term3)))


# ---------------------------------------------------------------------------
# sectional curvature and the space-form test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionalPlane:
    """A 2-plane span{u, v} in the tangent space at a base point."""

    point: Mapping[str, float]
    u: tuple
    v: tuple

    def vectors(self):
        import numpy as np
        return np.asarray(self.u, float), np.asarray(self.v, float)


def sectional_curvature(R: CurvatureTensor, g: Metric, plane: SectionalPlane) -> float:
    """k = R(u,v,u,v) / (g(u,u) g(v,v) - g(u,v)^2) at the base point."""
    u, v = plane.vectors()
    gm = g.at(plane.point)
    guu = float(u @ gm @ u)
    gvv = float(v @ gm @ v)
    guv = float(u @ gm @ v)
    denominator = guu * gvv - guv * guv
    if abs(denominator) <= PLANE_TOL:
        raise DegeneratePlaneError(
            f"plane Gram determinant {denominator:.3e} below threshold")
    numerator = R.apply(u, v, u, v, plane.point)
    return numerator / denominator


def j_sectional_curvature(R: CurvatureTensor, g: Metric, J: ProductStructure,
                          u, point: Mapping[str, float]) -> float:
    """Sectional curvature of the J-plane span{u, Ju} for non-isotropic u."""
    import numpy as np
    u = np.asarray(u, float)
    gm = g.at(point)
    if abs(float(u @ gm @ u)) <= ISOTROPY_TOL:
        raise IsotropicVectorError("g(u, u) = 0: the J-plane of u is inadmissible")
    ju = J.at(point) @ u
    return sectional_curvature(R, g, SectionalPlane(point, tuple(u), tuple(ju)))


def constant_c_test(R: CurvatureTensor, R0: CurvatureTensor, trials: int = 10,
                    seed: int = 0) -> Optional[float]:
    """Least-squares fit of R = c * R0 over all components at sampled points.

    Each sample's components of R and R0 are divided by _scale of R
    there, the basis symmetry_report decides on.  Returns the fitted c
    when the max residual on that basis stays below SPACE_FORM_TOL, the
    exact 0.0 when R itself vanishes numerically, and None otherwise
    ("not a space form").
    """
    import numpy as np
    _require_same_chart(R, R0)
    D = _record(R, trials, seed).of(R)
    scale = _scale(D)[:, None]
    A = (D.reshape(len(D), -1) / scale).ravel()
    if float(np.max(np.abs(A))) < ZERO_TENSOR_TOL:   # decided before R0 is evaluated
        return 0.0
    B = (R0.stack(_record(R0, trials, seed)).reshape(len(D), -1) / scale).ravel()
    denom = float(B @ B)
    if denom == 0.0:
        return None
    c = float(A @ B) / denom
    residual = float(np.max(np.abs(A - c * B)))
    return c if residual < SPACE_FORM_TOL else None


def metric_from_potential(phi: Expression, chart: Chart) -> Metric:
    """Neutral metric from a scalar potential.

    The x-y block is the mixed Hessian of phi and the diagonal blocks are
    zero, so the model product structure stays skew-compatible; whether
    the result is para-Kahler is a property to verify (via nabla_J), not
    an assumption.  The potential x1*y1 reproduces the flat model.  The
    metric keeps phi's table, from which Metric.partial reads.
    """
    K, n, dim = chart.partials(as_expression(phi)), chart.n, chart.dim
    return Metric(chart, tuple(tuple(K(a, b) if min(a, b) < n <= max(a, b) else ZERO
                                     for b in range(dim)) for a in range(dim)), K)
