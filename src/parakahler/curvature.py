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

Christoffel symbols and the curvature are evaluated per point with a
numeric inverse of g, at any dimension, from one connection: the first
derivatives of g, derived once per metric, give its lowered symbols at
a point.  The curvature stores its part linear in the second
derivatives of g symbolically and adds its part quadratic in the first
derivatives from those symbols at each point; a constant metric gives
exactly the zero tensor.
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
from .geometry import (Chart, Metric, ProductStructure, _at_point, _component,
                       _require_same_chart, _values_at)

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


def _inverse_at(g: Metric, point: Mapping[str, float]) -> np.ndarray:
    """Numeric inverse of g at a point, unless |det g| <= SINGULARITY_TOL there."""
    import numpy as np
    gm = g.at(point)
    with np.errstate(all="ignore"):   # an overflowing det is inf, so not singular
        det = np.linalg.det(gm)
    if abs(det) <= SINGULARITY_TOL:
        raise SingularMetricError(f"metric singular at {point}")
    return np.linalg.inv(gm)


@dataclass(frozen=True)
class ChristoffelSymbols:
    """Levi-Civita connection of a metric, evaluated per point at any dimension.

    lowered(point) gives the lowered symbols G_{d,bc} from the compiled
    first derivatives of the metric (Metric.derivatives), and at(point)
    the coefficients Gamma^a_{bc} = g^{ad} G_{d,bc}, with a numeric
    inverse of g; both are symmetric in the lower pair.
    """

    chart: Chart
    metric: Metric

    def is_zero(self) -> bool:
        return all(is_zero(e) for plane in self.metric.derivatives for row in plane for e in row)

    @cached_property
    def _compiled(self) -> Compiled:
        dim = self.chart.dim
        return Compiled((e for plane in self.metric.derivatives for row in plane for e in row),
                        labels=[f"d_{name} {_component('g', b, c)}" for name in self.chart.names()
                                for b in range(dim) for c in range(dim)])

    def lowered(self, point: Mapping[str, float]) -> np.ndarray:
        """Numeric G_{d,bc} = (1/2)(d_b g_{dc} + d_c g_{bd} - d_d g_{bc}) array at a point."""
        import numpy as np
        dim = self.chart.dim
        # values[a, b, c] = d_a g_{bc}
        values = np.array(_values_at(self._compiled, point)).reshape(dim, dim, dim)
        return 0.5 * (np.einsum('bdc->dbc', values) + np.einsum('cbd->dbc', values) - values)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        """Numeric Gamma^a_{bc} array at a point."""
        import numpy as np
        return np.einsum('ad,dbc->abc', _inverse_at(self.metric, point), self.lowered(point))


def christoffel(g: Metric) -> ChristoffelSymbols:
    """Levi-Civita connection coefficients of g, evaluated per point.

    One connection per metric, kept on g as Metric.derivatives is, so g's
    invertibility is probed and its first derivatives compiled once.
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
class CurvatureTensor:
    """(0,4)-tensor R_{abcd} in canonical storage.

    canonical maps keys (a, b, c, d) with a < b and c < d to simplified,
    nonzero entries.  When connection is set, they are only the linear
    part: at() adds to each key g^{ef} (G_{e,bd} G_{f,ac} - G_{e,ad}
    G_{f,bc}) from the connection's lowered symbols G and a numeric
    inverse of g.  Every other component follows from the two
    antisymmetries by sign, so they hold exactly.
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
        out = out - out.transpose(1, 0, 2, 3)
        return out - out.transpose(0, 1, 3, 2)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        """Dense numeric component array at a point."""
        import numpy as np
        dim = self.chart.dim
        out = np.zeros((dim, dim, dim, dim))
        for (a, b, c, d), v in zip(self.canonical, _values_at(self._compiled, point)):
            out[a, b, c, d] = v
        if self.connection is not None:
            low = self.connection.lowered(point).reshape(dim, dim * dim)
            inverse = _inverse_at(self.connection.metric, point)
            # P[a, b, c, d] = g^{ef} G_{e,bd} G_{f,ac}, from the matrix [(a, c), (b, d)]
            P = (low.T @ (inverse @ low)).reshape((dim,) * 4).transpose(0, 2, 1, 3)
            out = np.where(self._keys, out + (P - P.transpose(1, 0, 2, 3)), 0.0)
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
    part is stored, simplified; CurvatureTensor.at adds the quadratic
    part from that connection, at any dimension.  A constant metric
    gives the zero tensor.
    """
    chart = g.chart
    dim = chart.dim
    connection = christoffel(g)
    if connection.is_zero():
        return CurvatureTensor.zero(chart)
    dg = g.derivatives
    cache: dict = {}

    def second(a, c, b, d):
        # d_a d_c g_{bd}, symmetric in (a, c) and in (b, d)
        (a, c), (b, d) = sorted((a, c)), sorted((b, d))
        if (a, c, b, d) not in cache:
            cache[a, c, b, d] = differentiate(dg[a][b][d], chart.variable(c))
        return cache[a, c, b, d]

    entries = {}
    for a, b in itertools.combinations(range(dim), 2):
        for c, d in itertools.combinations(range(dim), 2):
            value = simplify(Const(0.5) * (second(a, c, b, d) + second(b, d, a, c)
                                           - second(a, d, b, c) - second(b, c, a, d)))
            if not is_zero(value):
                entries[(a, b, c, d)] = value
    return CurvatureTensor(chart, entries, connection)


@dataclass(frozen=True)
class ComparisonTensor(CurvatureTensor):
    """The comparison tensor R0 of g and J, in closed form at each point.

    It stores no entries: at(point) evaluates the formula of r_zero from
    g.at(point) and J.at(point), keeps the components with a < b and
    c < d and gives the rest by sign, as CurvatureTensor.at does.  A
    component that is not finite raises EvaluationError naming R0, the
    component and the point.
    """

    metric: Optional[Metric] = None
    structure: Optional[ProductStructure] = None

    def is_zero(self) -> bool:
        return False

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        import numpy as np
        gm = self.metric.at(point)
        with np.errstate(all="ignore"):   # the kept components are checked below
            gj = gm @ self.structure.at(point)
            # gg[a, c, b, d] = g_ac g_bd: at [a, b, c, d] its transpose by (0, 2, 1, 3)
            # holds g_ac g_bd and by (0, 2, 3, 1) g_ad g_bc; jj likewise for gJ
            gg, jj = np.multiply.outer(gm, gm), np.multiply.outer(gj, gj)
            out = 0.25 * (gg.transpose(0, 2, 1, 3) - gg.transpose(0, 2, 3, 1)
                          - jj.transpose(0, 2, 1, 3) + jj.transpose(0, 2, 3, 1) - 2.0 * jj)
        out = np.where(self._keys, out, 0.0)
        if not np.isfinite(out).all():
            key = tuple(int(i) for i in np.argwhere(~np.isfinite(out))[0])
            raise EvaluationError(
                f"{_component('R0', *key)}: non-finite value {out[key]} {_at_point(point)}")
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

def _sampled(R, trials: int, seed: int) -> tuple:
    """R.chart.sample_points(max(1, trials), seed), and R.at there as one array.

    Evaluated once per (tensor, trials, seed) and kept on the tensor, so
    symmetry_report and constant_c_test on one R share the evaluations.
    R is anything with a chart and at(point).
    """
    import numpy as np
    samples = vars(R).setdefault("_samples", {})
    key = (max(1, trials), seed)
    if key not in samples:
        points = R.chart.sample_points(key[0], seed)
        samples[key] = points, np.array([R.at(point) for point in points])
    return samples[key]


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
    points, D = _sampled(R, trials, seed)
    Jm = np.array([J.at(point) for point in points])
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
    dJ = None
    if reads:
        dJ = Compiled(differentiate(J.entries[b][c], chart.variable(a))
                      for a in range(dim) for b in range(dim) for c in range(dim))
    worst = 0.0
    for point in chart.sample_points(max(1, trials), seed):
        G = gamma.at(point)
        Jm = J.at(point)
        term2 = np.einsum('bad,dc->abc', G, Jm)
        if dJ is not None:
            term2 = np.array(dJ.at(point)).reshape(dim, dim, dim) + term2
        term3 = np.einsum('dac,bd->abc', G, Jm)
        worst = max(worst, float(np.max(np.abs(term2 - term3))))
    return worst


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
    points, D = _sampled(R, trials, seed)
    scale = _scale(D)[:, None]
    A = (D.reshape(len(D), -1) / scale).ravel()
    if float(np.max(np.abs(A))) < ZERO_TENSOR_TOL:   # decided before R0 is evaluated
        return 0.0
    B = (np.array([R0.at(point) for point in points]).reshape(len(D), -1) / scale).ravel()
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
    an assumption.  The potential x1*y1 reproduces the flat model.
    """
    phi = as_expression(phi)
    n, dim = chart.n, chart.dim
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(n):
        dphi = differentiate(phi, chart.variable(i))
        for j in range(n):
            h = differentiate(dphi, chart.variable(n + j))
            rows[i][n + j] = h
            rows[n + j][i] = h
    return Metric.from_rows(chart, rows)
