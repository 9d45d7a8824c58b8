"""Shared generators and finite-difference oracles for the test suite."""

import itertools
import random

import numpy as np

from parakahler.curvature import CurvatureTensor
from parakahler.expr import (
    ZERO,
    Const,
    Product,
    Sum,
    Var,
    differentiate,
    equal_on_samples,
    is_zero,
    simplify,
)
from parakahler.geometry import Chart, DifferentialForm
from parakahler.linalg import determinant


def random_point(rng: random.Random, chart: Chart, box: float = 2.0) -> dict:
    return chart.sample_point(rng, box=box)


def random_polynomial(rng: random.Random, chart: Chart, max_degree: int = 3,
                      terms: int = 4, coeff_box: float = 2.0,
                      variables=None):
    """Random polynomial with bounded degree over the chart coordinates."""
    if variables is None:
        variables = chart.variables()
    parts = []
    for _ in range(rng.randint(1, terms)):
        coeff = rng.uniform(-coeff_box, coeff_box)
        factors = [Const(coeff)]
        for _ in range(rng.randint(0, max_degree)):
            factors.append(rng.choice(variables))
        parts.append(Product(tuple(factors)) if len(factors) > 1 else factors[0])
    return simplify(Sum(tuple(parts)))


def random_regular_lagrangian(rng: random.Random, chart: Chart):
    """Random degree <= 3 Lagrangian with a globally invertible Hessian.

    The bilinear core sum(c_i x_i y_i) fixes the mixed Hessian block; the
    polynomial noise depends on one eigencoordinate family only, so the
    Hessian determinant stays the constant prod(c_i)^2 everywhere.
    """
    n = chart.n
    core = []
    for i in range(n):
        c = rng.uniform(0.8, 1.6) * rng.choice([-1.0, 1.0])
        core.append(Product((Const(c), Var("x", i + 1), Var("y", i + 1))))
    kind = rng.choice(["x", "y", "none"])
    if kind == "none":
        return simplify(Sum(tuple(core)))
    family = tuple(Var(kind, i + 1) for i in range(n))
    noise = random_polynomial(rng, chart, max_degree=3, terms=3,
                              coeff_box=0.05, variables=family)
    return simplify(Sum((*core, noise)))


def forms_equal_on_samples(a: DifferentialForm, b: DifferentialForm,
                           trials: int = 20, seed: int = 0) -> bool:
    """Coefficientwise sampling equality of two forms of equal degree on one chart."""
    assert a.chart == b.chart
    if a.degree != b.degree:
        return False
    keys = set(a.coefficients) | set(b.coefficients)
    return all(equal_on_samples(a.coefficient(key), b.coefficient(key),
                                trials=trials, seed=seed)
               for key in sorted(keys))


def symbolic_r_zero(g, J) -> CurvatureTensor:
    """The comparison tensor R0 of g and J with every entry symbolic: an oracle for r_zero.

    (1/4) { g_ac g_bd - g_ad g_bc - (gJ)_ac (gJ)_bd + (gJ)_ad (gJ)_bc
    - 2 (gJ)_ab (gJ)_cd } built from the expressions of g and J, each
    stored entry simplified once.
    """
    chart = g.chart
    dim = chart.dim
    gj = [[simplify(sum((g.entries[a][e] * J.entries[e][b] for e in range(dim)),
                        start=ZERO)) for b in range(dim)] for a in range(dim)]
    gm = g.entries

    entries = {}
    for a, b in itertools.combinations(range(dim), 2):
        for c, d in itertools.combinations(range(dim), 2):
            bracket = (gm[a][c] * gm[b][d] - gm[a][d] * gm[b][c]
                       - gj[a][c] * gj[b][d] + gj[a][d] * gj[b][c]
                       - Const(2.0) * gj[a][b] * gj[c][d])
            value = simplify(Const(0.25) * bracket)
            if not is_zero(value):
                entries[(a, b, c, d)] = value
    return CurvatureTensor(chart, entries)


def scaled(R: CurvatureTensor, factor: float) -> CurvatureTensor:
    """factor * R for a tensor whose entries are all symbolic, such as symbolic_r_zero's."""
    assert R.connection is None
    entries = {}
    for key, value in R.canonical.items():
        value = simplify(Const(factor) * value)
        if not is_zero(value):
            entries[key] = value
    return CurvatureTensor(R.chart, entries)


def reference_elimination(a, b):
    """linalg.elimination_function's algorithm as loops over lists: the oracle for its bits.

    max returns the first row of largest |entry|, LAPACK's tie rule.
    """
    n = len(b)
    a, b = [row[:] for row in a], b[:]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        inverse = 1.0 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inverse
            if f:
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - f * a[k][j]
                b[i] = b[i] - f * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = b[k]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return x


def fd_christoffel(g, point: dict, h: float = 1e-6) -> np.ndarray:
    """Central-difference Christoffel symbols, Gamma[a, b, c] = Gamma^a_bc."""
    chart = g.chart
    dim = chart.dim
    names = chart.names()
    dg = np.empty((dim, dim, dim))
    for a in range(dim):
        plus = dict(point)
        minus = dict(point)
        plus[names[a]] += h
        minus[names[a]] -= h
        dg[a] = (g.at(plus) - g.at(minus)) / (2.0 * h)
    inv = np.linalg.inv(g.at(point))
    gamma = np.empty((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                acc = 0.0
                for d in range(dim):
                    acc += inv[a, d] * (dg[b][d, c] + dg[c][b, d] - dg[d][b, c])
                gamma[a, b, c] = 0.5 * acc
    return gamma


def fd_riemann_lowered(g, gamma, point: dict, h: float = 1e-5) -> np.ndarray:
    """Finite-difference lowered curvature R[a, b, c, d] = R(e_a, e_b, e_c, e_d).

    Differentiates the exact symbolic Christoffel evaluation; only the
    outer derivative is approximate.
    """
    chart = g.chart
    dim = chart.dim
    names = chart.names()
    dgamma = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        plus = dict(point)
        minus = dict(point)
        plus[names[a]] += h
        minus[names[a]] -= h
        dgamma[a] = (gamma.at(plus) - gamma.at(minus)) / (2.0 * h)
    gm = gamma.at(point)
    upper = (np.einsum("aebc->eabc", dgamma)
             - np.einsum("beac->eabc", dgamma)
             + np.einsum("ead,dbc->eabc", gm, gm)
             - np.einsum("ebd,dac->eabc", gm, gm))
    return np.einsum("eabc,ed->abcd", upper, g.at(point))


def symbolic_riemann(g) -> CurvatureTensor:
    """The Riemann tensor of g in closed form, every entry symbolic: an oracle for 2n <= 4.

    R_{abcd} = (1/2)(d_a d_c g_{bd} + d_b d_d g_{ac} - d_a d_d g_{bc}
    - d_b d_c g_{ad}) + sum_{ef} g^{ef} (G_{e,bd} G_{f,ac} - G_{e,ad} G_{f,bc})
    with g^{ef} = adj(g)_{ef} / det g, the adjugate built from 1x1 to 3x3
    minors, so the metric must be at most 4x4.
    """
    chart = g.chart
    dim = chart.dim
    m = g.entries
    det = determinant(m)

    def cofactor(i, j):
        minor = [[m[r][c] for c in range(dim) if c != j] for r in range(dim) if r != i]
        value = determinant(minor)
        return value if (i + j) % 2 == 0 else simplify(-value)

    adj = [[cofactor(j, i) for j in range(dim)] for i in range(dim)]
    dg = g.derivatives
    low = [[[simplify(Const(0.5) * (dg[b][d][c] + dg[c][b][d] - dg[d][b][c]))
             for c in range(dim)] for b in range(dim)] for d in range(dim)]

    def second(a, c, b, d):
        return differentiate(dg[a][b][d], chart.variable(c))

    entries = {}
    for a, b in itertools.combinations(range(dim), 2):
        for c, d in itertools.combinations(range(dim), 2):
            quadratic = ZERO
            for e, f in itertools.product(range(dim), repeat=2):
                if not is_zero(adj[e][f]):
                    quadratic = quadratic + adj[e][f] * (
                        low[e][b][d] * low[f][a][c] - low[e][a][d] * low[f][b][c])
            value = simplify(Const(0.5) * (second(a, c, b, d) + second(b, d, a, c)
                                           - second(a, d, b, c) - second(b, c, a, d))
                             + quadratic / det)
            if not is_zero(value):
                entries[(a, b, c, d)] = value
    return CurvatureTensor(chart, entries)
