"""The pointwise E_L conservation verdict against the symbolic derivative of E_L.

`reference_rate` below is the construction the verdict replaced:
differentiate the simplified E_L along each coordinate, contract with the
solved semispray xi, simplify, and decide with equal_on_samples.
`energy_is_conserved` must reach the same verdict, and `L.energy_rate`
the same value of xi(E_L) within 1e-9 * (1 + |v|) at each point the
verdict draws, on every bundled Lagrangian with 2n <= 4, on the sources
the benchmark draws, on hand-written L and on hypothesis-drawn
polynomial L at n = 1 and 2.  Beyond 2n = 4 there is no symbolic xi, so
at n = 3 the value is checked against central differences of E_L,
computed per point from a numpy solve, along xi.
"""

import glob
import json
import math
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from parakahler.expr import (
    MAX_RESAMPLES,
    SAMPLE_BOX,
    ZERO,
    Compiled,
    EvaluationError,
    SamplingError,
    differentiate,
    equal_on_samples,
    simplify,
)
from parakahler.geometry import Chart
from parakahler.lagrange import (
    DegenerateLagrangianError,
    LagrangianSystem,
    energy,
    energy_is_conserved,
    euler_lagrange_system,
)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  the benchmark's source generators

TRIALS = 40
VALUE_TOL = 1e-9

HAND_WRITTEN = [
    (1, "x1*y1"),
    (1, "0.5*x1^2*y1^2"),
    (1, "0.5*(x1^2 + y1^2)"),
    (1, "exp(x1)*y1 + 0.1*y1^3"),
    (1, "x1*y1 + sin(x1)*y1^2"),
    (2, "x1*y1 + 2*x2*y2 + 0.1*x1^3 + 0.2*x1*x2^2"),
    (2, "x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2"),
    (2, "x1*y1 + x2*y2 + 0.3*x1*y2 - 0.1*(x1*y1)^2"),
]


def reference_rate(L, xi):
    """xi(E_L) as the symbolic derivative of the simplified E_L."""
    e = energy(L, xi)
    derivative = ZERO
    for a in range(L.chart.dim):
        derivative = derivative + xi.components[a] * differentiate(e, L.chart.variable(a))
    return simplify(derivative)


def bundled_sources():
    """(n, L) of each bundled problem file of kind lagrangian with 2n <= 4."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))
                       + glob.glob(os.path.join(ROOT, "bench", "problems", "*.json"))):
        with open(path) as handle:
            problem = json.load(handle)
        if problem["kind"] == "lagrangian" and problem["n"] <= 2:
            found.append((problem["n"], problem["lagrangian"]))
    return found


def bench_sources(seeds=range(1, 6)):
    """(n, L) of every Lagrangian the benchmark's workloads generate for seeds."""
    found = []
    for seed in seeds:
        for build in workloads.WORKLOADS.values():
            found += [(spec["n"], spec["lagrangian"]) for spec in build(seed, ROOT).problems
                      if spec["kind"] == "lagrangian"]
    return found


def draws(dim, seed, trials=TRIALS):
    """The points energy_is_conserved draws first, as lists in chart order."""
    rng = random.Random(seed)
    return [[rng.uniform(-SAMPLE_BOX, SAMPLE_BOX) for _ in range(dim)] for _ in range(trials)]


def compare_with_reference(n, source, seeds=(0, 7)):
    """The verdict's and the reference's verdicts, which must agree; returns the verdicts."""
    chart = Chart(n)
    L = LagrangianSystem.from_source(source, chart)
    xi = euler_lagrange_system(L).semispray
    rate = reference_rate(L, xi)
    expected = Compiled([rate], chart.names())
    verdicts = []
    for seed in seeds:
        verdict = energy_is_conserved(L, xi, seed=seed)
        assert verdict == equal_on_samples(rate, ZERO, trials=TRIALS, seed=seed), (source, seed)
        verdicts.append(verdict)
        compared = 0
        for point in draws(chart.dim, seed):
            try:
                want = expected(point)[0]
                got = L.energy_rate(*point)
            except (ArithmeticError, ValueError, EvaluationError):
                continue
            assert abs(got - want) <= VALUE_TOL * (1.0 + abs(want)), (source, point, got, want)
            compared += 1
        assert compared > TRIALS // 2, source
    return verdicts


@pytest.mark.parametrize("n,source", bundled_sources() + HAND_WRITTEN,
                         ids=lambda v: str(v) if isinstance(v, int) else v)
def test_bundled_and_hand_written_match_the_reference(n, source):
    compare_with_reference(n, source)


def test_hand_written_reach_both_verdicts():
    verdicts = {v for n, source in HAND_WRITTEN for v in compare_with_reference(n, source, (0,))}
    assert verdicts == {True, False}


def test_bench_sources_match_the_reference():
    sources = sorted(set(s for s in bench_sources() if s[0] <= 2))
    assert len(sources) > 50
    for n, source in sources:
        compare_with_reference(n, source, seeds=(0,))


MONOMIALS = {n: [(a, b, c) for a in range(2 * n) for b in range(a, 2 * n) for c in range(b, 2 * n)]
             + [(a, b) for a in range(2 * n) for b in range(a, 2 * n)]
             for n in (1, 2)}


@st.composite
def polynomial_lagrangians(draw):
    """A bilinear core sum c_i x_i y_i, c_i in [1, 2], plus up to four small terms of degree 2 or 3."""
    n = draw(st.sampled_from([1, 2]))
    names = Chart(n).names()
    terms = [f"{draw(st.floats(1.0, 2.0)):.4f}*x{i}*y{i}" for i in range(1, n + 1)]
    for _ in range(draw(st.integers(0, 4))):
        monomial = draw(st.sampled_from(MONOMIALS[n]))
        coefficient = draw(st.floats(-0.1, 0.1))
        terms.append(f"({coefficient:.4f})*" + "*".join(names[k] for k in monomial))
    return n, " + ".join(terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polynomial_lagrangians())
def test_polynomial_lagrangians_match_the_reference(drawn):
    n, source = drawn
    try:
        compare_with_reference(n, source, seeds=(0,))
    except DegenerateLagrangianError:
        assume(False)


# ---------------------------------------------------------------------------
# n = 3: central differences of a per-point E_L along xi
# ---------------------------------------------------------------------------

with open(os.path.join(ROOT, "problems", "lagrangian_n3.json")) as _handle:
    N3 = [json.load(_handle)["lagrangian"], "x1*y1 + 2*x2*y2 + 1.5*x3*y3"]


def central_difference_rate(L, eps=1e-5):
    """z -> (E(z + eps xi) - E(z - eps xi)) / (2 eps), with E_L and xi from numpy per point."""
    chart = L.chart
    dim, n = chart.dim, chart.n
    hessian = Compiled([e for row in L.hessian for e in row], chart.names())
    gradient = Compiled(L.gradient, chart.names())
    value = Compiled([L.L], chart.names())
    sign = np.array([1.0] * n + [-1.0] * n)

    def solve(z):
        return np.linalg.solve(np.array(hessian(list(z))).reshape(dim, dim),
                               sign * np.array(gradient(list(z))))

    def e_l(z):
        return float(np.dot(sign * solve(z), gradient(list(z))) - value(list(z))[0])

    def rate(point):
        z = np.array(point)
        xi = solve(z)
        return (e_l(z + eps * xi) - e_l(z - eps * xi)) / (2 * eps)

    return rate


@pytest.mark.parametrize("source", N3, ids=["coupled", "uncoupled"])
def test_n3_rate_matches_central_differences(source):
    L = LagrangianSystem.from_source(source, Chart(3))
    xi = euler_lagrange_system(L).semispray
    assert not xi.is_symbolic
    reference = central_difference_rate(L)
    for point in draws(6, 0):
        got = L.energy_rate(*point)
        want = reference(point)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (point, got, want)
    assert energy_is_conserved(L, xi) == (source == N3[1])


# ---------------------------------------------------------------------------
# the sampling policy
# ---------------------------------------------------------------------------

def test_undefined_everywhere_raises_sampling_error_naming_the_check():
    # ln(-1 - x1^2), in the Hessian, is undefined at every point
    L = LagrangianSystem.from_source("x1*y1 + 0.01*x1^2*ln(-1 - x1^2)", Chart(1))
    with pytest.raises(SamplingError) as info:
        energy_is_conserved(L, None)
    assert str(info.value) == (f"E_L conservation check: no sample point where xi(E_L) is "
                               f"defined after {MAX_RESAMPLES} resamples")


def test_exactly_singular_hessian_is_drawn_again():
    # Hess = [[1, 1], [1, 1]]: the second pivot is exactly zero at every point
    L = LagrangianSystem.from_source("0.5*(x1 + y1)^2", Chart(1))
    with pytest.raises(ZeroDivisionError):
        L.energy_rate(0.3, 0.4)
    with pytest.raises(SamplingError):
        energy_is_conserved(L, None)


def test_zero_pivot_is_drawn_again():
    # a rate that meets an exact zero pivot at the first draw only
    L = LagrangianSystem.from_source("x1*y1", Chart(1))
    rate = L.energy_rate
    calls = []

    def failing_once(*state):
        calls.append(state)
        if len(calls) == 1:
            raise ZeroDivisionError("float division by zero")
        return rate(*state)

    L.__dict__["energy_rate"] = failing_once
    assert energy_is_conserved(L, None, trials=3)
    assert len(calls) == 4
    assert [list(c) for c in calls] == draws(2, 0, 4)


def test_non_finite_rate_is_drawn_again():
    L = LagrangianSystem.from_source("x1*y1", Chart(1))
    values = iter([math.inf, math.nan, 0.0, 0.0])
    L.__dict__["energy_rate"] = lambda *state: next(values)
    assert energy_is_conserved(L, None, trials=2)


def test_trials_must_be_positive():
    L = LagrangianSystem.from_source("x1*y1", Chart(1))
    with pytest.raises(ValueError):
        energy_is_conserved(L, None, trials=0)
