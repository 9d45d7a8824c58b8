"""Connection, curvature, the comparison tensor, and space-form tests."""

import glob
import itertools
import json
import os
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parakahler.cli import _build_metric, load_problem
from parakahler.expr import Compiled, Const, EvaluationError, differentiate, parse, simplify
from parakahler.curvature import (
    DegeneratePlaneError,
    IsotropicVectorError,
    SectionalPlane,
    SingularMetricError,
    christoffel,
    constant_c_test,
    j_sectional_curvature,
    metric_from_potential,
    nabla_J,
    r_zero,
    riemann,
    sectional_curvature,
    symmetry_report,
)
from parakahler.geometry import (Chart, DimensionMismatchError, Metric, ProductStructure,
                                 model_metric, model_product_structure)

import helpers

CHART1 = Chart(1)
CHART2 = Chart(2)
EPS = np.finfo(float).eps
PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _kind(path):
    with open(path) as handle:
        return json.load(handle).get("kind")


METRIC_PROBLEMS = sorted(os.path.basename(path)
                         for path in glob.glob(os.path.join(PROBLEMS, "*.json"))
                         if _kind(path) == "metric")


def quartic_metric(chart=CHART1):
    phi = parse("x1*y1 + (x1*y1)^2", chart)
    return metric_from_potential(phi, chart)


def two_potential_metric():
    phi = parse("x1*y1 + x2*y2 + 0.3*x1*x2*y1*y2", CHART2)
    return metric_from_potential(phi, CHART2)


def sample_points(chart, count, seed, box=0.8):
    rng = random.Random(seed)
    return [chart.sample_point(rng, box=box) for _ in range(count)]


@dataclass(frozen=True)
class ConstantArray:
    """A constant (0,4) component array with no imposed symmetry.

    It has the chart and stack() that the numeric reports read, so they
    can be shown components that no CurvatureTensor can hold.
    """

    chart: Chart
    values: np.ndarray

    def stack(self, record):
        return np.array([self.values] * len(record.points))


STORED_ENTRY_POTENTIALS = [
    (CHART1, "x1*y1 + (x1*y1)^2"),
    (CHART2, "x1*y1 + x2*y2 + 0.5*x1^2*y1^2 + 0.25*x2^2*y2^2"),
    (CHART2, "x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2"),
]


class TestChristoffel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_metric_is_flat(self, n):
        chart = Chart(n)
        gamma = christoffel(model_metric(chart))
        assert gamma.is_zero()

    def test_scaled_constant_metric_is_flat(self):
        g = model_metric(CHART1)
        rows = [[Const(2.0) * g.entries[a][b] for b in range(2)] for a in range(2)]
        scaled = Metric.from_rows(CHART1, rows)
        assert christoffel(scaled).is_zero()

    def test_symmetric_in_lower_indices(self):
        gamma = christoffel(quartic_metric())
        for point in sample_points(CHART1, 3, seed=11):
            gm = gamma.at(point)
            assert np.allclose(gm, np.einsum("abc->acb", gm))

    def test_reads_the_connection_first_derivatives(self, monkeypatch):
        # nabla_J and riemann on one metric derive d_a g_{bc} once per (a, b <= c)
        from parakahler import curvature, geometry
        rows = [["2 + x1^2", "1 + x1*y1"], ["1 + x1*y1", "3 + y1^2"]]
        g = Metric.from_rows(CHART1, [[parse(e, CHART1) for e in row] for row in rows])
        entries = {id(e) for row in g.entries for e in row}
        derived = []
        original = geometry.differentiate

        def counting(e, v):
            if id(e) in entries:
                derived.append((e, v))
            return original(e, v)

        for module in (geometry, curvature):
            monkeypatch.setattr(module, "differentiate", counting)
        nabla_J(g, model_product_structure(CHART1))
        riemann(g)
        dim = CHART1.dim
        assert len(derived) == dim * dim * (dim + 1) // 2
        assert len({(id(e), v) for e, v in derived}) == len(derived)

    def test_matches_finite_difference_oracle(self):
        g = quartic_metric()
        gamma = christoffel(g)
        for point in sample_points(CHART1, 5, seed=3):
            exact = gamma.at(point)
            approx = helpers.fd_christoffel(g, point)
            assert np.max(np.abs(exact - approx)) < 1e-5

    def test_matches_oracle_n2(self):
        g = two_potential_metric()
        gamma = christoffel(g)
        for point in sample_points(CHART2, 3, seed=5):
            exact = gamma.at(point)
            approx = helpers.fd_christoffel(g, point)
            assert np.max(np.abs(exact - approx)) < 1e-5

    def test_singular_metric_rejected(self):
        rows = [[Const(0.0), Const(0.0)], [Const(0.0), Const(0.0)]]
        g = Metric.from_rows(CHART1, rows)
        with pytest.raises(SingularMetricError):
            christoffel(g)

    @pytest.mark.parametrize("entry,quantity,point,message", [
        ("1 + exp(800*x1)", "metric", (1.0, 0.3), "g_12: overflow: math range error"),
        ("1 + (x1^2)^0.5", "connection", (0.0, 0.3),
         "d_x1 g_12: non-integer exponent -0.5 is undefined at base 0.0"),
        ("1 + (x1^2 + y1^2)^1.5", "curvature", (0.0, 0.0),
         "R_1212: non-integer exponent -0.5 is undefined at base 0.0"),
    ], ids=["g", "dg", "R"])
    def test_failure_names_entry_and_point(self, entry, quantity, point, message):
        # g_12 overflows at x1 = 1; at x1 = 0 only its first derivative fails, or
        # at the origin only its second
        g = Metric.from_rows(CHART1, [[parse(e, CHART1) for e in row]
                                      for row in [["0", entry], [entry, "0"]]])
        point = dict(zip(CHART1.names(), point))
        with pytest.raises(EvaluationError) as info:
            if quantity == "metric":
                g.at(point)
            elif quantity == "connection":
                christoffel(g).at(point)
            else:
                riemann(g).at(point)
        assert str(info.value) == f"{message} at point x1 = {point['x1']:g}, y1 = {point['y1']:g}"

    def test_numeric_fallback_beyond_dim_four(self):
        chart = Chart(3)
        phi = parse("x1*y1 + x2*y2 + x3*y3 + 0.1*(x1*y2)^2", chart)
        g = metric_from_potential(phi, chart)
        gamma = christoffel(g)
        for point in sample_points(chart, 2, seed=9):
            exact = gamma.at(point)
            approx = helpers.fd_christoffel(g, point)
            assert np.max(np.abs(exact - approx)) < 1e-5

    def test_needs_no_symbolic_inverse(self, monkeypatch):
        """Gamma, R and nabla J evaluate per point at every n: no symbolic determinant."""
        from parakahler import linalg

        def refuse(*args):
            raise AssertionError("symbolic inverse used")

        monkeypatch.setattr(linalg, "determinant", refuse)
        phi = parse("x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2", CHART2)
        g = metric_from_potential(phi, CHART2)
        gamma = christoffel(g)
        R = riemann(g)
        for point in sample_points(CHART2, 2, seed=7):
            approx = helpers.fd_christoffel(g, point)
            assert np.max(np.abs(gamma.at(point) - approx)) < 1e-5
            approx = helpers.fd_riemann_lowered(g, gamma, point)
            assert np.max(np.abs(R.at(point) - approx)) < 1e-6
        assert nabla_J(g, model_product_structure(CHART2)) < 1e-6


class TestRiemann:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_metric_curvature_vanishes(self, n):
        chart = Chart(n)
        assert riemann(model_metric(chart)).is_zero()

    def test_matches_finite_difference_oracle(self):
        g = quartic_metric()
        gamma = christoffel(g)
        R = riemann(g)
        for point in sample_points(CHART1, 4, seed=13):
            exact = R.at(point)
            approx = helpers.fd_riemann_lowered(g, gamma, point)
            assert np.max(np.abs(exact - approx)) < 1e-6

    def test_matches_oracle_n2(self):
        g = two_potential_metric()
        gamma = christoffel(g)
        R = riemann(g)
        for point in sample_points(CHART2, 2, seed=17):
            exact = R.at(point)
            approx = helpers.fd_riemann_lowered(g, gamma, point)
            assert np.max(np.abs(exact - approx)) < 1e-6

    def test_potential_metric_is_curved(self):
        assert not riemann(quartic_metric()).is_zero()

    @pytest.mark.parametrize("chart, source", STORED_ENTRY_POTENTIALS)
    def test_stored_entries_are_simplified_and_nonzero(self, chart, source):
        g = metric_from_potential(parse(source, chart), chart)
        J = model_product_structure(chart)
        for R in (riemann(g), helpers.symbolic_r_zero(g, J)):
            assert R.canonical
            for (a, b, c, d), value in R.canonical.items():
                assert a < b and c < d
                assert simplify(value) == value
                assert value != Const(0.0)

    @pytest.mark.parametrize("chart, source", [
        (CHART1, "ln(1 + x1*y1)"),
        *STORED_ENTRY_POTENTIALS,
        (CHART2, "ln(1 + x1*y1 + x2*y2)"),
    ])
    def test_matches_symbolic_closed_form(self, chart, source):
        g = metric_from_potential(parse(source, chart), chart)
        R = riemann(g)
        expected = helpers.symbolic_riemann(g)
        for point in sample_points(chart, 5, seed=19):
            exact = expected.at(point)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(R.at(point) - exact)) <= 1e-12 * scale

    def test_nonconstant_metric_beyond_dim_four_matches_oracle(self):
        chart = Chart(3)
        phi = parse("x1*y1 + x2*y2 + x3*y3 + 0.1*(x1*y2)^2", chart)
        g = metric_from_potential(phi, chart)
        gamma = christoffel(g)
        R = riemann(g)
        for point in sample_points(chart, 2, seed=23):
            exact = R.at(point)
            approx = helpers.fd_riemann_lowered(g, gamma, point)
            assert np.max(np.abs(exact - approx)) < 1e-6

    def test_antisymmetries_hold_exactly(self):
        chart = Chart(3)
        g = TestSpaceForm.space_form(chart)
        R = riemann(g)
        for point in sample_points(chart, 3, seed=29):
            D = R.at(point)
            assert np.array_equal(D, -D.transpose(1, 0, 2, 3))
            assert np.array_equal(D, -D.transpose(0, 1, 3, 2))


class TestSpaceForm:
    """The paper's space form: the potential ln(1 + sum x_i y_i) has R = -2 R0.

    (Gadea & Montesinos Amilibia, Pacific J. Math. 136, 1989.)  Each
    point's check is relative to the largest component of -2 R0 there,
    since the curvature grows like (1 + sum x_i y_i)^-2 near the pole.
    """

    REL_TOL = 1e-12

    @staticmethod
    def space_form(chart):
        terms = " + ".join(f"x{i}*y{i}" for i in range(1, chart.n + 1))
        return metric_from_potential(parse(f"ln(1 + {terms})", chart), chart)

    @pytest.mark.parametrize("chart", [CHART1, CHART2, Chart(3)], ids=["n1", "n2", "n3"])
    def test_riemann_is_minus_two_r_zero(self, chart):
        g = self.space_form(chart)
        R = riemann(g)
        R0 = r_zero(g, model_product_structure(chart))
        for point in sample_points(chart, 10, seed=41):
            expected = -2.0 * R0.at(point)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(R.at(point) - expected)) <= self.REL_TOL * scale

    def test_matches_finite_difference_oracle_n2(self):
        g = self.space_form(CHART2)
        gamma = christoffel(g)
        R = riemann(g)
        for point in sample_points(CHART2, 3, seed=43):
            exact = R.at(point)
            approx = helpers.fd_riemann_lowered(g, gamma, point)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(exact - approx)) <= 1e-6 * scale


class TestSymmetryReport:
    def test_zero_tensor(self):
        R = riemann(model_metric(CHART1))
        J = model_product_structure(CHART1)
        rep = symmetry_report(R, J)
        assert set(rep.as_dict().values()) == {0.0}
        assert max(rep.relative) == 0.0

    def test_constructed_antisymmetry_violation(self):
        # R_1212 = R_2112 = 1 breaks antisymmetry in the first pair by 2
        dim = CHART1.dim
        dense = np.zeros((dim, dim, dim, dim))
        dense[0, 1, 0, 1] = 1.0
        dense[1, 0, 0, 1] = 1.0
        R = ConstantArray(CHART1, dense)
        rep = symmetry_report(R, model_product_structure(CHART1))
        assert rep.antisymmetry_first_pair == pytest.approx(2.0)
        assert max(rep.relative) >= 1e-9

    def test_large_perturbed_tensor_rejected(self):
        # 1000 R0 with one entry off by 1: relative to the scale, 1e-3 off
        J = model_product_structure(CHART2)
        R0 = r_zero(model_metric(CHART2), J)
        dense = 1000.0 * R0.at({})
        dense[0, 2, 0, 2] += 1.0
        R = ConstantArray(CHART2, dense)
        rep = symmetry_report(R, J)
        assert rep.antisymmetry_first_pair == pytest.approx(1.0)
        assert rep.relative[0] == pytest.approx(1e-3)
        assert max(rep.relative) >= 1e-6
        assert constant_c_test(R, R0) is None

    def test_verdict_relative_to_the_scale(self):
        # a violation of 1e-4 on entries of 1e3 is rounding-sized relative to them
        J = model_product_structure(CHART2)
        dense = 1e3 * r_zero(model_metric(CHART2), J).at({})
        dense[0, 2, 0, 2] += 1e-4
        rep = symmetry_report(ConstantArray(CHART2, dense), J)
        assert rep.antisymmetry_first_pair == pytest.approx(1e-4)
        assert max(rep.relative) < 1e-6

    def test_matches_per_sample_loop(self):
        # the report as a loop over samples; only J-invariance's einsum may round differently
        g = TestSpaceForm.space_form(CHART2)
        R, J = riemann(g), model_product_structure(CHART2)
        rep = symmetry_report(R, J, trials=8, seed=5)
        rng = random.Random(5)
        absolute, relative = [0.0] * 4, [0.0] * 4
        for _ in range(8):
            point = CHART2.sample_point(rng)
            D, Jm = R.at(point), J.at(point)
            twisted = np.einsum("pa,qb,pqcd->abcd", Jm, Jm, D)
            scale = max(1.0, float(np.max(np.abs(D))))
            for i, x in enumerate((D + D.transpose(1, 0, 2, 3), D + D.transpose(0, 1, 3, 2),
                                   D + D.transpose(1, 2, 0, 3) + D.transpose(2, 0, 1, 3),
                                   twisted + D)):
                absolute[i] = max(absolute[i], float(np.max(np.abs(x))))
                relative[i] = max(relative[i], float(np.max(np.abs(x))) / scale)
        assert list(rep.as_dict().values())[:3] == absolute[:3]
        assert rep.relative[:3] == tuple(relative[:3])
        assert rep.j_invariance == pytest.approx(absolute[3], rel=1e-9, abs=1e-12)
        assert rep.relative[3] == pytest.approx(relative[3], rel=1e-9, abs=1e-15)

    def test_potential_metric_satisfies_suite(self):
        g = quartic_metric()
        R = riemann(g)
        rep = symmetry_report(R, model_product_structure(CHART1))
        assert max(rep.relative) < 1e-6

    def test_potential_metric_n2_satisfies_suite(self):
        g = two_potential_metric()
        R = riemann(g)
        rep = symmetry_report(R, model_product_structure(CHART2))
        assert max(rep.relative) < 1e-6

    def test_r_zero_satisfies_suite_including_j(self):
        for n in (1, 2):
            chart = Chart(n)
            g = model_metric(chart)
            J = model_product_structure(chart)
            rep = symmetry_report(r_zero(g, J), J, trials=20)
            assert max(rep.relative) < 1e-9

    def test_as_dict_keys(self):
        R = riemann(model_metric(CHART1))
        rep = symmetry_report(R, model_product_structure(CHART1))
        assert set(rep.as_dict()) == {
            "antisymmetry_first_pair", "antisymmetry_second_pair",
            "first_bianchi", "j_invariance"}


def incompatible_metric():
    rows = [["2 + x1^2", "1 + x1*y1"], ["1 + x1*y1", "3 + y1^2"]]
    return Metric.from_rows(CHART1, [[parse(e, CHART1) for e in row] for row in rows])


class TestNablaJ:
    def test_model_pair(self):
        chart = CHART2
        assert nabla_J(model_metric(chart), model_product_structure(chart)) == 0.0

    @pytest.mark.parametrize("constant", [True, False], ids=["model-J", "J-reads-x1"])
    def test_derives_dJ_only_when_J_reads_a_coordinate(self, monkeypatch, constant):
        from parakahler import curvature
        g = incompatible_metric()
        J = model_product_structure(CHART1)
        if not constant:   # J with an entry x1 - x1: its derivatives are zero, but derived
            rows = [list(row) for row in J.entries]
            rows[0][1] = parse("x1 - x1", CHART1)
            J = ProductStructure.from_rows(CHART1, rows)
        expected = nabla_J(g, J, trials=5, seed=3)
        derived, compiled = [], []
        monkeypatch.setattr(curvature, "differentiate",
                            lambda e, v: derived.append(e) or differentiate(e, v))
        monkeypatch.setattr(curvature, "Compiled",
                            lambda *args: compiled.append(args) or Compiled(*args))
        assert nabla_J(g, J, trials=5, seed=3) == expected
        if constant:
            assert (derived, compiled) == ([], [])
        else:
            assert (len(derived), len(compiled)) == (CHART1.dim ** 3, 1)

    def test_model_J_value_is_the_full_formula(self):
        # d_a J = 0 is left out; the full formula's max |.| is the same float
        g, J = incompatible_metric(), model_product_structure(CHART1)
        gamma, dim = christoffel(g), CHART1.dim
        rng = random.Random(3)
        worst = 0.0
        for _ in range(5):
            point = CHART1.sample_point(rng)
            G, Jm = gamma.at(point), J.at(point)
            full = (np.zeros((dim, dim, dim)) + np.einsum('bad,dc->abc', G, Jm)
                    - np.einsum('dac,bd->abc', G, Jm))
            worst = max(worst, float(np.max(np.abs(full))))
        assert nabla_J(g, J, trials=5, seed=3) == worst > 0.0

    def test_potential_metric_parallel(self):
        assert nabla_J(quartic_metric(), model_product_structure(CHART1)) == 0.0

    def test_potential_metric_n2_parallel(self):
        assert nabla_J(two_potential_metric(),
                       model_product_structure(CHART2)) == 0.0

    def test_euclidean_metric_flat_but_incompatible(self):
        # identity metric: flat so nabla_J = 0; compatibility is what fails
        from parakahler.geometry import compatibility_check
        rows = [[Const(1.0) if a == b else Const(0.0) for b in range(2)]
                for a in range(2)]
        g = Metric.from_rows(CHART1, rows)
        J = model_product_structure(CHART1)
        assert nabla_J(g, J) == 0.0
        assert not compatibility_check(g, J)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_connection_and_constant_J_sample_nothing(self, monkeypatch, n):
        # every term is an exact zero, so no point is drawn or evaluated
        from parakahler import curvature
        chart = Chart(n)
        g, J = model_metric(chart), model_product_structure(chart)
        christoffel(g)   # probes g's invertibility at sampled points, once per metric
        monkeypatch.setattr(curvature.ChristoffelSymbols, "at", None)
        monkeypatch.setattr(Chart, "sample_point", None)
        value = nabla_J(g, J)
        assert value == 0.0 and type(value) is float

    def test_singular_constant_metric_still_rejected(self):
        g = Metric.from_rows(CHART1, [[Const(0.0), Const(0.0)], [Const(0.0), Const(0.0)]])
        with pytest.raises(SingularMetricError):
            nabla_J(g, model_product_structure(CHART1))

    def test_failing_derivative_of_J_names_its_entry(self):
        # d_x1 J_11 = 40*c*x1^39 overflows at a sample where J_11 = c*x1^40 does not
        rows = [list(row) for row in model_product_structure(CHART1).entries]
        rows[0][0] = parse("(1e308/1.6525^40)*x1^40", CHART1)
        J = ProductStructure.from_rows(CHART1, rows)
        with pytest.raises(EvaluationError) as info:
            nabla_J(model_metric(CHART1), J, seed=0)
        assert str(info.value) == ("d_x1 J_11: non-finite value inf"
                                   " at point x1 = 1.63245154, y1 = 0.0187474233")


@pytest.mark.parametrize("diagnostic", ["nabla_J", "symmetry_report", "constant_c_test"])
def test_operands_on_different_charts_rejected(diagnostic):
    g2, J2 = model_metric(CHART2), model_product_structure(CHART2)
    R1 = riemann(quartic_metric())
    run = {"nabla_J": lambda: nabla_J(quartic_metric(), J2),
           "symmetry_report": lambda: symmetry_report(R1, J2),
           "constant_c_test": lambda: constant_c_test(R1, r_zero(g2, J2))}[diagnostic]
    with pytest.raises(DimensionMismatchError, match="chart mismatch: n=1 vs n=2"):
        run()


def digits_r_zero(mpmath, gm, jm) -> np.ndarray:
    """r_zero's closed form from the float matrices g and J, in 50 digits, rounded once."""
    dim = len(gm)
    out = np.empty((dim,) * 4)
    with mpmath.workdps(50):
        g = mpmath.matrix(gm.tolist())
        gj = g * mpmath.matrix(jm.tolist())
        for a, b, c, d in itertools.product(range(dim), repeat=4):
            out[a, b, c, d] = float((g[a, c] * g[b, d] - g[a, d] * g[b, c] - gj[a, c] * gj[b, d]
                                     + gj[a, d] * gj[b, c] - 2 * gj[a, b] * gj[c, d]) / 4)
    return out


class TestRZero:
    def test_basis_value(self):
        R0 = r_zero(model_metric(CHART1), model_product_structure(CHART1))
        point = {"x1": 0.0, "y1": 0.0}
        D = R0.at(point)
        assert D[0, 1, 0, 1] == pytest.approx(-1.0)

    def test_term_by_term_oracle(self):
        # quarter of: g(X,Z)g(Y,V) - g(X,V)g(Y,Z) - g(X,JZ)g(Y,JV)
        #             + g(X,JV)g(Y,JZ) - 2 g(X,JY)g(Z,JV)
        chart = CHART2
        g = model_metric(chart)
        J = model_product_structure(chart)
        point = chart.sample_point(random.Random(2))
        gm = g.at(point)
        jm = J.at(point)
        gj = gm @ jm
        dim = chart.dim
        expected = 0.25 * (
            np.einsum("ac,bd->abcd", gm, gm)
            - np.einsum("ad,bc->abcd", gm, gm)
            - np.einsum("ac,bd->abcd", gj, gj)
            + np.einsum("ad,bc->abcd", gj, gj)
            - 2.0 * np.einsum("ab,cd->abcd", gj, gj))
        R0 = r_zero(g, J)
        assert np.max(np.abs(R0.at(point) - expected)) < 1e-12
        assert expected[0, 2, 0, 2] == pytest.approx(-1.0)

    def test_repeated_argument_vanishes(self):
        R0 = r_zero(model_metric(CHART2), model_product_structure(CHART2))
        point = CHART2.sample_point(random.Random(3))
        u = np.array([0.7, -0.2, 1.1, 0.4])
        z = np.array([0.1, 0.9, -0.5, 0.3])
        w = np.array([1.0, 0.0, 2.0, -1.0])
        assert R0.apply(u, u, z, w, point) == pytest.approx(0.0, abs=1e-12)

    def test_x_block_component_vanishes(self):
        R0 = r_zero(model_metric(CHART2), model_product_structure(CHART2))
        point = CHART2.sample_point(random.Random(4))
        assert R0.at(point)[0, 1, 0, 1] == pytest.approx(0.0)

    @staticmethod
    def assert_matches_oracle(g, J, points):
        # the closed form, and the symbolic construction, against the closed form
        # evaluated to 50 digits from the same float values of g and J.  On the
        # bundled problems, the space forms and 120 polynomial potentials the closed
        # form came within 0.87 eps of max |R0| and the symbolic one within 9.9 eps,
        # its simplified products of g's entries rounding on their own
        mpmath = pytest.importorskip("mpmath")
        R0, oracle = r_zero(g, J), helpers.symbolic_r_zero(g, J)
        for point in points:
            exact = digits_r_zero(mpmath, g.at(point), J.at(point))
            scale = EPS * max(1.0, float(np.max(np.abs(exact))))
            assert float(np.max(np.abs(R0.at(point) - exact))) <= 4 * scale
            assert float(np.max(np.abs(oracle.at(point) - exact))) <= 16 * scale

    @pytest.mark.parametrize("name", METRIC_PROBLEMS)
    def test_matches_symbolic_oracle_on_bundled_problems(self, name):
        problem = load_problem(os.path.join(PROBLEMS, name))
        chart = Chart(problem.n)
        g = _build_metric(problem, chart)
        self.assert_matches_oracle(g, model_product_structure(chart),
                                   sample_points(chart, 20, seed=53, box=2.0))

    @pytest.mark.parametrize("chart", [CHART1, CHART2, Chart(3)], ids=["n1", "n2", "n3"])
    def test_matches_symbolic_oracle_on_space_forms(self, chart):
        self.assert_matches_oracle(TestSpaceForm.space_form(chart),
                                   model_product_structure(chart),
                                   sample_points(chart, 20, seed=59, box=2.0))

    @pytest.mark.parametrize("chart", [CHART1, CHART2], ids=["n1", "n2"])
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_symbolic_oracle_on_polynomial_potentials(self, chart, seed):
        rng = random.Random(seed)
        g = metric_from_potential(helpers.random_polynomial(rng, chart, max_degree=4), chart)
        self.assert_matches_oracle(g, model_product_structure(chart),
                                   [chart.sample_point(rng) for _ in range(5)])

    def test_antisymmetries_hold_exactly(self):
        chart = Chart(3)
        R0 = r_zero(TestSpaceForm.space_form(chart), model_product_structure(chart))
        for point in sample_points(chart, 3, seed=29):
            D = R0.at(point)
            assert np.array_equal(D, -D.transpose(1, 0, 2, 3))
            assert np.array_equal(D, -D.transpose(0, 1, 3, 2))
            diagonal = np.arange(chart.dim)
            assert not np.any(D[diagonal, diagonal]) and not np.any(D[:, :, diagonal, diagonal])

    def test_non_finite_component_names_r0_and_point(self):
        rows = [["0", "1e160"], ["1e160", "0"]]
        g = Metric.from_rows(CHART1, [[parse(e, CHART1) for e in row] for row in rows])
        R0 = r_zero(g, model_product_structure(CHART1))
        with pytest.raises(EvaluationError) as info:
            R0.at({"x1": 0.5, "y1": -0.25})
        assert str(info.value) == "R0_1212: non-finite value -inf at point x1 = 0.5, y1 = -0.25"


class TestSectionalCurvature:
    def test_model_plane_is_flat(self):
        g = model_metric(CHART1)
        R = riemann(g)
        plane = SectionalPlane({"x1": 0.0, "y1": 0.0}, (1.0, 0.0), (0.0, 1.0))
        assert sectional_curvature(R, g, plane) == 0.0

    def test_isotropic_plane_degenerate(self):
        g = model_metric(CHART2)
        R = riemann(g)
        point = {"x1": 0.0, "x2": 0.0, "y1": 0.0, "y2": 0.0}
        plane = SectionalPlane(point, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(R, g, plane)

    def test_scaled_r_zero_quotient(self):
        g = model_metric(CHART1)
        J = model_product_structure(CHART1)
        R = helpers.scaled(helpers.symbolic_r_zero(g, J), 2.5)
        plane = SectionalPlane({"x1": 0.0, "y1": 0.0}, (1.0, 0.0), (0.0, 1.0))
        assert sectional_curvature(R, g, plane) == pytest.approx(2.5)


class TestJSectionalCurvature:
    def test_flat_value(self):
        g = model_metric(CHART1)
        J = model_product_structure(CHART1)
        R = riemann(g)
        value = j_sectional_curvature(R, g, J, (1.0, 1.0), {"x1": 0.0, "y1": 0.0})
        assert value == 0.0

    def test_isotropic_vector_rejected(self):
        g = model_metric(CHART1)
        J = model_product_structure(CHART1)
        R = riemann(g)
        with pytest.raises(IsotropicVectorError):
            j_sectional_curvature(R, g, J, (1.0, 0.0), {"x1": 0.0, "y1": 0.0})

    @pytest.mark.parametrize("c", [-3.0, 0.0, 2.5])
    def test_recovers_constant_on_scaled_r_zero(self, c):
        g = model_metric(CHART2)
        J = model_product_structure(CHART2)
        R = helpers.scaled(helpers.symbolic_r_zero(g, J), c)
        rng = random.Random(31)
        point = CHART2.sample_point(rng)
        gm = g.at(point)
        found = 0
        while found < 20:
            u = np.array([rng.uniform(-2, 2) for _ in range(4)])
            if abs(u @ gm @ u) <= 0.3:
                continue
            found += 1
            assert j_sectional_curvature(R, g, J, u, point) == pytest.approx(
                c, abs=1e-9)


class TestConstantCTest:
    def test_model_space_returns_zero(self):
        for n in (1, 2, 3):
            chart = Chart(n)
            g = model_metric(chart)
            J = model_product_structure(chart)
            assert constant_c_test(riemann(g), r_zero(g, J)) == 0.0

    @pytest.mark.parametrize("c", [-3.0, 0.0, 2.5])
    def test_recovers_scale(self, c):
        g = model_metric(CHART2)
        J = model_product_structure(CHART2)
        R0 = r_zero(g, J)
        value = constant_c_test(helpers.scaled(helpers.symbolic_r_zero(g, J), c), R0)
        assert value == pytest.approx(c, abs=1e-9)

    def test_perturbed_component_rejected(self):
        g = model_metric(CHART1)
        J = model_product_structure(CHART1)
        R0 = r_zero(g, J)
        point = {"x1": 0.0, "y1": 0.0}
        dense = R0.at(point)
        dense[0, 1, 0, 1] += 0.1
        R = ConstantArray(CHART1, dense)
        assert constant_c_test(R, R0) is None

    def test_curved_potential_metric_is_not_a_space_form(self):
        g = quartic_metric()
        J = model_product_structure(CHART1)
        assert constant_c_test(riemann(g), r_zero(g, J)) is None

    def test_zero_tensor_decided_before_r_zero_is_evaluated(self):
        @dataclass(frozen=True)
        class Unevaluable:
            chart: Chart

            def stack(self, record):
                raise AssertionError("R0 evaluated")

        g = model_metric(CHART2)
        value = constant_c_test(riemann(g), Unevaluable(CHART2))
        assert value == 0.0 and type(value) is float


class TestMetricFromPotential:
    def test_bilinear_potential_recovers_model(self):
        phi = parse("x1*y1", CHART1)
        g = metric_from_potential(phi, CHART1)
        gm = model_metric(CHART1)
        point = {"x1": 0.4, "y1": -1.2}
        assert np.array_equal(g.at(point), gm.at(point))

    def test_diagonal_blocks_vanish(self):
        g = quartic_metric()
        point = {"x1": 0.5, "y1": 0.7}
        m = g.at(point)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_compatibility_holds_by_construction(self):
        from parakahler.geometry import compatibility_check
        assert compatibility_check(quartic_metric(),
                                   model_product_structure(CHART1))

    def test_symmetric(self):
        g = two_potential_metric()
        point = CHART2.sample_point(random.Random(6))
        m = g.at(point)
        assert np.allclose(m, m.T)
