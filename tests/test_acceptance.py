"""Acceptance suite: one test per advertised capability.

Each test exercises one end-to-end claim at its stated tolerance, so the
verbose pytest report reads as a pass/fail line per criterion.
"""

import filecmp
import math
import os
import random

import numpy as np
import pytest

import helpers
from parakahler.cli import ProblemFile, cmd_derive, main
from parakahler.curvature import (
    DegeneratePlaneError,
    SectionalPlane,
    christoffel,
    constant_c_test,
    j_sectional_curvature,
    r_zero,
    riemann,
    sectional_curvature,
    symmetry_report,
)
from parakahler.expr import evaluate, parse, simplify, to_source
from parakahler.geometry import (
    Chart,
    compatibility_check,
    exterior_derivative,
    function_form,
    interior_product,
    j_dual_apply,
    model_dual_structure,
    model_metric,
    model_product_structure,
    vertical_derivative,
)
from parakahler.hamilton import (
    HamiltonianSystem,
    canonical_form,
    hamiltonian_vector_field,
)
from parakahler.integrate import (
    ODESystem,
    conservation_report,
    integrate_rk4,
    integrate_symplectic_euler,
    symplecticity_check,
)
from parakahler.lagrange import (
    DegenerateLagrangianError,
    LagrangianSystem,
    energy,
    energy_differential,
    euler_lagrange_system,
    exponential_law_report,
    kahler_form,
    solve_semispray,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def max_form_violation(form, chart, points):
    worst = 0.0
    for point in points:
        for value in form.at(point).values():
            worst = max(worst, abs(value))
    return worst


def sample_points(chart, count, seed, box=2.0):
    rng = random.Random(seed)
    return [chart.sample_point(rng, box=box) for _ in range(count)]


def test_criterion_01_flat_model_space():
    """Model metric and product structure across n = 1, 2, 3."""
    for n in (1, 2, 3):
        chart = Chart(n)
        g = model_metric(chart)
        J = model_product_structure(chart)
        point = chart.sample_point(random.Random(n))

        Jm = J.at(point)
        assert np.array_equal(Jm @ Jm, np.eye(2 * n))

        assert compatibility_check(g, J, trials=100, seed=n)
        worst = 0.0
        for p in sample_points(chart, 100, seed=n + 50):
            gm = g.at(p)
            jm = J.at(p)
            worst = max(worst, float(np.max(np.abs(jm.T @ gm + gm @ jm))))
        assert worst < 1e-9

        gamma = christoffel(g)
        assert np.array_equal(gamma.at(point), np.zeros((2 * n,) * 3))
        R = riemann(g)
        assert R.is_zero()
        assert constant_c_test(R, r_zero(g, J), trials=10, seed=n) == 0.0


def test_criterion_02_comparison_tensor_and_symmetries():
    """R0 components against a direct oracle plus the identity suite."""
    chart = Chart(2)
    g = model_metric(chart)
    J = model_product_structure(chart)
    R0 = r_zero(g, J)
    point = chart.sample_point(random.Random(2))

    gm = g.at(point)
    gJ = gm @ J.at(point)
    expected = 0.25 * (
        np.einsum("ac,bd->abcd", gm, gm)
        - np.einsum("ad,bc->abcd", gm, gm)
        - np.einsum("ac,bd->abcd", gJ, gJ)
        + np.einsum("ad,bc->abcd", gJ, gJ)
        - 2.0 * np.einsum("ab,cd->abcd", gJ, gJ)
    )
    assert expected[0, 2, 0, 2] == pytest.approx(-1.0, abs=1e-15)
    assert float(np.max(np.abs(R0.at(point) - expected))) < 1e-12
    assert helpers.symbolic_r_zero(g, J).canonical[(0, 2, 0, 2)].value == pytest.approx(-1.0)

    report = symmetry_report(R0, J, trials=20, seed=7)
    assert max(report.relative) < 1e-9

    rng = random.Random(11)
    D = R0.at(point)
    Jm = J.at(point)
    for _ in range(20):
        u, v, z, w = (np.array([rng.uniform(-1.0, 1.0) for _ in range(4)])
                      for _ in range(4))
        r = lambda a, b, c, d: float(np.einsum("abcd,a,b,c,d->", D, a, b, c, d))
        assert abs(r(u, v, z, w) + r(v, u, z, w)) < 1e-9
        assert abs(r(u, v, z, w) + r(u, v, w, z)) < 1e-9
        cyclic = r(u, v, z, w) + r(v, z, u, w) + r(z, u, v, w)
        assert abs(cyclic) < 1e-9
        assert abs(r(Jm @ u, Jm @ v, z, w) + r(u, v, z, w)) < 1e-9


def test_criterion_03_space_form_recovery():
    """j-plane curvature and the least-squares fit both recover c."""
    chart = Chart(2)
    g = model_metric(chart)
    J = model_product_structure(chart)
    R0 = r_zero(g, J)
    point = chart.sample_point(random.Random(3))
    gm = g.at(point)

    for c in (-3.0, 0.0, 2.5):
        R = helpers.scaled(helpers.symbolic_r_zero(g, J), c)
        rng = random.Random(int(10 * c) + 100)
        found = 0
        while found < 20:
            u = np.array([rng.uniform(-1.5, 1.5) for _ in range(4)])
            if abs(float(u @ gm @ u)) <= 0.3:
                continue
            found += 1
            k = j_sectional_curvature(R, g, J, u, point)
            assert k == pytest.approx(c, abs=1e-9)
        fitted = constant_c_test(R, R0, trials=10, seed=int(c) + 5)
        assert fitted is not None
        assert fitted == pytest.approx(c, abs=1e-9)


def test_criterion_04_vertical_derivative_bracket():
    """i_J applied to df, the dual action J* on a 1-form, reproduces the twisted differential."""
    chart = Chart(2)
    Jd = model_dual_structure(chart)
    rng = random.Random(20240809)
    for trial in range(50):
        f = helpers.random_polynomial(rng, chart, max_degree=3)
        lhs = j_dual_apply(Jd, exterior_derivative(function_form(chart, f)))
        rhs = vertical_derivative(f, chart)
        diff = lhs.subtract(rhs)
        points = sample_points(chart, 5, seed=trial)
        assert max_form_violation(diff, chart, points) < 1e-9


def test_criterion_05_bilinear_lagrangian_pipeline():
    """Full symbolic and numeric pipeline for L = x1*y1."""
    chart = Chart(1)
    L = LagrangianSystem.from_source("x1*y1", chart)

    assert str(kahler_form(L)) == "2 · dx1^dy1"
    xi = solve_semispray(L)
    assert to_source(simplify(xi.X(1))) == "-x1"
    assert to_source(simplify(xi.Y(1))) == "y1"
    E = simplify(energy(L, xi))
    assert to_source(E) == "-3*x1*y1"

    residual = interior_product(xi.as_vector_field(), kahler_form(L)).subtract(
        energy_differential(L, xi))
    points = sample_points(chart, 100, seed=55)
    assert max_form_violation(residual, chart, points) < 1e-9

    traj = integrate_rk4(euler_lagrange_system(L).ode, (1.0, 1.0),
                         0.0, 5.0, 1e-3)
    times = traj.times
    exact_x = np.exp(-times)
    exact_y = np.exp(times)
    assert float(np.max(np.abs(traj.states[:, 0] - exact_x) / exact_x)) < 1e-6
    assert float(np.max(np.abs(traj.states[:, 1] - exact_y) / exact_y)) < 1e-6
    assert conservation_report(traj, E).max_relative_drift < 1e-8


def test_criterion_06_exponential_momentum_laws():
    """Rescaled momenta stay constant along random regular flows."""
    rng = random.Random(20240810)
    for trial in range(10):
        chart = Chart(1 if trial < 5 else 2)
        L = LagrangianSystem(chart, helpers.random_regular_lagrangian(rng, chart))
        state0 = [rng.uniform(-0.7, 0.7) for _ in range(chart.dim)]
        traj = integrate_rk4(euler_lagrange_system(L).ode, state0, 0.0, 3.0, 1e-3)
        report = exponential_law_report(L, traj)
        drift = max(list(report.x_family) + list(report.y_family))
        assert drift < 1e-5


def test_criterion_07_hamiltonian_side():
    """Hamiltonian field, defining equation, and the implicit scheme."""
    chart = Chart(1)
    H = HamiltonianSystem(chart, parse("x1*y1", chart))
    Z = hamiltonian_vector_field(H)
    assert to_source(simplify(Z.components[0])) == "x1"
    assert to_source(simplify(Z.components[1])) == "-y1"

    chart2 = Chart(2)
    phi2 = canonical_form(chart2)
    rng = random.Random(77)
    for trial in range(50):
        f = helpers.random_polynomial(rng, chart2, max_degree=3)
        system = HamiltonianSystem(chart2, f)
        lhs = interior_product(hamiltonian_vector_field(system), phi2)
        rhs = exterior_derivative(function_form(chart2, f))
        diff = lhs.subtract(rhs)
        points = sample_points(chart2, 5, seed=trial + 300)
        assert max_form_violation(diff, chart2, points) < 1e-9

    traj = integrate_symplectic_euler(H, (1.0, 1.0), 0.0, 5.0, 0.1)
    products = traj.states[:, 0] * traj.states[:, 1]
    assert float(np.max(np.abs(products - 1.0))) < 1e-12

    deviation = symplecticity_check(H, "symplectic-euler", (1.0, 1.0),
                                    0.01, steps=100)
    assert deviation < 1e-4


def test_criterion_08_rk4_order():
    """Fourth-order error decay on the scalar decay equation."""
    chart = Chart(1)
    system = ODESystem(chart, rhs=(parse("-x1", chart), parse("0", chart)))
    errors = []
    for h in (1e-2, 5e-3):
        traj = integrate_rk4(system, (1.0, 1.0), 0.0, 1.0, h)
        errors.append(abs(float(traj.final_state()[0]) - math.exp(-1.0)))
    ratio = errors[0] / errors[1]
    assert 14.0 <= ratio <= 18.0


def test_criterion_09_degeneracy_handling():
    """Degenerate inputs fail loudly or are flagged, never silent."""
    chart = Chart(1)
    with pytest.raises(DegenerateLagrangianError):
        solve_semispray(LagrangianSystem.from_source("x1", chart))

    problem = ProblemFile(name="quadratic", kind="lagrangian", n=1,
                          lagrangian="0.5*(x1^2 + y1^2)")
    code, report, _ = cmd_derive(problem, seed=0)
    assert code == 0
    assert report["kahler_form_zero"] is True
    assert report["odes"] == {"x1": "x1", "y1": "-y1"}

    chart2 = Chart(2)
    g = model_metric(chart2)
    R0 = r_zero(g, model_product_structure(chart2))
    point = chart2.sample_point(random.Random(9))
    plane = SectionalPlane(point, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(R0, g, plane)


REPORT_RUNS = [
    ("lagrangian_xy.json", "derive", "lagrangian-xy-derive.json", None),
    ("oscillator.json", "derive", "oscillator-derive.json", None),
    ("lagrangian_n3.json", "derive", "lagrangian-n3-derive.json", None),
    ("model_space.json", "check", "model-space-check.json", None),
    ("potential.json", "check", "potential-quartic-check.json", None),
    ("space_form.json", "check", "space-form-check.json", None),
    ("space_form_n3.json", "check", "space-form-n3-check.json", None),
    ("space_form.json", "check", "space-form-check.json", 7),
    ("space_form.json", "check", "space-form-check.json", 17),
    ("space_form_n3.json", "check", "space-form-n3-check.json", 7),
    ("space_form_n3.json", "check", "space-form-n3-check.json", 17),
    ("potential.json", "check", "potential-quartic-check.json", 7),
    ("potential.json", "check", "potential-quartic-check.json", 17),
    ("lagrangian_xy.json", "integrate", "lagrangian-xy-integrate.json", None),
    ("oscillator.json", "integrate", "oscillator-integrate.json", None),
    ("lagrangian_n3.json", "integrate", "lagrangian-n3-integrate.json", None),
    ("coupled_se.json", "integrate", "coupled-se-integrate.json", None),
    ("quartic_se.json", "integrate", "quartic-se-integrate.json", None),
]


@pytest.mark.parametrize("problem,command,report_name,seed", REPORT_RUNS, ids=[
    f"{p}-{c}-{r}" + ("" if s is None else f"-seed{s}") for p, c, r, s in REPORT_RUNS])
def test_criterion_10_cli_reports_deterministic(problem, command, report_name, seed,
                                                tmp_path, capsys):
    """Fresh CLI runs reproduce the committed reports byte for byte.

    A run with a seed passes it as --seed, and its golden is named as
    scripts/regen_golden.py names it: <report>-seed<seed>.json.
    """
    path = os.path.join(PROBLEMS, problem)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    assert main([command, "--problem", path, "--out", str(tmp_path), *seed_args]) == 0
    capsys.readouterr()
    produced = os.path.join(tmp_path, report_name)
    golden = os.path.join(GOLDEN, report_name if seed is None
                          else f"{report_name[:-5]}-seed{seed}.json")
    assert os.path.exists(produced)
    assert filecmp.cmp(produced, golden, shallow=False)
