"""Each system derives its gradient and Hessian once; consumers read them.

Counting wrappers replace `differentiate`, `simplify` and `Compiled` in
every package module that imports them, so a consumer that re-derives,
re-simplifies or recompiles shows up as an extra call.  A separable H
never derives or compiles its mixed block H_xy unless a step hands an
overflow to the Newton loop.  The comparison tensor R0 derives, simplifies
and compiles nothing of its own.
"""

import math
import os
import random
import sys

import pytest

from parakahler import expr, integrate
from parakahler.cli import EXIT_OK, main
from parakahler.curvature import constant_c_test, metric_from_potential, r_zero, riemann
from parakahler.geometry import Chart, model_product_structure
from parakahler.hamilton import HamiltonianSystem, hamilton_odes
from parakahler.integrate import (
    NewtonConvergenceError,
    NonFiniteStateError,
    conservation_report,
    integrate_rk4,
    integrate_symplectic_euler,
    symplecticity_check,
)
from parakahler.lagrange import (
    LagrangianSystem,
    energy_is_conserved,
    euler_lagrange_system,
    exponential_law_report,
    kahler_form,
)

QUARTIC = "0.5*(y1^2 + y2^2) + 0.25*(x1^2 + x2^2)^2 + 0.1*x1*x2*y1*y2"
# H = T(y) + V(x) at n = 1, 2, 3, and a non-separable H at n = 1 and 2
SEPARABLE = {1: "0.5*y1^2 + 0.25*x1^4",
             2: "0.5*(y1^2 + y2^2) + 0.25*(x1^2 + x2^2)^2",
             3: "0.5*(y1^2 + y2^2 + y3^2) + 0.25*x1^4 + 0.1*x1*x2*x3 + 0.5*x3^2"}
NONSEPARABLE = {1: "0.5*y1^2 + 0.25*x1^4 + 0.1*x1^2*y1^2", 2: QUARTIC}
PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
QUARTIC_SE = os.path.join(PROBLEMS, "quartic_se.json")


def _patch_everywhere(monkeypatch, name, replacement):
    original = getattr(expr, name)
    for module_name, module in list(sys.modules.items()):
        if (module_name == "parakahler" or module_name.startswith("parakahler.")) \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def _record_first_arguments(monkeypatch, name):
    calls = []
    original = getattr(expr, name)

    def recording(e, *args):
        calls.append(e)
        return original(e, *args)

    _patch_everywhere(monkeypatch, name, recording)
    return calls


@pytest.fixture
def derivations(monkeypatch):
    """The first argument of every differentiate call, in call order."""
    return _record_first_arguments(monkeypatch, "differentiate")


@pytest.fixture
def simplifications(monkeypatch):
    """The argument of every top-level simplify call, in call order.

    Calls nested inside one simplify call are methods of its scope, so
    they are not recorded.
    """
    return _record_first_arguments(monkeypatch, "simplify")


@pytest.fixture
def compilations(monkeypatch):
    """A one-element list holding the number of Compiled constructions."""
    count = [0]

    class Counting(expr.Compiled):
        def __init__(self, *args, **kwargs):
            count[0] += 1
            super().__init__(*args, **kwargs)

    _patch_everywhere(monkeypatch, "Compiled", Counting)
    return count


@pytest.fixture
def mixed_blocks(monkeypatch):
    """Every H_xy block compiled, in order: the Compiled sets labelled d2H/d.."""
    built = []

    class Recording(expr.Compiled):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.labels and self.labels[0].startswith("d2H/"):
                built.append(self)

    _patch_everywhere(monkeypatch, "Compiled", Recording)
    return built


@pytest.fixture
def compiled_sets(monkeypatch):
    """The expressions of every Compiled built, one tuple per Compiled, in order."""
    built = []

    class Recording(expr.Compiled):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.exprs)

    _patch_everywhere(monkeypatch, "Compiled", Recording)
    return built


def test_hamiltonian_flow_derives_gradient_and_mixed_block_once(derivations):
    chart = Chart(2)
    n = chart.n
    H = HamiltonianSystem.from_source(QUARTIC, chart)
    state0 = (0.3, -0.2, 0.1, 0.4)
    hamilton_odes(H)
    integrate_symplectic_euler(H, state0, 0.0, 0.1, 0.01)
    integrate_symplectic_euler(H, state0, 0.0, 0.2, 0.02)
    symplecticity_check(H, "symplectic-euler", state0, 0.01, 5)
    assert len(derivations) == 2 * n + n * n


@pytest.mark.parametrize("scheme", ["symplectic-euler", "rk4"])
def test_symplecticity_check_compiles_independently_of_dimension(compilations, scheme):
    # separable and non-separable systems are compared among themselves:
    # only the Newton loop of a non-separable one compiles H_xy
    counts = {}
    for separable, sources in ((True, SEPARABLE), (False, NONSEPARABLE)):
        for n in (1, 2):
            H = HamiltonianSystem.from_source(sources[n], Chart(n))
            assert H.separable == separable
            compilations[0] = 0
            symplecticity_check(H, scheme, [0.2] * (2 * n), 0.01, 3)
            counts[separable, n] = compilations[0]
    assert counts[True, 1] == counts[True, 2]
    assert counts[False, 1] == counts[False, 2]
    # the one extra Compiled is H_xy
    assert counts[False, 1] - counts[True, 1] == (1 if scheme == "symplectic-euler" else 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separable_symplectic_euler_never_builds_the_mixed_block(n, derivations, mixed_blocks):
    H = HamiltonianSystem.from_source(SEPARABLE[n], Chart(n))
    assert H.separable
    state0 = [0.3, -0.2, 0.1, 0.4, -0.1, 0.2][:2 * n]
    integrate_symplectic_euler(H, state0, 0.0, 1.0, 0.01)
    symplecticity_check(H, "symplectic-euler", state0, 0.01, 5)
    assert "mixed_hessian" not in vars(H) and "compiled_mixed_hessian" not in vars(H)
    assert mixed_blocks == []
    assert len(derivations) == 2 * n   # the gradient alone


def test_cli_integrate_of_a_separable_problem_never_builds_the_mixed_block(
        mixed_blocks, monkeypatch, tmp_path):
    systems = []
    original = integrate.integrate_symplectic_euler

    def recording(H, *args):
        systems.append(H)
        return original(H, *args)

    monkeypatch.setattr(integrate, "integrate_symplectic_euler", recording)
    assert main(["integrate", "--problem", QUARTIC_SE, "--out", str(tmp_path)]) == EXIT_OK
    [H] = systems
    assert H.separable and "mixed_hessian" not in vars(H)
    assert mixed_blocks == []


MAX = sys.float_info.max


@pytest.mark.parametrize("y1,excess", [
    (1e308, 1.0),
    (MAX - 10 * math.ulp(MAX), 1.0),
    (1e308, 1e12),
], ids=["newton-gives-up", "newton-stops-below-max", "non-finite-residual"])
def test_overflow_hand_off_builds_the_mixed_block_once(y1, excess, mixed_blocks):
    # y1 - h*H_x passes the largest double by `excess` ulp of it, so the
    # explicit step hands the run to the Newton loop, which reads H_xy
    source = f"0.5*y1^2 - {(MAX - y1) + excess * math.ulp(MAX)!r}*x1"

    def run(H, steps):
        try:
            return integrate_symplectic_euler(H, [0.5, y1], 0.0, steps, 1.0).states.tobytes()
        except (NonFiniteStateError, NewtonConvergenceError) as exc:
            return type(exc), exc.step, str(exc)

    def outcome(H):   # newton-stops-below-max appends a state, then fails in step 2
        return run(H, 1), run(H, 3)

    lazy = HamiltonianSystem.from_source(source, Chart(1))
    assert lazy.separable
    first = outcome(lazy)
    assert mixed_blocks == [lazy.compiled_mixed_hessian]
    assert outcome(lazy) == first
    assert len(mixed_blocks) == 1
    eager = HamiltonianSystem.from_source(source, Chart(1))
    vars(eager)["separable"] = False   # the Newton loop on every step
    assert outcome(eager) == first


def test_non_separable_system_builds_the_mixed_block_once(mixed_blocks):
    H = HamiltonianSystem.from_source(QUARTIC, Chart(2))
    assert not H.separable
    state0 = (0.3, -0.2, 0.1, 0.4)
    integrate_symplectic_euler(H, state0, 0.0, 0.1, 0.01)
    integrate_symplectic_euler(H, state0, 0.0, 0.2, 0.02)
    symplecticity_check(H, "symplectic-euler", state0, 0.01, 5)
    assert mixed_blocks == [H.compiled_mixed_hessian]


def test_lagrangian_hessian_derived_once(derivations):
    chart = Chart(2)
    dim = chart.dim
    L = LagrangianSystem.from_source("x1*y1 + 2*x2*y2 + 0.1*x1^3 + 0.2*x1*x2^2", chart)
    el = euler_lagrange_system(L)
    energy_is_conserved(L, el.semispray, trials=5)
    # from L's table: the gradient, the Hessian's upper triangle, and for
    # xi(E_L) each third derivative L_abc, a <= b <= c, as entry (a, b) along z_c
    upper, third = dim * (dim + 1) // 2, dim * (dim + 1) * (dim + 2) // 6
    assert len(derivations) == dim + upper + third
    assert len([e for e in derivations if e is L.L]) == dim
    assert len([e for e in derivations if any(e is d for d in L.gradient)]) == upper
    assert [id(e) for e in derivations[-third:]] == \
        [id(L.hessian[a][b]) for a in range(dim) for b in range(a, dim) for _ in range(b, dim)]
    assert all(L.hessian[b][a] is L.hessian[a][b] for a in range(dim) for b in range(a))
    # Phi_L is read from the Hessian already built
    derived = len(derivations)
    kahler_form(L)
    assert len(derivations) == derived


def test_cramer_solve_builds_each_distinct_minor_once(monkeypatch):
    # det(m) and its column replacements expand along their first rows; a minor of
    # size >= 2 met again, from the same entry objects, is built once per solve
    from parakahler import linalg
    L = LagrangianSystem.from_source(QUARTIC, Chart(2))
    m, rhs = L.hessian, L.semispray_rhs
    size = len(m)
    distinct = set()

    def expand(matrix):
        key = tuple(id(e) for row in matrix for e in row)
        if len(matrix) > 1 and key not in distinct:
            distinct.add(key)
            for col in range(len(matrix)):
                expand([row[:col] + row[col + 1:] for row in matrix[1:]])

    for col in [None, *range(size)]:
        expand([[rhs[i] if c == col else m[i][c] for c in range(size)] for i in range(size)])
    built = []
    monkeypatch.setattr(linalg, "Sum", lambda terms: built.append(terms) or expr.Sum(terms))
    linalg.cramer_solve(m, rhs)
    assert len(built) == len(distinct)
    # without sharing, each of the 1 + size expansions builds its own minors
    assert len(built) < (1 + size) * sum(math.perm(size, k) for k in range(size - 1))


@pytest.mark.parametrize("problem,partials", [("space_form.json", 40),
                                              ("space_form_n3.json", 139)])
def test_check_derives_each_partial_of_the_potential_once(problem, partials, monkeypatch,
                                                          tmp_path, capsys):
    # g, its first derivatives and Riemann's stored part are entries of the
    # potential's table: one differentiate call per distinct partial read or
    # on a read partial's chain of parents (at n = 2: 17 of order 4, 14 of
    # order 3, 7 of order 2 and 2 of order 1)
    calls = []
    original = expr.differentiate

    def recording(e, v):
        calls.append((id(e), v))
        return original(e, v)

    _patch_everywhere(monkeypatch, "differentiate", recording)
    assert main(["check", "--problem", os.path.join(PROBLEMS, problem),
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == partials


# Lagrangians whose Hessians have non-constant entries; the n = 3 one is numeric
COUPLED_L = {1: "x1*y1 + 0.1*x1^3 + 0.05*x1^2*y1^2",
             2: "x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2",
             3: "x1*y1 + 2*x2*y2 + 1.5*x3*y3 + 0.1*x1*x2*y3 + 0.05*x2*x3*y1"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_hessian_entry_compiled_once(n, compiled_sets):
    # the rank probe, the numeric semispray and energy_rate read one compiled
    # Hessian system; a constant entry is a literal wherever it is compiled
    L = LagrangianSystem.from_source(COUPLED_L[n], Chart(n))
    el = euler_lagrange_system(L)
    energy_is_conserved(L, el.semispray, trials=5)
    if n == 3:
        integrate_rk4(el.ode, [0.3, -0.2, 0.1, 0.4, -0.1, 0.2], 0.0, 0.05, 0.01)
    entries = {id(e) for row in L.hessian for e in row if not isinstance(e, expr.Const)}
    assert entries
    for entry in entries:
        holders = [exprs for exprs in compiled_sets if any(id(e) == entry for e in exprs)]
        assert len(holders) == 1


def test_second_energy_verdict_derives_and_compiles_nothing(derivations, compilations,
                                                            simplifications):
    L = LagrangianSystem.from_source("x1*y1 + x2*y2 + 0.02*(x1*y1)^2 + 0.015*x1*x2*y1*y2",
                                     Chart(2))
    xi = euler_lagrange_system(L).semispray
    first = energy_is_conserved(L, xi)
    assert derivations and compilations[0] > 0
    derivations.clear()
    compilations[0] = 0
    simplifications.clear()
    assert energy_is_conserved(L, xi, seed=5) == first
    assert (derivations, compilations[0], simplifications) == ([], 0, [])


def test_second_run_on_one_system_compiles_and_simplifies_nothing(compilations,
                                                                  simplifications):
    H = HamiltonianSystem.from_source(QUARTIC, Chart(2))
    L = LagrangianSystem.from_source("x1*y1 + 2*x2*y2 + 0.1*x1^3 + 0.2*x1*x2^2", Chart(2))
    el = euler_lagrange_system(L)
    state0 = (0.3, -0.2, 0.1, 0.4)

    def runs():
        integrate_rk4(hamilton_odes(H), state0, 0.0, 0.1, 0.01)
        integrate_symplectic_euler(H, state0, 0.0, 0.1, 0.01)
        integrate_rk4(el.ode, state0, 0.0, 0.1, 0.01)

    runs()
    assert compilations[0] > 0 and simplifications
    compilations[0] = 0
    simplifications.clear()
    runs()
    assert compilations[0] == 0
    assert simplifications == []


def test_second_exponential_law_report_compiles_nothing(compilations):
    L = LagrangianSystem.from_source("x1*y1 + 2*x2*y2 + 0.1*x1^3 + 0.2*x1*x2^2", Chart(2))
    traj = integrate_rk4(euler_lagrange_system(L).ode, (0.3, -0.2, 0.1, 0.4), 0.0, 0.1, 0.01)
    first = exponential_law_report(L, traj)
    assert compilations[0] > 0
    compilations[0] = 0
    assert exponential_law_report(L, traj) == first
    assert compilations[0] == 0


def test_second_conservation_report_compiles_nothing(compilations):
    # an H no other test reports on, so the first report must compile
    H = HamiltonianSystem.from_source("0.5*(y1^2 + y2^2) + 0.125*x1^4 + 0.375*x2^4", Chart(2))
    state0 = (0.3, -0.2, 0.1, 0.4)
    first = integrate_symplectic_euler(H, state0, 0.0, 0.1, 0.01)
    second = integrate_symplectic_euler(H, (0.1, 0.2, 0.3, -0.1), 0.0, 0.1, 0.01)
    compilations[0] = 0
    report = conservation_report(first, H.H)
    assert compilations[0] == 1
    assert conservation_report(first, H.H) == report
    conservation_report(second, H.H)
    assert compilations[0] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r_zero_derives_simplifies_and_compiles_nothing(n, derivations, simplifications,
                                                        compiled_sets):
    # R0 is evaluated from g.at and J.at: besides J's own Compiled, nothing is built
    chart = Chart(n)
    terms = " + ".join(f"x{i}*y{i}" for i in range(1, n + 1))
    g = metric_from_potential(expr.parse(f"ln(1 + {terms})", chart), chart)
    J = model_product_structure(chart)
    R = riemann(g)
    R.at(chart.sample_point(random.Random(0)))   # compiles R's own part and g
    derivations.clear()
    simplifications.clear()
    compiled_sets.clear()
    assert constant_c_test(R, r_zero(g, J)) == pytest.approx(-2.0)
    assert (derivations, simplifications) == ([], [])
    assert compiled_sets == [J._compiled.exprs]
