"""Each system derives its gradient and Hessian once; consumers read them.

Counting wrappers replace `differentiate`, `simplify` and `Compiled` in
every package module that imports them, so a consumer that re-derives,
re-simplifies or recompiles shows up as an extra call.
"""

import sys

import pytest

from parakahler import expr
from parakahler.geometry import Chart
from parakahler.hamilton import HamiltonianSystem, hamilton_odes
from parakahler.integrate import (
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
)

QUARTIC = "0.5*(y1^2 + y2^2) + 0.25*(x1^2 + x2^2)^2 + 0.1*x1*x2*y1*y2"


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
    counts = []
    for n, source in ((1, "0.5*y1^2 + 0.25*x1^4"), (2, QUARTIC)):
        H = HamiltonianSystem.from_source(source, Chart(n))
        compilations[0] = 0
        symplecticity_check(H, scheme, [0.2] * (2 * n), 0.01, 3)
        counts.append(compilations[0])
    assert counts[0] == counts[1]


def test_lagrangian_hessian_derived_once(derivations):
    chart = Chart(2)
    dim = chart.dim
    L = LagrangianSystem.from_source("x1*y1 + 2*x2*y2 + 0.1*x1^3 + 0.2*x1*x2^2", chart)
    el = euler_lagrange_system(L)
    energy_is_conserved(L, el.semispray, trials=5)
    # gradient, Hessian, and xi(E_L), which differentiates E_L once per coordinate
    assert len(derivations) == dim + dim * dim + dim
    assert len([e for e in derivations if e == L.L]) == dim
    assert len([e for e in derivations if e in L.gradient]) == dim * dim


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
