"""Seeded job lists for the three workloads, each job with its output check.

A job's `run` is the timed part: it calls the package only through the
`api` namespace (see tracing.py) and returns what it produced.  Its
`check` is untimed and compares that output with an independent
reference (reference.py); a failed check raises CheckFailed.

Seeds choose coefficients and initial states, never the shape of an
expression, so every seed costs about the same: coefficient ranges stay
away from the values 0 and 1 that the simplifier would fold, and from
values that make a potential metric near-singular in the sampling box.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import reference as ref
from reference import require, require_close

# Stated bounds of the output checks.
SEMISPRAY_RESIDUAL_TOL = 1e-6     # FD-scaled residual of Hess(L) (X, Y) = (L_x, -L_y)
IDENTICAL_ZERO_TOL = 1e-9         # residual expressions that vanish identically
HAMILTON_FLOW_RTOL = 1e-6         # derived (H_y, -H_x) against finite differences
METRIC_RTOL = 1e-5                # potential metric against the FD mixed Hessian
RIEMANN_RTOL = 1e-4               # Riemann tensor against nested FD of that metric
IDENTITY_TOL = 1e-6               # curvature identities, as the CLI's default
EXP_LAW_TOL = 1e-7                # exponential-law drift of RK4 Euler-Lagrange flows
RK4_ENERGY_DRIFT = 1e-7           # Hamiltonian drift under RK4 at the steps used
SE_ENERGY_DRIFT = 5e-2            # symplectic Euler: bounded O(h) energy error
SYMPLECTIC_TOL = 1e-7             # |M^T Omega M - Omega| of symplectic Euler, FD step 1e-6
CLOSED_FORM_RTOL = 1e-9           # x1*y1 RK4 against (x0 e^-t, y0 e^t)
SE_MAP_RTOL = 1e-12               # oscillator symplectic Euler against the linear map

GOLDEN = {
    "symbolic": [("lagrangian_xy.json", "derive"), ("oscillator.json", "derive"),
                 ("model_space.json", "check"), ("potential.json", "check")],
    "trajectory": [("lagrangian_xy.json", "integrate"), ("oscillator.json", "integrate")],
}
STRESS = "coupled_lagrangian_n2.json"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Job:
    kind: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    jobs: list
    problems: list = field(default_factory=list)    # problem-file dicts of the generated systems
    problem_paths: list = field(default_factory=list)  # bundled problem files it reads


@dataclass
class Context:
    """What jobs share within a run: the temp dir, the pass's counters, shared systems."""

    tmp: str
    counts: object = None
    shared: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded sources
# ---------------------------------------------------------------------------

def _c(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def lagrangian_source(rng, n: int, variant: int) -> str:
    """Regular Lagrangians whose Hessian determinant is constant.

    The bilinear core fixes the mixed block; the cubic noise lives in one
    eigencoordinate family (x for even variants, y for odd ones).
    """
    core = " + ".join(f"{_c(rng, 1.1, 1.6)}*x{i}*y{i}" for i in range(1, n + 1))
    fam = "x" if variant % 2 == 0 else "y"
    if n == 1:
        return f"{core} + {_c(rng, 0.02, 0.08)}*{fam}1^3"
    if n == 2:
        if fam == "x":
            return f"{core} + {_c(rng, 0.02, 0.08)}*x1^2*x2 + {_c(rng, 0.02, 0.08)}*x2^3"
        return f"{core} + {_c(rng, 0.02, 0.08)}*y1^2*y2 + {_c(rng, 0.02, 0.08)}*y1*y2^2"
    return f"{core} + {_c(rng, 0.02, 0.08)}*x1^2*x2 + {_c(rng, 0.02, 0.08)}*x3^3"


def coupled_lagrangian_source(rng) -> str:
    """n=2 Lagrangian coupling the families; its Cramer solve is rational."""
    return (f"{_c(rng, 1.1, 1.6)}*x1*y1 + {_c(rng, 1.1, 1.6)}*x2*y2"
            f" + {_c(rng, 0.02, 0.08)}*x1^2*y2 + {_c(rng, 0.02, 0.08)}*x2*y1")


def quartic_source(rng) -> str:
    return (f"0.5*(y1^2 + y2^2) + 0.5*({_c(rng, 1.1, 1.9)}*x1^2 + {_c(rng, 0.5, 0.9)}*x2^2)"
            f" + {_c(rng, 0.05, 0.15)}*(x1^4 + x2^4) + {_c(rng, 0.02, 0.08)}*x1^2*x2^2")


def potential_source(rng, n: int, coupled: bool) -> str:
    if n == 1:
        return f"x1*y1 + {_c(rng, 0.01, 0.03)}*(x1*y1)^2"
    tail = "x1*x2*y1*y2" if coupled else "(x2*y2)^2"
    return f"x1*y1 + x2*y2 + {_c(rng, 0.01, 0.03)}*(x1*y1)^2 + {_c(rng, 0.01, 0.03)}*{tail}"


def _state(rng, n: int, box: float = 0.5) -> list:
    return [round(rng.uniform(-box, box), 6) for _ in range(2 * n)]


def _points(rng, n: int, count: int = 5, box: float = 1.5) -> list:
    return [np.array([rng.uniform(-box, box) for _ in range(2 * n)]) for _ in range(count)]


def _chart(n: int):
    from parakahler.geometry import Chart
    return Chart(n)


def _lagrangian(api, source: str, n: int):
    from parakahler.lagrange import LagrangianSystem
    chart = _chart(n)
    return LagrangianSystem(chart, api.expr.parse(source, chart))


def _hamiltonian(api, source: str, n: int):
    from parakahler.hamilton import HamiltonianSystem
    chart = _chart(n)
    return HamiltonianSystem(chart, api.expr.parse(source, chart))


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_semispray(source: str, n: int, rhs_sources, points):
    """The derived flow, as rendered source, solves the semispray system."""
    lag = ref.compile_source(source, n)
    flow = [ref.compile_source(s, n) for s in rhs_sources]
    for p in points:
        residual = ref.semispray_residual(lag, n, p, [f(*p) for f in flow])
        require(residual <= SEMISPRAY_RESIDUAL_TOL,
                f"semispray residual {residual:.3e} at {p.tolist()} for L = {source}")


def check_hamilton_flow(source: str, n: int, rhs_sources, points):
    ham = ref.compile_source(source, n)
    flow = [ref.compile_source(s, n) for s in rhs_sources]
    for p in points:
        require_close([f(*p) for f in flow], ref.hamiltonian_flow(ham, n, p),
                      HAMILTON_FLOW_RTOL, f"Hamiltonian flow of H = {source}")


def check_conservation(report, source: str, n: int, state0, bound: float):
    require_close(report.first, ref.compile_source(source, n)(*state0), 1e-12,
                  "conserved quantity at the initial state")
    require(report.max_relative_drift <= bound,
            f"energy drift {report.max_relative_drift:.3e} exceeds {bound:.1e}")


def check_csv(traj, path: str):
    """The CSV reads back to the trajectory bit for bit (17 digits)."""
    header, rows = ref.read_csv(path)
    require(header == ["t", *traj.names], f"CSV header {header}")
    require(rows.shape == (traj.states.shape[0], traj.states.shape[1] + 1),
            f"CSV shape {rows.shape}")
    require(np.array_equal(rows[:, 1:], traj.states), "CSV rows differ from the trajectory")


def check_identities(out):
    require(out.compatible, "metric fails the compatibility check")
    require(out.parallel < IDENTITY_TOL, f"nabla J = {out.parallel:.3e}")
    for name, value in out.symmetry.as_dict().items():
        require(value < IDENTITY_TOL, f"curvature identity {name} violated by {value:.3e}")


# ---------------------------------------------------------------------------
# jobs used by several workloads
# ---------------------------------------------------------------------------

def cli_job(problem_path: str, command: str, golden: str = None, check_extra=None) -> Job:
    """One in-process CLI run; its report is byte-compared to a golden file.

    A relative problem_path names a generated problem file, which the
    runner writes under <tmp>/problems before the first pass.
    """
    name = os.path.basename(problem_path)

    def resolve(ctx) -> str:
        if os.path.isabs(problem_path):
            return problem_path
        return os.path.join(ctx.tmp, "problems", problem_path)

    def run(api, ctx):
        out_dir = os.path.join(ctx.tmp, "cli")
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.cli.main([command, "--problem", resolve(ctx), "--out", out_dir])
        return code, out_dir

    def check(result, ctx):
        code, out_dir = result
        require(code == 0, f"{command} {name} exited {code}")
        with open(resolve(ctx)) as handle:
            problem = json.load(handle)
        report_path = os.path.join(out_dir, f"{problem['name']}-{command}.json")
        if golden is not None:
            require(filecmp.cmp(report_path, golden, shallow=False),
                    f"{command} {name} report differs from {golden}")
            ctx.counts["cli.golden_match"] += 1
        if check_extra is not None:
            with open(report_path) as handle:
                check_extra(json.load(handle), out_dir, problem)

    return Job(f"cli-{command}", run, check)


def check_bilinear_csv(report, out_dir, problem):
    """x1*y1 under RK4 against the closed form (x0 e^-t, y0 e^t)."""
    _, rows = ref.read_csv(os.path.join(out_dir, report["trajectory_csv"]))
    require_close(rows[:, 1:], ref.bilinear_flow(problem["initial_state"], rows[:, 0]),
                  CLOSED_FORM_RTOL, "x1*y1 trajectory against the closed form")


def oscillator_csv_check(w: float):
    """The oscillator (y^2 + w x^2)/2 under symplectic Euler, against the linear map."""

    def check(report, out_dir, problem):
        _, rows = ref.read_csv(os.path.join(out_dir, report["trajectory_csv"]))
        expected = ref.oscillator_symplectic_euler(w, problem["initial_state"],
                                                   problem["integrator"]["h"], rows.shape[0] - 1)
        require_close(rows[:, 1:], expected, SE_MAP_RTOL, "oscillator symplectic Euler")

    return check


def check_stress_derive(report, out_dir, problem):
    n = problem["n"]
    rng = random.Random(problem["name"])
    check_semispray(problem["lagrangian"], n, list(report["odes"].values()), _points(rng, n))
    require(report["residual_max_abs"] <= IDENTICAL_ZERO_TOL,
            f"reported residual {report['residual_max_abs']:.3e}")


def check_stress_integrate(report, out_dir, problem):
    law = report["exponential_law"]
    drift = max(law["x_family"] + law["y_family"])
    require(drift <= EXP_LAW_TOL, f"exponential-law drift {drift:.3e}")
    _, rows = ref.read_csv(os.path.join(out_dir, report["trajectory_csv"]))
    require(rows.shape[0] == report["steps"] + 1, f"CSV has {rows.shape[0]} rows")


def model_check_job(n: int) -> Job:
    """The flat model pair: every identity holds exactly and R = 0.

    The potential sum x_i y_i must reproduce the model metric.
    """
    flat = " + ".join(f"x{i}*y{i}" for i in range(1, n + 1))

    def run(api, ctx):
        chart = _chart(n)
        g = api.geometry.model_metric(chart)
        from_potential = api.curvature.metric_from_potential(api.expr.parse(flat, chart), chart)
        J = api.geometry.model_product_structure(chart)
        R = api.curvature.riemann(g)
        return SimpleNamespace(
            R=R,
            same=[api.expr.equal_on_samples(a, b, trials=5, seed=0)
                  for row_a, row_b in zip(g.entries, from_potential.entries)
                  for a, b in zip(row_a, row_b)],
            compatible=api.geometry.compatibility_check(g, J, trials=20, seed=0),
            parallel=api.curvature.nabla_J(g, J, trials=20, seed=0),
            symmetry=api.curvature.symmetry_report(R, J, trials=20, seed=0),
            c=api.curvature.constant_c_test(R, api.curvature.r_zero(g, J), trials=20, seed=0))

    def check(out, ctx):
        require(all(out.same), f"the potential {flat} does not give the model metric")
        require(out.R.is_zero(), "model curvature is not zero")
        require(out.c == 0.0, f"model space-form constant {out.c}")
        check_identities(out)

    return Job("model-check", run, check)


def potential_job(source: str, n: int, seed: int) -> Job:
    """The check pipeline on a potential metric, in the CLI's order."""

    def run(api, ctx):
        chart = _chart(n)
        g = api.curvature.metric_from_potential(api.expr.parse(source, chart), chart)
        J = api.geometry.model_product_structure(chart)
        compatible = api.geometry.compatibility_check(g, J, trials=20, seed=seed)
        parallel = api.curvature.nabla_J(g, J, trials=20, seed=seed)
        R = api.curvature.riemann(g)
        symmetry = api.curvature.symmetry_report(R, J, trials=20, seed=seed)
        c = api.curvature.constant_c_test(R, api.curvature.r_zero(g, J), trials=20, seed=seed)
        return SimpleNamespace(g=g, R=R, compatible=compatible, parallel=parallel,
                               symmetry=symmetry, c=c)

    def check(out, ctx):
        check_identities(out)
        phi = ref.compile_source(source, n)
        names = _chart(n).names()
        metric_at = lambda q: out.g.at(dict(zip(names, q)))
        points = _points(random.Random(seed), n, count=3)
        for p in points:
            expected = np.zeros((2 * n, 2 * n))
            mixed = ref.hessian(phi, p)[:n, n:]
            expected[:n, n:] = mixed
            expected[n:, :n] = mixed.T
            require_close(metric_at(p), expected, METRIC_RTOL, f"metric of potential {source}")
        require_close(out.R.at(dict(zip(names, points[0]))), ref.riemann(metric_at, points[0]),
                      RIEMANN_RTOL, f"Riemann tensor of potential {source}")

    return Job(f"potential-check-n{n}", run, check)


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def lagrangian_derive_job(source: str, n: int, seed: int, state0, steps: int) -> Job:
    """The derive pipeline as the CLI runs it, plus a short RK4 smoke run."""

    def run(api, ctx):
        from parakahler.expr import Var
        L = _lagrangian(api, source, n)
        el = api.lagrange.euler_lagrange_system(L)
        xi = el.semispray
        api.lagrange.kahler_form(L)
        energy = api.lagrange.energy(L, xi)
        api.lagrange.energy_is_conserved(L, xi, seed=seed)
        odes = [api.expr.to_source(e) for e in xi.components]
        residuals = [api.expr.to_source(e) for e in el.residuals]
        api.expr.to_source(energy)
        for i in range(n):
            api.expr.equal_on_samples(xi.components[i], Var("y", i + 1), trials=20, seed=seed + i)
        traj = api.integrate.integrate_rk4(el.ode, state0, 0.0, steps * 0.01, 0.01)
        law = api.lagrange.exponential_law_report(L, traj)
        return SimpleNamespace(odes=odes, residuals=residuals, law=law)

    def check(out, ctx):
        points = _points(random.Random(seed), n)
        check_semispray(source, n, out.odes, points)
        for text in out.residuals:
            r = ref.compile_source(text, n)
            for p in points:
                require(abs(r(*p)) <= IDENTICAL_ZERO_TOL, f"residual {text} nonzero at {p.tolist()}")
        require(out.law.max_drift() <= EXP_LAW_TOL,
                f"exponential-law drift {out.law.max_drift():.3e}")

    return Job(f"lagrangian-derive-n{n}", run, check)


def hamiltonian_derive_job(source: str, n: int, seed: int, state0, steps: int,
                           detailed: bool) -> Job:
    """hamilton_odes plus a short symplectic Euler smoke run.

    A detailed job also checks symplecticity and saves the trajectory.
    """

    def run(api, ctx):
        H = _hamiltonian(api, source, n)
        ode = api.hamilton.hamilton_odes(H)
        rhs = [api.expr.to_source(e) for e in ode.rhs]
        traj = api.integrate.integrate_symplectic_euler(H, state0, 0.0, steps * 0.01, 0.01)
        conservation = api.integrate.conservation_report(traj, H.H)
        out = SimpleNamespace(rhs=rhs, traj=traj, conservation=conservation, deviation=0.0,
                              path=None)
        if detailed:
            out.deviation = api.integrate.symplecticity_check(H, "symplectic-euler", state0,
                                                              0.01, 10)
            out.path = os.path.join(ctx.tmp, "hamiltonian-smoke.csv")
            api.integrate.write_trajectory_csv(traj, out.path)
        return out

    def check(out, ctx):
        check_hamilton_flow(source, n, out.rhs, _points(random.Random(seed), n))
        check_conservation(out.conservation, source, n, state0, SE_ENERGY_DRIFT)
        require(out.deviation <= SYMPLECTIC_TOL, f"symplecticity deviation {out.deviation:.3e}")
        if out.path is not None:
            check_csv(out.traj, out.path)

    return Job(f"hamiltonian-derive-n{n}", run, check)


def symbolic(seed: int, root: str, scale: float = 1.0) -> Workload:
    """Derive and check: expression growth in expr, linalg and curvature."""
    rng = random.Random(f"symbolic-{seed}")
    count = lambda k: max(1, round(k * scale))
    smoke = max(2, round(200 * scale))
    problems = os.path.join(root, "problems")
    golden = os.path.join(root, "tests", "golden")

    groups = [[cli_job(os.path.join(problems, p), c, os.path.join(golden, _golden_name(problems, p, c)))
               for p, c in GOLDEN["symbolic"]]]
    groups.append([cli_job(os.path.join(BENCH_DIR, "problems", STRESS), "derive",
                           check_extra=check_stress_derive)])
    groups.append([model_check_job(2)])
    specs = []
    lag = []
    for k in range(count(8)):
        specs.append(_spec("lagrangian", 1, lagrangian_source(rng, 1, k)))
        lag.append(lagrangian_derive_job(specs[-1]["lagrangian"], 1, rng.randrange(10**6),
                                         _state(rng, 1), smoke))
    for k in range(count(6)):
        specs.append(_spec("lagrangian", 2, lagrangian_source(rng, 2, k)))
        lag.append(lagrangian_derive_job(specs[-1]["lagrangian"], 2, rng.randrange(10**6),
                                         _state(rng, 2), smoke))
    ham = []
    for k in range(count(8)):
        specs.append(_spec("hamiltonian", 2, quartic_source(rng)))
        ham.append(hamiltonian_derive_job(specs[-1]["hamiltonian"], 2, rng.randrange(10**6),
                                          _state(rng, 2), smoke, detailed=k == 0))
    pot = []
    for k in range(count(2)):
        specs.append(_spec("metric", 1, metric={"potential": potential_source(rng, 1, False)}))
        pot.append(potential_job(specs[-1]["metric"]["potential"], 1, rng.randrange(10**6)))
    # The coupled potential shares its kind with the uncoupled ones, which
    # come first, so the warm-up pass runs a cheap one.
    coupled = [False] * count(4) + [True] * round(scale)
    for c in coupled:
        specs.append(_spec("metric", 2, metric={"potential": potential_source(rng, 2, c)}))
        pot.append(potential_job(specs[-1]["metric"]["potential"], 2, rng.randrange(10**6)))
    groups += [lag, ham, pot]
    paths = [os.path.join(problems, p) for p, _ in GOLDEN["symbolic"]]
    paths.append(os.path.join(BENCH_DIR, "problems", STRESS))
    return Workload("symbolic", _interleave(groups), specs, paths)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def quartic_job(source: str, state0, steps: int, h: float, scheme: str) -> Job:
    """A long n=2 integration, its drift report and its CSV."""

    def run(api, ctx):
        H = _hamiltonian(api, source, 2)
        if scheme == "rk4":
            traj = api.integrate.integrate_rk4(api.hamilton.hamilton_odes(H), state0,
                                               0.0, steps * h, h)
            deviation = 0.0
        else:
            traj = api.integrate.integrate_symplectic_euler(H, state0, 0.0, steps * h, h)
            deviation = api.integrate.symplecticity_check(H, "symplectic-euler", state0, h, 20)
        conservation = api.integrate.conservation_report(traj, H.H)
        path = os.path.join(ctx.tmp, f"quartic-{scheme}.csv")
        api.integrate.write_trajectory_csv(traj, path)
        return SimpleNamespace(traj=traj, conservation=conservation, path=path,
                               deviation=deviation)

    def check(out, ctx):
        bound = RK4_ENERGY_DRIFT if scheme == "rk4" else SE_ENERGY_DRIFT
        check_conservation(out.conservation, source, 2, state0, bound)
        require(out.deviation <= SYMPLECTIC_TOL, f"symplecticity deviation {out.deviation:.3e}")
        check_csv(out.traj, out.path)

    return Job(f"quartic-{scheme}", run, check)


def coupled_lagrangian_job(source: str, state0, steps: int, h: float) -> Job:
    """The integrate pipeline of the CLI on a coupled n=2 Lagrangian."""

    def run(api, ctx):
        L = _lagrangian(api, source, 2)
        el = api.lagrange.euler_lagrange_system(L)
        degenerate = api.lagrange.kahler_form(L).is_zero()
        conserved = api.lagrange.energy_is_conserved(L, el.semispray, seed=0)
        energy = api.lagrange.energy(L, el.semispray)
        api.expr.to_source(energy)
        traj = api.integrate.integrate_rk4(el.ode, state0, 0.0, steps * h, h)
        if conserved:
            api.integrate.conservation_report(traj, energy)
        law = api.lagrange.exponential_law_report(L, traj)
        path = os.path.join(ctx.tmp, "coupled-lagrangian.csv")
        api.integrate.write_trajectory_csv(traj, path)
        odes = [api.expr.to_source(e) for e in el.semispray.components]
        return SimpleNamespace(traj=traj, law=law, path=path, odes=odes, degenerate=degenerate)

    def check(out, ctx):
        require(not out.degenerate, "Phi_L vanishes for a regular Lagrangian")
        check_semispray(source, 2, out.odes, _points(random.Random(source), 2))
        require(out.law.max_drift() <= EXP_LAW_TOL,
                f"exponential-law drift {out.law.max_drift():.3e}")
        check_csv(out.traj, out.path)

    return Job("coupled-lagrangian-rk4", run, check)


def trajectory(seed: int, root: str, scale: float = 1.0) -> Workload:
    """A few long integrations: per-step evaluation dominates."""
    rng = random.Random(f"trajectory-{seed}")
    problems = os.path.join(root, "problems")
    golden = os.path.join(root, "tests", "golden")
    steps = lambda k: max(2, round(k * scale))
    quartic = quartic_source(rng)
    coupled = coupled_lagrangian_source(rng)
    extra = {"lagrangian_xy.json": check_bilinear_csv, "oscillator.json": oscillator_csv_check(1.0)}
    jobs = [cli_job(os.path.join(problems, p), c, os.path.join(golden, _golden_name(problems, p, c)),
                    check_extra=extra[p])
            for p, c in GOLDEN["trajectory"]]
    jobs += [
        cli_job(os.path.join(BENCH_DIR, "problems", STRESS), "integrate",
                check_extra=check_stress_integrate),
        quartic_job(quartic, _state(rng, 2), steps(10000), 5e-4, "rk4"),
        quartic_job(quartic, _state(rng, 2), steps(8000), 5e-4, "se"),
        coupled_lagrangian_job(coupled, _state(rng, 2, box=0.3), steps(1500), 1e-3),
        model_check_job(2),
    ]
    specs = [_spec("hamiltonian", 2, quartic), _spec("lagrangian", 2, coupled)]
    paths = [os.path.join(problems, p) for p, _ in GOLDEN["trajectory"]]
    paths.append(os.path.join(BENCH_DIR, "problems", STRESS))
    return Workload("trajectory", jobs, specs, paths)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

ENSEMBLE_STEPS = 100
ENSEMBLE_H = 0.01


def ensemble_derive_job(sources: dict) -> Job:
    """Derive the shared systems once per pass, as the CLI's integrate does.

    Later jobs of the pass reuse them.  Each Lagrangian's two-form is
    tested for degeneracy, and its energy is derived where the flow is
    symbolic.
    """

    def run(api, ctx):
        shared = {}
        degenerate = []
        for key, (kind, n, source) in sources.items():
            if kind == "lagrangian":
                L = _lagrangian(api, source, n)
                el = api.lagrange.euler_lagrange_system(L)
                if api.lagrange.kahler_form(L).is_zero():
                    degenerate.append(key)
                if el.semispray.is_symbolic and api.lagrange.energy_is_conserved(L, el.semispray):
                    api.expr.to_source(api.lagrange.energy(L, el.semispray))
                shared[key] = (L, el.ode)
            else:
                shared[key] = _hamiltonian(api, source, n)
                api.expr.to_source(shared[key].H)
        ctx.shared = shared
        return degenerate

    def check(degenerate, ctx):
        require(not degenerate, f"Phi_L vanishes for {degenerate}")

    return Job("ensemble-derive", run, check)


def ensemble_lagrangian_job(key: str, n: int, state0, closed_form: bool) -> Job:
    """A short RK4 Euler-Lagrange run and its exponential-law report.

    Runs with a closed form also save their trajectory.
    """

    def run(api, ctx):
        L, ode = ctx.shared[key]
        traj = api.integrate.integrate_rk4(ode, state0, 0.0, ENSEMBLE_STEPS * ENSEMBLE_H, ENSEMBLE_H)
        law = api.lagrange.exponential_law_report(L, traj)
        path = None
        if closed_form:
            path = os.path.join(ctx.tmp, "ensemble-bilinear.csv")
            api.integrate.write_trajectory_csv(traj, path)
        return traj, law, path

    def check(out, ctx):
        traj, law, path = out
        require(law.max_drift() <= EXP_LAW_TOL, f"exponential-law drift {law.max_drift():.3e}")
        if closed_form:
            require_close(traj.states, ref.bilinear_flow(state0, traj.times), CLOSED_FORM_RTOL,
                          "bilinear flow against the closed form")
            check_csv(traj, path)

    return Job(f"ensemble-lagrangian-n{n}", run, check)


def ensemble_hamiltonian_job(key: str, source: str, n: int, state0, scheme: str, w=None) -> Job:
    """A short Hamiltonian run (RK4 re-derives the flow, as a CLI run would)."""

    def run(api, ctx):
        H = ctx.shared[key]
        if scheme == "rk4":
            traj = api.integrate.integrate_rk4(api.hamilton.hamilton_odes(H), state0, 0.0,
                                               ENSEMBLE_STEPS * ENSEMBLE_H, ENSEMBLE_H)
        else:
            traj = api.integrate.integrate_symplectic_euler(H, state0, 0.0,
                                                            ENSEMBLE_STEPS * ENSEMBLE_H, ENSEMBLE_H)
        return traj, api.integrate.conservation_report(traj, H.H)

    def check(out, ctx):
        traj, conservation = out
        bound = RK4_ENERGY_DRIFT if scheme == "rk4" else SE_ENERGY_DRIFT
        check_conservation(conservation, source, n, state0, bound)
        if w is not None:
            require_close(traj.states,
                          ref.oscillator_symplectic_euler(w, state0, ENSEMBLE_H, ENSEMBLE_STEPS),
                          SE_MAP_RTOL, "oscillator symplectic Euler")

    return Job(f"ensemble-hamiltonian-n{n}-{scheme}", run, check)


def ensemble_symplecticity_job(key: str, state0) -> Job:
    def run(api, ctx):
        return api.integrate.symplecticity_check(ctx.shared[key], "symplectic-euler", state0,
                                                 ENSEMBLE_H, 20)

    def check(deviation, ctx):
        require(deviation <= SYMPLECTIC_TOL, f"symplecticity deviation {deviation:.3e}")

    return Job("ensemble-symplecticity", run, check)


def ensemble(seed: int, root: str, scale: float = 1.0) -> Workload:
    """Hundreds of short jobs over a few shared systems: per-call set-up dominates."""
    rng = random.Random(f"ensemble-{seed}")
    count = lambda k: max(1, round(k * scale))
    w = float(_c(rng, 0.5, 0.9))
    sources = {
        "lag1": ("lagrangian", 1, f"{_c(rng, 1.1, 1.6)}*x1*y1"),
        "lag2": ("lagrangian", 2, lagrangian_source(rng, 2, 0)),
        "lag3": ("lagrangian", 3, lagrangian_source(rng, 3, 0)),
        "osc": ("hamiltonian", 1, f"0.5*(y1^2 + {w!r}*x1^2)"),
        "quartic": ("hamiltonian", 2, quartic_source(rng)),
    }
    groups = [
        [ensemble_lagrangian_job("lag1", 1, _state(rng, 1), True) for _ in range(count(40))],
        [ensemble_lagrangian_job("lag2", 2, _state(rng, 2), False) for _ in range(count(40))],
        [ensemble_lagrangian_job("lag3", 3, _state(rng, 3), False) for _ in range(count(20))],
        [ensemble_hamiltonian_job("osc", sources["osc"][2], 1, _state(rng, 1), "se", w=w)
         for _ in range(count(40))],
        [ensemble_hamiltonian_job("quartic", sources["quartic"][2], 2, _state(rng, 2), "se")
         for _ in range(count(40))],
        [ensemble_hamiltonian_job("quartic", sources["quartic"][2], 2, _state(rng, 2), "rk4")
         for _ in range(count(40))],
        [ensemble_symplecticity_job("osc", _state(rng, 1)) for _ in range(count(20))],
    ]
    specs = [_spec(kind, n, source) for kind, n, source in sources.values()]
    specs.append(dict(_spec("hamiltonian", 1, sources["osc"][2]), name="ensemble-oscillator",
                      initial_state=_state(rng, 1),
                      integrator={"scheme": "symplectic-euler", "t0": 0.0, "t1": 2.0, "h": 0.01}))
    jobs = [ensemble_derive_job(sources)] + _interleave(groups)
    jobs += [cli_job("ensemble-oscillator.json", "integrate", check_extra=oscillator_csv_check(w)),
             model_check_job(2)]
    return Workload("ensemble", jobs, specs, [])


WORKLOADS = {"symbolic": symbolic, "trajectory": trajectory, "ensemble": ensemble}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _spec(kind: str, n: int, source: str = None, metric: dict = None) -> dict:
    spec = {"kind": kind, "n": n}
    if kind == "metric":
        spec["metric"] = metric
    else:
        spec[kind] = source
    return spec


def _golden_name(problems: str, problem: str, command: str) -> str:
    with open(os.path.join(problems, problem)) as handle:
        return f"{json.load(handle)['name']}-{command}.json"


def _interleave(groups) -> list:
    """Round-robin over the groups, so slow phases of a run hit every kind."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        out.extend(g[i] for g in groups if i < len(g))
    return out
