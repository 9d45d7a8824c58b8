"""Command-line front end: derive, check, and integrate problem files.

Problem files are JSON; scalar sources (Lagrangian, Hamiltonian, metric
potential) are strings in the expression grammar.  Reports are emitted as
deterministic JSON (sorted keys, repr floats) so committed golden files
can be compared bit for bit.  Exit codes: 0 ok, 2 parse error, 3
degenerate Lagrangian, 4 identity failure, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import curvature as curvature_mod
from . import hamilton as hamilton_mod
from . import integrate as integrate_mod
from . import lagrange as lagrange_mod
from .expr import (Compiled, EvaluationError, ParseError, SamplingError, Var, equal_on_samples,
                   parse, to_source)
from .geometry import (COMPAT_TOL, Chart, Metric, compatibility_violation, form_to_text,
                       model_product_structure)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IDENTITY = 4
EXIT_NUMERIC = 5

CHECK_TRIALS = 20
CURVATURE_TOL = 1e-6
RESIDUAL_PROBES = 20


class ProblemError(Exception):
    """The problem file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ProblemFile:
    """Validated problem description loaded from JSON."""

    name: str
    kind: str
    n: int
    lagrangian: Optional[str] = None
    hamiltonian: Optional[str] = None
    metric: Optional[dict] = None
    initial_state: Optional[tuple] = None
    scheme: str = "rk4"
    t0: float = 0.0
    t1: float = 1.0
    h: float = 0.01
    seed: int = 0
    tol: Optional[float] = None


def _number(value, message: str) -> float:
    """value as a float: the one number rule for t0, t1, h, initial_state and tol.

    Booleans, strings and integers beyond float range raise ProblemError
    with message; non-finite values are left to each caller's range.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ProblemError(f"{message}, got an integer beyond float range") from None
    raise ProblemError(f"{message}, got {value!r}")


def _check_seed_and_tol(seed, tol):
    """Raise ProblemError unless seed is a non-negative integer and tol is None
    or a finite positive number: one rule for problem files and for flags."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProblemError("seed must be a non-negative integer")
    message = "tol must be a finite positive number"
    if tol is not None and not (math.isfinite(_number(tol, message)) and tol > 0):
        raise ProblemError(f"{message}, got {tol!r}")


def load_problem(path: str) -> ProblemFile:
    """Load and validate a problem file; raises ProblemError on bad input."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemError("problem file must hold a JSON object")

    kind = raw.get("kind")
    if kind not in ("lagrangian", "hamiltonian", "metric"):
        raise ProblemError(f"kind must be lagrangian, hamiltonian, or metric, got {kind!r}")
    n = raw.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProblemError("n must be an integer >= 1")

    name = raw.get("name")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    if not isinstance(name, str) or not name:
        raise ProblemError("name must be a non-empty string")

    source_key = {"lagrangian": "lagrangian", "hamiltonian": "hamiltonian"}.get(kind)
    source = None
    if source_key is not None:
        source = raw.get(source_key)
        if not isinstance(source, str) or not source.strip():
            raise ProblemError(f"kind={kind} requires a {source_key!r} source string")

    metric = raw.get("metric")
    if kind == "metric" and metric is not None:
        if not isinstance(metric, dict):
            raise ProblemError("metric must be an object")
        known = {"model", "potential", "matrix"}
        if not set(metric) <= known or len(metric) != 1:
            raise ProblemError(f"metric must hold exactly one of {sorted(known)}")
        if "model" in metric and metric["model"] is not True:
            raise ProblemError(f"metric model must be true, got {metric['model']!r}")
        if "potential" in metric and not isinstance(metric["potential"], str):
            raise ProblemError("metric potential must be an expression string")
        matrix = metric.get("matrix")
        if "matrix" in metric and (
                not isinstance(matrix, list) or len(matrix) != 2 * n
                or not all(isinstance(row, list) and len(row) == 2 * n for row in matrix)):
            raise ProblemError(f"metric matrix must be {2 * n} rows of {2 * n} entries")

    integrator = raw.get("integrator", {})
    if not isinstance(integrator, dict):
        raise ProblemError("integrator must be an object")
    scheme = integrator.get("scheme", "rk4")
    if scheme not in ("rk4", "symplectic-euler"):
        raise ProblemError(f"scheme must be rk4 or symplectic-euler, got {scheme!r}")
    t0, t1, h = (_number(integrator.get(key, default), f"integrator: {key} must be a number")
                 for key, default in (("t0", 0.0), ("t1", 1.0), ("h", 0.01)))
    try:
        integrate_mod._step_count(t0, t1, h)   # rejects non-finite times
    except ValueError as exc:
        raise ProblemError(f"integrator: {exc}") from exc

    initial = raw.get("initial_state")
    if initial is not None:
        message = f"initial_state must be a list of 2n = {2 * n} finite numbers"
        if not isinstance(initial, list) or len(initial) != 2 * n:
            raise ProblemError(message)
        initial = tuple(_number(v, message) for v in initial)
        if not all(map(math.isfinite, initial)):
            raise ProblemError(f"{message}, got {list(initial)!r}")

    seed, tol = raw.get("seed", 0), raw.get("tol")
    _check_seed_and_tol(seed, tol)
    if tol is not None:
        tol = float(tol)

    return ProblemFile(name=name, kind=kind, n=n, lagrangian=source if kind == "lagrangian" else None,
                       hamiltonian=source if kind == "hamiltonian" else None, metric=metric,
                       initial_state=initial, scheme=scheme, t0=t0, t1=t1, h=h,
                       seed=seed, tol=tol)


def _named(chart: Chart, values) -> dict:
    return {name: to_source(v) for name, v in zip(chart.names(), values)}


def _residual_max(chart: Chart, residuals, seed: int, family: str) -> float:
    """The largest |residual| at RESIDUAL_PROBES seeded sample points.

    Residual b is labelled "<family> residual <name of coordinate b>"; a
    failing evaluation names it and the sample point.
    """
    names = chart.names()
    compiled = Compiled(residuals, names, [f"{family} residual {name}" for name in names])
    worst = 0.0
    for point in chart.sample_points(RESIDUAL_PROBES, seed):
        try:
            values = compiled.at(point)
        except EvaluationError as exc:
            raise EvaluationError(
                f"{exc} at sample point {integrate_mod._where(names, point.values())}") from exc
        for value in values:
            worst = max(worst, abs(value))
    return worst


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def _derive_lagrangian(problem: ProblemFile, seed: int) -> dict:
    chart = Chart(problem.n)
    system = lagrange_mod.LagrangianSystem.from_source(problem.lagrangian, chart)
    el = lagrange_mod.euler_lagrange_system(system)
    xi = el.semispray
    phi = lagrange_mod.kahler_form(system)

    report = {
        "kind": "lagrangian",
        "n": problem.n,
        "source": problem.lagrangian,
        "kahler_form": form_to_text(phi),
        "kahler_form_zero": phi.is_zero(),
    }
    if xi.is_symbolic:
        e_l = lagrange_mod.energy(system, xi)
        n = chart.n
        report["odes"] = _named(chart, xi.components)
        report["residuals"] = _named(chart, el.residuals)
        report["residual_max_abs"] = _residual_max(chart, el.residuals, seed,
                                                   "Euler-Lagrange")
        report["energy"] = to_source(e_l)
        report["energy_conserved"] = lagrange_mod.energy_is_conserved(
            system, xi, seed=seed)
        report["semispray"] = {
            **{f"X{i + 1}": to_source(xi.components[i]) for i in range(n)},
            **{f"Y{i + 1}": to_source(xi.components[n + i]) for i in range(n)},
        }
        report["velocity_constraint"] = {
            f"X{i + 1} equals y{i + 1}": equal_on_samples(
                xi.components[i], Var("y", i + 1), trials=20, seed=seed + i)
            for i in range(n)
        }
        report["symbolic"] = True
    else:
        report["symbolic"] = False
        report["odes"] = None
        report["residuals"] = None
        report["energy"] = None
    return report


def _derive_hamiltonian(problem: ProblemFile, seed: int) -> dict:
    chart = Chart(problem.n)
    system = hamilton_mod.HamiltonianSystem.from_source(problem.hamiltonian, chart)
    field = hamilton_mod.hamiltonian_vector_field(system)
    phi = hamilton_mod.canonical_form(chart)

    from .geometry import exterior_derivative, function_form, interior_product
    residual_form = interior_product(field, phi).subtract(
        exterior_derivative(function_form(chart, system.H)))
    residuals = [residual_form.coefficient((b,)) for b in range(chart.dim)]

    n = chart.n
    return {
        "kind": "hamiltonian",
        "n": problem.n,
        "source": problem.hamiltonian,
        "odes": _named(chart, field.components),
        "residuals": _named(chart, residuals),
        "residual_max_abs": _residual_max(chart, residuals, seed, "i_Z Phi - dH"),
        "energy": to_source(system.H),
        "energy_conserved": True,
        "canonical_form": form_to_text(phi),
        "hamiltonian_field": {
            **{f"X{i + 1}": to_source(field.components[i]) for i in range(n)},
            **{f"Y{i + 1}": to_source(field.components[n + i]) for i in range(n)},
        },
        "symbolic": True,
    }


def _derive_text(report: dict) -> list:
    lines = []
    if report.get("odes"):
        for name, rhs in report["odes"].items():
            lines.append(f"d{name}/dt = {rhs}")
    if report["kind"] == "lagrangian":
        lines.append(f"Phi_L = {report['kahler_form']}")
        if report.get("energy") is not None:
            lines.append(f"E_L = {report['energy']}")
        for key, value in report.get("semispray", {}).items():
            lines.append(f"{key} = {value}")
        lines.append("Phi_L degenerate: " + ("yes" if report["kahler_form_zero"] else "no"))
        if "energy_conserved" in report:
            lines.append("E_L conserved along the flow: "
                         + ("yes" if report["energy_conserved"] else "no"))
    else:
        lines.append(f"Phi = {report['canonical_form']}")
        lines.append(f"H = {report['energy']}")
        for key, value in report.get("hamiltonian_field", {}).items():
            lines.append(f"Z_H {key} = {value}")
    return lines


def cmd_derive(problem: ProblemFile, seed: int):
    """Derive the flow of a Lagrangian or Hamiltonian problem."""
    if problem.kind == "lagrangian":
        report = _derive_lagrangian(problem, seed)
    elif problem.kind == "hamiltonian":
        report = _derive_hamiltonian(problem, seed)
    else:
        raise ProblemError("derive requires kind lagrangian or hamiltonian")
    report["problem"] = problem.name
    report["seed"] = seed
    return EXIT_OK, report, _derive_text(report)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _build_metric(problem: ProblemFile, chart: Chart) -> Metric:
    description = problem.metric
    if description is None or "model" in description:
        from .geometry import model_metric
        return model_metric(chart)
    if "potential" in description:
        phi = parse(description["potential"], chart)
        return curvature_mod.metric_from_potential(phi, chart)
    rows = [[parse(str(entry), chart) for entry in row]
            for row in description["matrix"]]
    return Metric.from_rows(chart, rows)


def cmd_check(problem: ProblemFile, seed: int, tol: Optional[float]):
    """Verify the structural identities of a metric problem."""
    if problem.kind != "metric":
        raise ProblemError("check requires kind metric")
    chart = Chart(problem.n)
    g = _build_metric(problem, chart)
    J = model_product_structure(chart)
    curvature_tol = tol if tol is not None else CURVATURE_TOL
    compat_tol = tol if tol is not None else COMPAT_TOL

    identities = {}
    compat = compatibility_violation(g, J, CHECK_TRIALS, seed)
    identities["compatibility"] = {
        "violation": compat,
        "pass": bool(compat < compat_tol),
        "tol": compat_tol,
    }

    parallel = curvature_mod.nabla_J(g, J, trials=CHECK_TRIALS, seed=seed)
    identities["j-parallelism"] = {
        "violation": parallel,
        "pass": bool(parallel < curvature_tol),
        "tol": curvature_tol,
    }

    R = curvature_mod.riemann(g)
    rep = curvature_mod.symmetry_report(R, J, trials=CHECK_TRIALS, seed=seed)
    for (name, value), relative in zip(rep.as_dict().items(), rep.relative):
        identities[name.replace("_", "-")] = {
            "violation": value,
            "pass": bool(relative < curvature_tol),
            "tol": curvature_tol,
        }
    R0 = curvature_mod.r_zero(g, J)
    c = curvature_mod.constant_c_test(R, R0, trials=CHECK_TRIALS, seed=seed)
    space_form = {"is_space_form": c is not None, "c": c}

    failing = [name for name, row in identities.items() if not row["pass"]]
    report = {
        "kind": "metric",
        "problem": problem.name,
        "n": problem.n,
        "metric": problem.metric if problem.metric is not None else {"model": True},
        "seed": seed,
        "identities": identities,
        "space_form": space_form,
        "all_identities_pass": not failing,
    }

    lines = [f"{'PASS' if row['pass'] else 'FAIL'} {name} (max violation {row['violation']:.3e})"
             for name, row in identities.items()]
    if space_form["is_space_form"]:
        lines.append(f"space form: c = {space_form['c']:g}")
    else:
        lines.append("not a space form")
    if failing:
        lines.append(f"first failing identity: {failing[0]}")
        return EXIT_IDENTITY, report, lines
    return EXIT_OK, report, lines


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def cmd_integrate(problem: ProblemFile, seed: int, out_dir: Optional[str]):
    """Integrate the derived flow and report conservation diagnostics."""
    if problem.kind not in ("lagrangian", "hamiltonian"):
        raise ProblemError("integrate requires kind lagrangian or hamiltonian")
    if problem.initial_state is None:
        raise ProblemError("integrate requires initial_state")
    if problem.scheme == "symplectic-euler" and problem.kind != "hamiltonian":
        raise ProblemError("symplectic-euler applies to Hamiltonian problems only")

    chart = Chart(problem.n)
    report = {
        "kind": problem.kind,
        "problem": problem.name,
        "n": problem.n,
        "seed": seed,
        "scheme": problem.scheme,
        "t0": problem.t0,
        "t1": problem.t1,
        "h": problem.h,
        "initial_state": list(problem.initial_state),
    }
    conserved_quantity = None
    lagrangian_system = None

    if problem.kind == "lagrangian":
        lagrangian_system = lagrange_mod.LagrangianSystem.from_source(
            problem.lagrangian, chart)
        el = lagrange_mod.euler_lagrange_system(lagrangian_system)
        system = el.ode
        if el.semispray.is_symbolic:
            if lagrange_mod.energy_is_conserved(lagrangian_system, el.semispray, seed=seed):
                conserved_quantity = lagrange_mod.energy(lagrangian_system, el.semispray)
                report["conserved_quantity"] = "E_L = " + to_source(conserved_quantity)
            else:
                report["conserved_quantity"] = None
        traj = integrate_mod.integrate_rk4(system, problem.initial_state,
                                           problem.t0, problem.t1, problem.h)
    else:
        hamiltonian_system = hamilton_mod.HamiltonianSystem.from_source(
            problem.hamiltonian, chart)
        conserved_quantity = hamiltonian_system.H
        report["conserved_quantity"] = "H = " + to_source(conserved_quantity)
        if problem.scheme == "symplectic-euler":
            traj = integrate_mod.integrate_symplectic_euler(
                hamiltonian_system, problem.initial_state, problem.t0, problem.t1,
                problem.h)
        else:
            system = hamilton_mod.hamilton_odes(hamiltonian_system)
            traj = integrate_mod.integrate_rk4(system, problem.initial_state,
                                               problem.t0, problem.t1, problem.h)

    report["steps"] = traj.steps
    report["final_state"] = [float(v) for v in traj.final_state()]

    lines = [f"integrated {traj.steps} steps of {problem.scheme}",
             "final state: " + ", ".join(
                 f"{name}={value:.9g}" for name, value in
                 zip(traj.names, traj.final_state()))]

    if conserved_quantity is not None:
        drift = integrate_mod.conservation_report(traj, conserved_quantity)
        report["conservation"] = drift.as_dict()
        lines.append(f"{report['conserved_quantity']}: max relative drift "
                     f"{drift.max_relative_drift:.3e}")
    else:
        report["conservation"] = None
        lines.append("no conserved energy reported for this system")

    if lagrangian_system is not None:
        law = lagrange_mod.exponential_law_report(lagrangian_system, traj)
        report["exponential_law"] = law.as_dict()
        lines.append(f"exponential law max relative drift {law.max_drift():.3e}")
    else:
        report["exponential_law"] = None

    csv_name = f"{problem.name}-trajectory.csv"
    csv_path = os.path.join(out_dir or ".", csv_name)
    integrate_mod.write_trajectory_csv(traj, csv_path)
    report["trajectory_csv"] = csv_name
    lines.append(f"trajectory written to {csv_name}")
    return EXIT_OK, report, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_report(report: dict, out_dir: str, command: str):
    path = os.path.join(out_dir, f"{report['problem']}-{command}.json")
    integrate_mod.atomic_write_text(path, render_report(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parakahler",
        description="Derive, verify, and integrate para-Kahler mechanics problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("derive", "derive the flow of a problem"),
                       ("check", "verify structural identities of a metric"),
                       ("integrate", "integrate a derived flow")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--problem", required=True, help="path to a JSON problem file")
        p.add_argument("--out", help="directory for reports and trajectories")
        p.add_argument("--seed", type=int, help="override the problem RNG seed")
        p.add_argument("--tol", type=float, help="override identity tolerances")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.problem)
        seed = args.seed if args.seed is not None else problem.seed
        tol = args.tol if args.tol is not None else problem.tol
        _check_seed_and_tol(seed, tol)

        if args.command == "derive":
            code, report, lines = cmd_derive(problem, seed)
        elif args.command == "check":
            code, report, lines = cmd_check(problem, seed, tol)
        else:
            if args.out:
                os.makedirs(args.out, exist_ok=True)
            code, report, lines = cmd_integrate(problem, seed, args.out)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_report(report, args.out, args.command)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: cannot parse source expression: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        # within MAX_NESTING a few shapes still derive trees too deep for
        # the recursive passes over them
        print("error: expression nests too deeply for its derivatives to be processed",
              file=sys.stderr)
        return EXIT_PARSE
    except lagrange_mod.DegenerateLagrangianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except curvature_mod.SingularMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (integrate_mod.NonFiniteStateError,
            integrate_mod.NewtonConvergenceError, EvaluationError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:   # the output directory, a report or a CSV
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE

    if args.format == "json":
        sys.stdout.write(render_report(report))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
