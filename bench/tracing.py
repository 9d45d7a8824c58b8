"""The benchmark's view of the package: layer functions, timed or traced.

Workloads reach every layer through an `Api` namespace (`api.lagrange.
euler_lagrange_system(...)`).  Under a `Meter` the namespace holds the
package's own functions, except the few whose time feeds an end-to-end
metric, which get one perf_counter pair per call.  Under a `Tracer` every
function gets a span (name, start, end, parent, job) kept in memory, and
the expressions the symbolic layers return are counted.  Spans sit at the
boundary between the benchmark and the package; calls the package makes
internally are not split out.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

# The public functions the workloads call, per module.  linalg has no
# entry point of its own: its Cramer/adjugate time is inside
# lagrange.euler_lagrange_system and curvature.riemann.
LAYERS = {
    "expr": ("parse", "to_source", "equal_on_samples"),
    "geometry": ("compatibility_check", "model_metric", "model_product_structure"),
    "lagrange": ("euler_lagrange_system", "energy", "energy_is_conserved",
                 "kahler_form", "exponential_law_report"),
    "hamilton": ("hamilton_odes",),
    "curvature": ("metric_from_potential", "riemann", "r_zero", "symmetry_report",
                  "nabla_J", "constant_c_test"),
    "integrate": ("integrate_rk4", "integrate_symplectic_euler", "symplecticity_check",
                  "conservation_report", "write_trajectory_csv"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Derive/check calls: their time is symbolic_s.  cli.main counts only for
# the derive and check subcommands.
SYMBOLIC = frozenset(
    [f"expr.{name}" for name in LAYERS["expr"]]
    + [f"geometry.{name}" for name in LAYERS["geometry"]]
    + [f"curvature.{name}" for name in LAYERS["curvature"]]
    + ["lagrange.euler_lagrange_system", "lagrange.energy",
       "lagrange.energy_is_conserved", "lagrange.kahler_form",
       "hamilton.hamilton_odes"])
SYMBOLIC_COMMANDS = ("derive", "check")

# Calls whose returned expressions count toward expr.nodes_derived.
DERIVES = frozenset(["lagrange.euler_lagrange_system", "lagrange.energy",
                     "lagrange.kahler_form", "hamilton.hamilton_odes",
                     "curvature.metric_from_potential", "curvature.riemann",
                     "curvature.r_zero"])

INTEGRATORS = {"integrate.integrate_rk4": "rk4",
               "integrate.integrate_symplectic_euler": "se"}


def build_api(recorder) -> SimpleNamespace:
    """Namespace of layer modules whose functions report to recorder."""
    api = SimpleNamespace()
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"parakahler.{module}")
        setattr(api, module, SimpleNamespace(**{
            name: recorder.wrap(f"{module}.{name}", getattr(mod, name))
            for name in names}))
    return api


class Meter:
    """Per-pass sums behind the end-to-end metrics; records no spans.

    start_pass() opens each pass and must come before any wrapped call.
    """

    def start_pass(self):
        self.symbolic_s = 0.0
        self.steps = Counter()
        self.step_s = Counter()
        self.counts = Counter()

    def begin_job(self, kind: str):
        pass

    def end_job(self):
        pass

    def _is_symbolic(self, qualname: str, args) -> bool:
        if qualname == "cli.main":
            return bool(args) and args[0][0] in SYMBOLIC_COMMANDS
        return qualname in SYMBOLIC

    def _account(self, qualname: str, args, result, elapsed: float):
        if self._is_symbolic(qualname, args):
            self.symbolic_s += elapsed
        scheme = INTEGRATORS.get(qualname)
        if scheme is not None:
            self.steps[scheme] += result.steps
            self.step_s[scheme] += elapsed

    def wrap(self, qualname: str, fn):
        if qualname not in SYMBOLIC and qualname not in INTEGRATORS and qualname != "cli.main":
            return fn

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self._account(qualname, args, result, perf_counter() - t0)
            return result

        return timed


class Tracer(Meter):
    """A Meter that also keeps one span per call and the exact counts.

    A span is [name, start, end, parent, job, pass]; parent is the index
    of the enclosing span or -1.  Job spans enclose the layer spans of
    one job, so a job's self time is the benchmark's own work in it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = -1
        self._pass = -1

    def start_pass(self):
        super().start_pass()
        self._pass += 1

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None,
                self._stack[-1] if self._stack else -1, self._job, self._pass]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = perf_counter()
        self._stack.pop()

    def begin_job(self, kind: str):
        self._job += 1
        self._open(f"job.{kind}")

    def end_job(self):
        self._close(self.spans[self._stack[-1]])

    def wrap(self, qualname: str, fn):
        def traced(*args, **kwargs):
            span = self._open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._account(qualname, args, result, span[2] - span[1])
            self._count(qualname, args, result)
            return result

        return traced

    def _count(self, qualname: str, args, result):
        if qualname in DERIVES:
            nodes = sum(node_count(e) for e in derived_expressions(result))
            self.counts["expr.nodes_derived"] += nodes
            if qualname == "curvature.riemann":
                self.counts["curvature.riemann_nodes"] += nodes
        elif qualname == "integrate.integrate_rk4":
            self.counts["integrate.rk4.rhs_evals"] += 4 * result.steps * result.states.shape[1]
        elif qualname == "integrate.write_trajectory_csv":
            self.counts["integrate.csv_bytes"] += os.path.getsize(args[1])


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def derived_expressions(result):
    """The expressions held by a value a symbolic layer returned."""
    from parakahler.curvature import CurvatureTensor
    from parakahler.expr import Expression
    from parakahler.geometry import DifferentialForm, Metric
    from parakahler.integrate import ODESystem
    from parakahler.lagrange import EulerLagrangeSystem

    if isinstance(result, Expression):
        return [result]
    if isinstance(result, EulerLagrangeSystem):
        return list(result.semispray.components or ()) + list(result.residuals or ())
    if isinstance(result, ODESystem):
        return list(result.rhs or ())
    if isinstance(result, CurvatureTensor):
        return list(result.canonical.values())
    if isinstance(result, Metric):
        return [e for row in result.entries for e in row]
    if isinstance(result, DifferentialForm):
        return list(result.coefficients.values())
    raise TypeError(f"no expressions known in {type(result).__name__}")


def node_count(e) -> int:
    """Tree size of an expression: shared subtrees count at every use."""
    from parakahler.expr import Call, Power, Product, Quotient, Sum

    memo = {}

    def size(node) -> int:
        key = id(node)
        if key not in memo:
            if isinstance(node, Sum):
                children = node.terms
            elif isinstance(node, Product):
                children = node.factors
            elif isinstance(node, Quotient):
                children = (node.numerator, node.denominator)
            elif isinstance(node, Power):
                children = (node.base,)
            elif isinstance(node, Call):
                children = (node.arg,)
            else:
                children = ()
            memo[key] = 1 + sum(size(c) for c in children)
        return memo[key]

    return size(e)
