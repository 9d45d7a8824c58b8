"""Benchmark of the parakahler pipeline: one workload per run.

    python3 bench/run.py --workload {symbolic,trajectory,ensemble} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the package is imported from
src/, and the golden reports and bundled problems are read from tests/
and problems/.  The workload is generated from --seed; the run repeats
full passes over its job list for --seconds, checks every job's output
against an independent reference, and prints a summary followed by one
JSON line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, from untraced passes.  Their
timings are in "ref" units: the duration of a fixed reference
computation (yardstick.py) timed between jobs in the same process, which
cancels the host's speed drift; the seconds are printed alongside.
setup_s times fresh interpreters that load the problem set, each divided
by the baseline interpreters (BASELINE_CODE) run before and after it, and
is given in seconds at the development machine's speed (BASELINE_S).
--trace 1 alternates untraced and traced passes, and reports the
per-layer metrics (in seconds) plus the tracing overhead; the spans and
each traced pass's wall time are written to
bench/out/trace-<workload>.json when the run ends.

Claims of a gain are confirmed on HELD_OUT_SEED, a seed not used while
the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

import yardstick

HELD_OUT_SEED = 7919
SETUP_SAMPLES = 7
# Seconds the baseline interpreter (BASELINE_CODE) took on the development
# machine; setup_s is given in seconds at that speed.
BASELINE_S = 0.15

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Set before numpy loads, in this process and the set-up children.
# Bytecode is cached whatever the caller's PYTHONDONTWRITEBYTECODE, as it
# would be for an installed package, but under the output directory, so a
# run writes nothing elsewhere in the checkout.
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE",)
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONPYCACHEPREFIX": os.path.join(OUT_DIR, "pycache"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
REQUIRED = (os.path.join(SRC, "parakahler", "__init__.py"),
            os.path.join(ROOT, "problems"),
            os.path.join(ROOT, "tests", "golden"))

END_TO_END = {
    "setup_s": "s", "wall_ref": "ref", "symbolic_ref": "ref",
    "rk4_steps_per_ref": "steps/ref", "se_steps_per_ref": "steps/ref",
    "job_p50_ref": "ref", "job_p90_ref": "ref", "peak_rss_mb": "MB",
}
SCHEMES = ("rk4", "se")
COUNTS = ("expr.nodes_derived", "curvature.riemann_nodes", "integrate.rk4.rhs_evals",
          "integrate.csv_bytes", "cli.golden_match")

# Fresh interpreter -> import parakahler -> load and parse the problem set.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from parakahler.cli import load_problem
from parakahler.expr import parse
from parakahler.geometry import Chart
for path in sys.argv[2:]:
    problem = load_problem(path)
    chart = Chart(problem.n)
    metric = problem.metric or {}
    sources = [problem.lagrangian, problem.hamiltonian, metric.get("potential")]
    sources += [str(e) for row in metric.get("matrix", ()) for e in row]
    for source in sources:
        if source is not None:
            parse(source, chart)
"""
# The fixed part of any set-up: a fresh interpreter importing numpy.  The
# package cannot change its cost, so it gauges the host's speed for set-up.
BASELINE_CODE = "import numpy"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "trajectory", "ensemble"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on job and step counts; below 1 only for smoke tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0 or not args.scale > 0:
        parser.error("--seconds and --scale must be positive")
    return args


def pin_environment(argv):
    """Re-execute under the pinned hash seed and thread counts if needed."""
    if (all(os.environ.get(k) == v for k, v in PINNED_ENV.items())
            and not any(k in os.environ for k in UNSET_ENV)):
        return
    env = dict(os.environ, **PINNED_ENV)
    for k in UNSET_ENV:
        env.pop(k, None)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)


def environment() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **{k: os.environ[k] for k in PINNED_ENV if k != "PYTHONPYCACHEPREFIX"}}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class JobTimes:
    """Raw times of one job, and the yardstick duration around it."""

    def __init__(self, latency, symbolic_s, steps, step_s, gauge):
        self.latency = latency
        self.symbolic_s = symbolic_s
        self.steps = steps
        self.step_s = step_s
        self.gauge = gauge      # index of the yardstick sample taken before the job
        self.ref = None


class PassResult:
    def __init__(self, jobs, failures, counts):
        self.jobs = jobs
        self.failures = failures
        self.counts = counts
        self.latencies = [j.latency for j in jobs]
        self.latencies_ref = [j.latency / j.ref for j in jobs]
        self.wall = sum(self.latencies)
        self.wall_ref = sum(self.latencies_ref)
        self.symbolic_s = sum(j.symbolic_s for j in jobs)
        self.symbolic_ref = sum(j.symbolic_s / j.ref for j in jobs)
        self.steps = {k: sum(j.steps[k] for j in jobs) for k in SCHEMES}
        self.step_s = {k: sum(j.step_s[k] for j in jobs) for k in SCHEMES}
        self.step_ref = {k: sum(j.step_s[k] / j.ref for j in jobs) for k in SCHEMES}
        self.ref = statistics.median(j.ref for j in jobs)


def run_pass(jobs, api, recorder, ctx) -> PassResult:
    """One pass over the jobs; wall time covers the jobs' runs, not their checks.

    The yardstick is timed before the first job, between jobs once per
    yardstick.INTERVAL_S of job time, and after the last; a job's ref is
    the mean of the samples on either side of it.
    """
    recorder.start_pass()
    ctx.counts = recorder.counts
    gauge = [yardstick.measure()]
    times = []
    failures = []
    for job in jobs:
        if perf_counter() - gauge[-1][0] >= yardstick.INTERVAL_S:
            gauge.append(yardstick.measure())
        symbolic_s, steps, step_s = recorder.symbolic_s, Counter(recorder.steps), Counter(recorder.step_s)
        recorder.begin_job(job.kind)
        t0 = perf_counter()
        try:
            out = job.run(api, ctx)
            error = None
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            error = exc
        elapsed = perf_counter() - t0
        recorder.end_job()
        times.append(JobTimes(elapsed, recorder.symbolic_s - symbolic_s, recorder.steps - steps,
                              recorder.step_s - step_s, len(gauge) - 1))
        if error is None:
            try:
                job.check(out, ctx)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{job.kind}: " + "".join(
                traceback.format_exception_only(type(error), error)).strip())
    gauge.append(yardstick.measure())
    for t in times:
        t.ref = (gauge[t.gauge][1] + gauge[t.gauge + 1][1]) / 2.0
    return PassResult(times, failures, Counter(recorder.counts))


def run_passes(jobs, modes, ctx, seconds: float) -> list:
    """Rounds of one full pass per (api, recorder) mode; the passes of each mode.

    Rounds go on while the next one, as long as the longest so far, fits
    in `seconds`; always at least one.  Modes alternate so that traced and
    untraced passes see the same drift of the host's speed.
    """
    passes = [[] for _ in modes]
    start = perf_counter()
    longest = 0.0
    while not passes[0] or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        for out, (api, recorder) in zip(passes, modes):
            out.append(run_pass(jobs, api, recorder, ctx))
        longest = max(longest, perf_counter() - t0)
    return passes


def warm_up_jobs(jobs) -> list:
    """The first job of each kind, in list order."""
    seen = set()
    out = []
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out


def write_problems(workload, directory: str) -> list:
    os.makedirs(directory)
    paths = []
    for i, spec in enumerate(workload.problems):
        spec = dict(spec)
        spec.setdefault("name", f"{workload.name}-{i:03d}")
        path = os.path.join(directory, spec["name"] + ".json")
        with open(path, "w") as handle:
            json.dump(spec, handle, indent=2)
        paths.append(path)
    return paths


def _child_s(*args) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def measure_setup(paths) -> tuple:
    """Set-up children alternating with baseline children: (set-up s, baseline s, ratios).

    One set-up and one baseline child run first to warm the bytecode cache
    and are dropped.  Each set-up child's ratio is its time over the mean
    of the baseline children on either side of it, which cancels the
    host's speed drift as the yardstick does for the passes.
    """
    _child_s(SETUP_CODE, SRC, *paths)
    baseline = [_child_s(BASELINE_CODE)]
    setup = []
    for _ in range(SETUP_SAMPLES):
        setup.append(_child_s(SETUP_CODE, SRC, *paths))
        baseline.append(_child_s(BASELINE_CODE))
    ratios = [s / ((b0 + b1) / 2.0) for s, b0, b1 in zip(setup, baseline, baseline[1:])]
    return setup, baseline, ratios


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p50_p90(samples) -> tuple:
    return statistics.median(samples), statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(passes, setup) -> tuple:
    """The end-to-end metrics, in ref units, and the same timings in seconds."""
    median = lambda f: statistics.median(f(p) for p in passes)
    p50_ref, p90_ref = _p50_p90([t for p in passes for t in p.latencies_ref])
    p50_ms, p90_ms = _p50_p90([1e3 * t for p in passes for t in p.latencies])
    values = {
        "setup_s": BASELINE_S * statistics.median(setup[2]),
        "wall_ref": median(lambda p: p.wall_ref),
        "symbolic_ref": median(lambda p: p.symbolic_ref),
        "rk4_steps_per_ref": median(lambda p: p.steps["rk4"] / p.step_ref["rk4"]),
        "se_steps_per_ref": median(lambda p: p.steps["se"] / p.step_ref["se"]),
        "job_p50_ref": p50_ref,
        "job_p90_ref": p90_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    seconds = {
        "wall_s": (median(lambda p: p.wall), "s"),
        "symbolic_s": (median(lambda p: p.symbolic_s), "s"),
        "rk4_steps_per_s": (median(lambda p: p.steps["rk4"] / p.step_s["rk4"]), "steps/s"),
        "se_steps_per_s": (median(lambda p: p.steps["se"] / p.step_s["se"]), "steps/s"),
        "job_ms_p50": (p50_ms, "ms"),
        "job_ms_p90": (p90_ms, "ms"),
        "yardstick_us": (1e6 * median(lambda p: p.ref), "us"),
        "setup_child_s": (statistics.median(setup[0]), "s"),
        "setup_baseline_s": (statistics.median(setup[1]), "s"),
    }
    return ({name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
            seconds)


def per_layer(tracer, traced, untraced) -> dict:
    import tracing

    own = tracing.self_times(tracer.spans)
    by_pass = [Counter() for _ in traced]
    calls = [Counter() for _ in traced]
    for span, self_s in zip(tracer.spans, own):
        by_pass[span[5]][span[0]] += self_s
        calls[span[5]][span[0]] += 1
    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.s"] = (statistics.median(c[name] for c in by_pass), "s")
        metrics[f"{name}.calls"] = (calls[0][name], "count")
    for scheme, fn in (("rk4", "integrate.integrate_rk4"), ("se", "integrate.integrate_symplectic_euler")):
        metrics[f"integrate.{scheme}.step_us"] = (statistics.median(
            1e6 * c[fn] / p.steps[scheme] for c, p in zip(by_pass, traced)), "us")
    for name in COUNTS:
        metrics[name] = (traced[0].counts[name], "count")
    median = lambda passes, f: statistics.median(f(p) for p in passes)
    metrics["trace.wall_s"] = (median(traced, lambda p: p.wall), "s")
    metrics["trace.overhead"] = (median(traced, lambda p: p.wall_ref)
                                 / median(untraced, lambda p: p.wall_ref) - 1.0, "1")
    seconds = {"trace.overhead": (metrics["trace.wall_s"][0]
                                  / median(untraced, lambda p: p.wall) - 1.0, "1")}
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            seconds)


def count_mismatches(untraced, traced) -> list:
    """Exact counts must repeat in every pass that records them."""
    out = []
    for passes, names in ((traced, COUNTS), (untraced + traced, ("cli.golden_match",))):
        for name in names:
            seen = {p.counts[name] for p in passes}
            if len(seen) > 1:
                out.append(f"count {name} differs between passes: {sorted(seen)}")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_benchmark(args, tmp: str):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, args.scale)
    problem_paths = write_problems(workload, os.path.join(tmp, "problems"))
    setup = ((), (), ()) if args.trace else measure_setup(workload.problem_paths + problem_paths)
    os.makedirs(os.path.join(tmp, "cli"))
    ctx = workloads.Context(tmp=tmp)

    meter = tracing.Meter()
    api = tracing.build_api(meter)
    warm = run_pass(warm_up_jobs(workload.jobs), api, meter, ctx)
    modes = [(api, meter)]
    if args.trace:
        tracer = tracing.Tracer()
        modes.append((tracing.build_api(tracer), tracer))
    untraced, *traced = run_passes(workload.jobs, modes, ctx, args.seconds)
    traced = traced[0] if traced else []

    passes = untraced + traced
    failures = warm.failures + [f for p in passes for f in p.failures]
    attempted = len(warm.latencies) + sum(len(p.latencies) for p in passes)
    problems = count_mismatches(untraced, traced)
    env = environment()
    if args.trace:
        metrics, seconds = per_layer(tracer, traced, untraced)
        write_trace(args, env, tracer, traced)
    else:
        metrics, seconds = end_to_end(untraced, setup)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(untraced)} untraced + {len(traced)} traced passes of {len(workload.jobs)} jobs, "
             f"{len(setup[0])} set-up samples; held-out seed {HELD_OUT_SEED}",
             "environment " + json.dumps(env, sort_keys=True)]
    if not args.trace:
        lines.append(f"job latency samples {sum(len(p.latencies) for p in untraced)}")
    lines += [f"{name:42s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"{name:42s} {value:.6g} {unit} (not normalized)"
              for name, (value, unit) in seconds.items()]
    lines.append(f"fail_ratio {len(failures)}/{attempted}")
    lines += [f"FAIL {f}" for f in failures + problems]
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def write_trace(args, env, tracer, traced):
    """Spans as [name, start_s, end_s, parent, job, pass], times from the first span.

    pass_wall_s holds each traced pass's wall time, the sum of its job latencies.
    """
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[s[0], s[1] - origin, s[2] - origin, *s[3:]] for s in tracer.spans]
    path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "fields": ["name", "start_s", "end_s", "parent", "job", "pass"],
                   "pass_wall_s": [p.wall for p in traced], "spans": spans}, handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("error: not a parakahler checkout, missing " + ", ".join(missing), file=sys.stderr)
        return 2
    pin_environment(argv)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, lines = run_benchmark(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
