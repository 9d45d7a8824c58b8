"""Random problem files through the CLI: every run ends in a documented way.

Each example writes one problem file, drawn over the three kinds, n = 1, 2
and 3, sources from docs/expression-grammar.md (every function, negative
and fractional powers, constants up to 10^+-300, depth <= 4) and
integrator fields that are sometimes malformed, and runs derive, check or
integrate on it through cli.main, in process, with warnings raised as
errors.  A run must exit 0, 2, 3, 4 or 5, write at most one stderr line
(`error: ...`, and only on a failure), raise nothing, and write the same
bytes when it runs again.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, example, given, settings, strategies as st

from parakahler.cli import main

FUNCTIONS = ("sin", "cos", "exp", "ln", "sinh", "cosh")
EXPONENTS = ("2", "3", "-1", "-2", "0.5", "1.5", "-0.5", "(1/3)", "-(3/2)")
EXIT_CODES = {0, 2, 3, 4, 5}

constants = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["0.5", "2.25", "0.001", "1.5"]),
    st.integers(-300, 300).map(lambda k: f"10^{k}" if k >= 0 else f"10^-{-k}"),
)


@st.composite
def sources(draw, n: int, depth: int = 4) -> str:
    coordinates = st.sampled_from([f"{c}{i}" for c in "xy" for i in range(1, n + 1)])
    shape = draw(st.sampled_from(("leaf", "binary", "binary", "neg", "call", "power"))
                 if depth else st.just("leaf"))
    if shape == "leaf":
        return draw(st.one_of(coordinates, coordinates, constants))
    if shape == "binary":
        op = draw(st.sampled_from("+-*/"))
        return f"({draw(sources(n, depth - 1))} {op} {draw(sources(n, depth - 1))})"
    inner = draw(sources(n, depth - 1))
    if shape == "neg":
        return f"-{inner}"
    if shape == "call":
        return f"{draw(st.sampled_from(FUNCTIONS))}({inner})"
    return f"({inner})^{draw(st.sampled_from(EXPONENTS))}"


def rarely(draw, value, bad: list):
    """value, or one time in ten one of bad: a wrong type, range or choice."""
    return draw(st.sampled_from(bad)) if draw(st.integers(0, 9)) == 5 else value


@st.composite
def problem_runs(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("lagrangian", "hamiltonian", "metric")))
    source = draw(sources(n))
    if draw(st.booleans()):   # the model's x.y term, so the Hessian is often regular
        source = " + ".join(f"x{i}*y{i}" for i in range(1, n + 1)) + f" + {source}"
    payload = {"name": "random", "kind": kind, "n": n}
    if kind == "metric":
        payload["metric"] = {"potential": source}
    else:
        payload[kind] = source
    state = st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e-300, 1e300])
    payload["initial_state"] = rarely(
        draw, draw(st.lists(state, min_size=2 * n, max_size=2 * n)), [[], [1.0] * (2 * n + 1)])
    times = ["0.1", None, True, -1.0, 0.0, 1e300, 10 ** 400, []]
    payload["integrator"] = {
        "scheme": rarely(draw, draw(st.sampled_from(("rk4", "symplectic-euler")))
                         if kind == "hamiltonian" else "rk4", ["leapfrog", "symplectic-euler"]),
        "t0": rarely(draw, 0.0, times), "t1": rarely(draw, 0.05, times),
        "h": rarely(draw, 0.01, times)}
    payload["seed"] = rarely(draw, draw(st.integers(0, 2 ** 32)), [-1, 0.5, "7"])
    commands = ("check",) if kind == "metric" else ("derive", "integrate")
    command = rarely(draw, draw(st.sampled_from(commands)), ["derive", "check", "integrate"])
    return command, payload


def run(command: str, path: str, out: str) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes written to out})."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--problem", path, "--out", out])
    written = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                written[name] = handle.read()
    return code, stdout.getvalue(), stderr.getvalue(), written


def integrate_lagrangian(source: str, state: list, t1: float) -> tuple:
    return "integrate", {"name": "pinned", "kind": "lagrangian", "n": len(state) // 2,
                         "lagrangian": source, "initial_state": state,
                         "integrator": {"scheme": "rk4", "t0": 0.0, "t1": t1, "h": 0.01}}


def check_potential(source: str) -> tuple:
    return "check", {"name": "pinned", "kind": "metric", "n": 1, "metric": {"potential": source}}


# Defects earlier random runs found, each mended before: a SamplingError
# traceback, and check overflows that named neither the entry nor the point.
SAMPLING_ERROR = ("x1*y1 + (0.000001 - ((x1-0.5673224384868281)*(x1+0.9317135345691687)"
                  "*(x1-1.682461827800748)*(x1-0.33975329763079065)*(x1-0.5428224523212495))^2)^2.5")


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem_runs())
@example(integrate_lagrangian(SAMPLING_ERROR, [0.5673224384868281, 0.1], 0.01))
@example(check_potential("exp(400*x1*y1)"))
@example(check_potential("x1*y1 + 10^160*(x1*y1)^2"))
def test_random_problem_files_exit_cleanly_and_reproducibly(command_and_payload):
    command, payload = command_and_payload
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        first = run(command, path, os.path.join(tmp, "first"))
        second = run(command, path, os.path.join(tmp, "second"))
    code, _, stderr, written = first
    event(f"{command} exits {code}")
    assert code in EXIT_CODES
    lines = stderr.splitlines()
    assert "Traceback" not in stderr
    if code == 0:
        assert lines == [] and written
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert second == first
