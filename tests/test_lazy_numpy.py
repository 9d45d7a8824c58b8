"""numpy is imported only where arrays are built or read.

`import parakahler`, loading and parsing problem files, and `derive` on
Lagrangians and Hamiltonians run in a process where every numpy import
raises.  Every module-level name a function reads must then resolve
without the import the function itself makes, which a static walk over
the package's code objects checks.
"""

import ast
import builtins
import dis
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import parakahler

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src")
PROBLEMS = sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))
                  + glob.glob(os.path.join(ROOT, "bench", "problems", "*.json")))

BLOCK_NUMPY = 'import sys\nsys.modules["numpy"] = None   # any numpy import raises ImportError\n'


def setup_code() -> str:
    """bench/run.py's SETUP_CODE: import the package, then load and parse problem files."""
    with open(os.path.join(ROOT, "bench", "run.py")) as handle:
        tree = ast.parse(handle.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets))


DERIVE = BLOCK_NUMPY + """
import contextlib, io, json
sys.path.insert(0, sys.argv[1])
from parakahler.cli import load_problem, main
codes = {}
for path in sys.argv[3:]:
    if load_problem(path).kind != "metric":
        with contextlib.redirect_stdout(io.StringIO()):
            codes[path] = main(["derive", "--problem", path, "--out", sys.argv[2]])
print(json.dumps(codes))
"""


def run_blocked(code: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_import_load_and_parse_run_without_numpy():
    proc = run_blocked(BLOCK_NUMPY + setup_code(), SRC, *PROBLEMS)
    assert proc.returncode == 0, proc.stderr


def test_derive_runs_without_numpy_and_matches_goldens(tmp_path):
    proc = run_blocked(DERIVE, SRC, str(tmp_path), *PROBLEMS)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert set(codes) >= {os.path.join(ROOT, "problems", f"{name}.json") for name in (
        "lagrangian_xy", "lagrangian_n3", "separable_lagrangian", "oscillator", "coupled_se",
        "quartic_se")} | {os.path.join(ROOT, "bench", "problems", "coupled_lagrangian_n2.json")}
    assert set(codes.values()) == {0}, codes
    compared = 0
    for report in sorted(tmp_path.iterdir()):
        golden = os.path.join(ROOT, "tests", "golden", report.name)
        if os.path.exists(golden):
            with open(golden, "rb") as handle:
                assert report.read_bytes() == handle.read(), report.name
            compared += 1
    assert compared == 4


# ---------------------------------------------------------------------------
# every global a function reads resolves in its module or in builtins
# ---------------------------------------------------------------------------

def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _modules():
    names = [f"parakahler.{info.name}" for info in pkgutil.iter_modules(parakahler.__path__)]
    return [importlib.import_module(name) for name in ["parakahler", *names]]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_global_name_resolves(module):
    with open(module.__file__) as handle:
        code = compile(handle.read(), module.__file__, "exec")
    unresolved = sorted({
        f"{inner.co_name}:{instruction.argval}"
        for inner in _code_objects(code)
        for instruction in dis.get_instructions(inner)
        if instruction.opname == "LOAD_GLOBAL"
        and instruction.argval not in vars(module) and not hasattr(builtins, instruction.argval)})
    assert not unresolved
