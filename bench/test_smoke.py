"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Each workload runs for one second at a small scale, untraced and traced.
Every declared metric must print with its unit, every output check must
pass, every layer function must be called, the layer self times of each
traced pass must fit in that pass's measured wall time, and the run must
write nothing outside bench/out.  A directory holding only the benchmark
must make it fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd, workload, trace, scale="0.05"):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def snapshot():
    """Every file in the checkout outside bench/out, with its mtime."""
    files = {}
    for directory, subdirs, names in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs
                      if os.path.join(directory, d) not in (OUT_DIR, os.path.join(ROOT, ".git"))]
        for name in names:
            path = os.path.join(directory, name)
            files[path] = os.stat(path).st_mtime_ns
    return files


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    before = snapshot()
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert snapshot() == before, "the run wrote outside bench/out"

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in proc.stdout.splitlines()), m["name"]

    if trace:
        for name in tracing.FUNCTIONS:
            assert result["metrics"][f"{name}.calls"]["value"] > 0, name
        with open(os.path.join(OUT_DIR, f"trace-{workload}.json")) as handle:
            trace_file = json.load(handle)
        spans, pass_walls = trace_file["spans"], trace_file["pass_wall_s"]
        own = tracing.self_times(spans)
        assert min(own) >= -1e-9
        assert all(s[0] in tracing.FUNCTIONS or s[3] == -1 for s in spans)
        # Layer self times of a pass must fit in the wall time its job
        # latencies report, which is what trace.wall_s takes the median of.
        layer_s = [0.0] * len(pass_walls)
        for span, self_s in zip(spans, own):
            if span[0] in tracing.FUNCTIONS:
                layer_s[span[5]] += self_s
        assert len(pass_walls) >= 1
        assert all(layer <= wall for layer, wall in zip(layer_s, pass_walls)), (layer_s, pass_walls)
        assert min(pass_walls) <= result["metrics"]["trace.wall_s"]["value"] <= max(pass_walls)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "symbolic", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
