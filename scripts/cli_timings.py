"""Fresh-process `derive` wall times, base and change interleaved, added to a BENCH record.

    python3 scripts/cli_timings.py --record BENCH_<name>.json [--base REV] [--rounds 15]

Times `python -m parakahler derive` on every bundled Lagrangian and
Hamiltonian problem, one fresh interpreter per run, on the committed
files of REV (default HEAD) and on this working tree.  Each round runs
every problem once on both sides, the base first in even rounds and the
change first in odd ones.  Each side keeps its own bytecode cache
(PYTHONPYCACHEPREFIX), warmed by one untimed run per problem, as an
installed package would run.  The record gains "cli_derive": per
problem, each side's minimum and median in ms, and every run's time.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from bench_pairs import ROOT, export


def problems() -> list:
    paths = []
    for path in sorted(glob.glob(os.path.join(ROOT, "problems", "*.json"))):
        with open(path) as handle:
            if json.load(handle)["kind"] in ("lagrangian", "hamiltonian"):
                paths.append(path)
    return paths


def run_s(checkout: str, cache: str, problem: str, out: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=os.path.join(checkout, "src"), PYTHONPYCACHEPREFIX=cache)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-m", "parakahler", "derive", "--problem", problem,
                    "--out", out], env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="a BENCH_<name>.json to add to")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)

    paths = problems()
    with tempfile.TemporaryDirectory(prefix="cli-timings-") as workdir:
        base_sha, base_dir = export(args.base, workdir)
        sides = {side: (checkout, os.path.join(workdir, f"{side}-pycache"))
                 for side, checkout in (("base", base_dir), ("change", ROOT))}
        out = os.path.join(workdir, "out")
        times = {os.path.basename(p): {side: [] for side in sides} for p in paths}
        for side, (checkout, cache) in sides.items():
            for path in paths:
                run_s(checkout, cache, path, out)
        for k in range(args.rounds):
            for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                for path in paths:
                    times[os.path.basename(path)][side].append(
                        1e3 * run_s(*sides[side], path, out))

    summary = {name: {f"{side}_{stat}_ms": f(runs[side])
                      for side in sides for stat, f in (("min", min), ("median", statistics.median))}
               for name, runs in times.items()}
    for name, row in summary.items():
        print(f"{name}: min {row['base_min_ms']:.1f} -> {row['change_min_ms']:.1f} ms, "
              f"median {row['base_median_ms']:.1f} -> {row['change_median_ms']:.1f} ms")
    with open(args.record) as handle:
        record = json.load(handle)
    record["cli_derive"] = {
        "command": f"python -m parakahler derive, {args.rounds} interleaved rounds, "
                   "a warmed bytecode cache per side",
        "base": base_sha, "summary": summary, "runs_ms": times}
    with open(args.record, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
