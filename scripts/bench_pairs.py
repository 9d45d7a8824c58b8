"""Alternating before/after runs of bench/run.py, written to BENCH_<name>.json.

    python3 scripts/bench_pairs.py --name NAME [--base REV] [--seeds 1-10]
        [--held-out 7919 --held-out-pairs 4] [--seconds 36]

The base side is a clean copy of the committed files of REV (default
HEAD, the commit the working tree sits on), exported with `git archive`
into a temporary directory; the change side is this working tree.  For
each workload BENCHMARK.json declares and each seed, one pair runs both
sides with `--trace 0`, the base first in even pairs and the change
first in odd ones, so drift of the host's speed falls on both sides
alike.  The held-out seed, when given, gets its own pairs.

The record keeps every run's end-to-end metrics and fail ratio.  Per
metric it gives each side's median and quartiles, the change in the
median, and in how many pairs the change was better (ties count for
neither side); the direction of "better" is read from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def export(rev: str, directory: str) -> tuple:
    """The commit rev names, and its committed files unpacked under directory."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = os.path.join(directory, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, sha], cwd=ROOT, check=True)
    checkout = os.path.join(directory, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(checkout)
    os.remove(archive)
    return sha, checkout


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run: its metrics as {name: value}, and its fail ratio."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["fail_ratio"] = result["failed"] / result["attempted"]
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: medians, quartiles, change of the median and pairs won."""
    summary = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        base_median, change_median = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        summary[name] = {
            "better": direction,
            "base_median": base_median, "base_q1": b_q1, "base_q3": b_q3,
            "change_median": change_median, "change_q1": c_q1, "change_q3": c_q3,
            "median_change": (change_median - base_median) / base_median if base_median else None,
            "change_better_in": f"{wins}/{len(pairs)}",
        }
    return summary


def run_pairs(base_dir: str, workload: str, seeds: list, seconds: float, better: dict) -> dict:
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(base_dir if side == "base" else ROOT, workload, seed, seconds)
        pairs.append(pair)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{m} {pair['base'][m]:.4g} -> {pair['change'][m]:.4g}" for m in better),
            flush=True)
    return {"pairs": pairs, "summary": summarize(pairs, better)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="written to BENCH_<name>.json")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--held-out", type=int, help="a seed not used while writing the change")
    parser.add_argument("--held-out-pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    better["fail_ratio"] = "lower"
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = parse_seeds(args.seeds)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        base_sha, base_dir = export(args.base, workdir)
        record = {
            "name": args.name,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "base": base_sha,
            "change": f"working tree on {head}",
            "command": f"bench/run.py --trace 0 --seconds {args.seconds:g}",
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "cpus": os.cpu_count()},
            "seeds": seeds,
            "workloads": {w: run_pairs(base_dir, w, seeds, args.seconds, better)
                          for w in workloads},
        }
        if args.held_out is not None:
            record["held_out"] = {
                "seed": args.held_out,
                "workloads": {w: run_pairs(base_dir, w, [args.held_out] * args.held_out_pairs,
                                           args.seconds, better) for w in workloads},
            }

    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
