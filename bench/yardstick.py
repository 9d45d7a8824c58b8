"""A fixed reference computation that gauges the host's speed while a run goes on.

On a shared host the same code runs 20-40% slower for stretches of
seconds to minutes, in CPU time as much as in wall time.  The runner
times this computation between jobs, in the same process, and reports
end-to-end timings in its units ("ref": one run of `yardstick`), which
cancels that drift.  It never calls the package, so no change to the
package can change its cost.  Its mix mirrors the workloads: closure
calls (bound expression evaluation), small numpy updates (fixed-step
integration) and tuple trees built and walked recursively (symbolic
expressions).
"""

from time import perf_counter

import numpy as np

INTERVAL_S = 0.075      # at most one measurement per this much job time
RUNS = 3                # yardstick runs per measurement; their median is the sample


def yardstick() -> float:
    acc = 0.0
    fs = tuple((lambda s, i=i: s[i % 4] * 1.5 + 0.5) for i in range(8))
    state = (0.1, 0.2, 0.3, 0.4)
    for _ in range(60):
        acc += sum(f(state) for f in fs)
    x = np.zeros(4)
    k = np.ones(4)
    for _ in range(60):
        x = x + 0.01 * (k + 2.0 * x)
    return acc + float(x[0]) + _size(_build(7))


def _build(depth: int) -> tuple:
    return (depth,) if depth == 0 else (_build(depth - 1), _build(depth - 1))


def _size(tree: tuple) -> int:
    return 1 if len(tree) == 1 else 1 + _size(tree[0]) + _size(tree[1])


def measure() -> tuple:
    """(end time, median duration) of RUNS yardstick runs."""
    durations = []
    for _ in range(RUNS):
        t0 = perf_counter()
        yardstick()
        durations.append(perf_counter() - t0)
    return perf_counter(), sorted(durations)[RUNS // 2]
