"""Host speed, measured with a fixed pure-Python reference kernel.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 1.8x in phases of seconds to minutes, each virtual CPU on its own.
``run.py`` therefore pins each command to fixed CPUs, times this kernel in
its own process on the same CPUs right before and right after every command,
and reports each command's time scaled to the reference speed:

    time at reference speed = measured time * REFERENCE_S / kernel time

The kernel does the kind of work the package does (set unions and lookups on
a sparse graph, tuple sorting, dict counting) and does not import the
package, so no change to ``src/`` can move it.  ``REFERENCE_S`` is the
kernel's median time on the machine the benchmark was written on (2 vCPUs,
Python 3.11) and must stay fixed: changing it rescales every reported time.
"""

from __future__ import annotations

import os
import random
import statistics
import time

REFERENCE_S = 0.015
# Timed passes per measurement; the median is taken.
PASSES = 9

_GRAPH_N = 3000
_GRAPH_EDGES = 12000
_STATES = 600
_STATE_SIZE = 4


def _graph():
    rng = random.Random(20240226)
    adj = [set() for _ in range(_GRAPH_N)]
    while sum(len(a) for a in adj) < 2 * _GRAPH_EDGES:
        u, v = rng.randrange(_GRAPH_N), rng.randrange(_GRAPH_N)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    starts = [rng.randrange(_GRAPH_N) for _ in range(_STATES)]
    return adj, starts


_ADJ, _STARTS = _graph()


def _kernel() -> int:
    """Grow a connected vertex set from each start, classify it by its
    sorted degree sequence, and count the classes."""
    adj = _ADJ
    counts: dict[tuple, int] = {}
    for root in _STARTS:
        chosen = [root]
        frontier = set(adj[root])
        while len(chosen) < _STATE_SIZE and frontier:
            w = min(frontier)
            chosen.append(w)
            frontier = (frontier | adj[w]).difference(chosen)
        members = set(chosen)
        key = tuple(sorted(len(adj[v] & members) for v in chosen))
        counts[key] = counts.get(key, 0) + 1
        for v in chosen:
            for u in adj[v]:
                if u in members:
                    counts[key] += 1
    return sum(counts.values())


def cpus_for(processes: int) -> set[int]:
    """The CPUs a command with this many busy processes is pinned to."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[:processes])


def kernel_seconds(cpus: set[int]) -> float:
    """The median wall time of one pass of the reference kernel now, over
    ``PASSES`` passes on each CPU of ``cpus`` in turn.  On return this
    process is pinned to ``cpus``, so the commands it starts next run where
    the kernel ran."""
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            for _ in range(PASSES):
                t0 = time.perf_counter()
                _kernel()
                times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def speed(before: float, after: float) -> float:
    """Host speed over an interval, relative to the reference machine, from
    the kernel times measured right before and right after it."""
    return REFERENCE_S / ((before * after) ** 0.5)


if __name__ == "__main__":
    for _ in range(10):
        print(f"{kernel_seconds(cpus_for(1)) * 1e3:.2f} ms")
