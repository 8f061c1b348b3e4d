#!/usr/bin/env python
"""Gate the causal-tracing overhead on a hit-dominated hot loop.

Times one cell best-of-``ROUNDS`` untraced, then again under a
:class:`~repro.obs.tracing.TraceCollector`, and exits 1 when the
traced run is more than ``TOLERANCE`` slower.  The tracer only opens
spans on slow paths — cache hits never touch it — so the cell is a
warmed-up block sweep whose working set fits in cache (miss rate
under 1%) on a 2-node, 2-CPU machine.  A cold-miss cell would instead
measure per-transaction span cost, which tracing makes no claim about.

Usage::

    PYTHONPATH=src python tools/trace_overhead.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.obs import tracing
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.synthetic import SyntheticWorkload

#: Timed rounds per arm; the best (minimum) wall time of each is kept.
ROUNDS = 5
#: Allowed traced-over-untraced slowdown.
TOLERANCE = 0.15

CELL = "block-hot/scoma"


def one(traced: bool) -> float:
    """Wall seconds of one run of the cell, optionally traced."""
    if traced:
        collector = tracing.install(tracing.TraceCollector(seed=0))
    try:
        machine = Machine(MachineConfig(num_nodes=2, cpus_per_node=2,
                                        directory_cache_entries=256),
                          policy="scoma")
        workload = SyntheticWorkload("block", shared_kb=8,
                                     refs_per_cpu_per_iter=2000,
                                     iterations=20)
        start = time.perf_counter()
        machine.run(workload)
        wall = time.perf_counter() - start
    finally:
        if traced:
            assert collector.finished > 0
            tracing.uninstall()
    return wall


def main() -> int:
    # Interleave the two arms (after one discarded warm-up each) so
    # slow host phases depress both equally; best-of filters the rest.
    one(False), one(True)
    plain, traced = [], []
    for _ in range(ROUNDS):
        plain.append(one(False))
        traced.append(one(True))
    plain, traced = min(plain), min(traced)
    slowdown = traced / plain
    print("== tracing overhead gate (tolerance %.0f%%) ==" % (TOLERANCE * 100))
    print("  %-20s untraced %8.3fs  traced %8.3fs  (%+.1f%%)"
          % (CELL, plain, traced, (slowdown - 1.0) * 100))
    if slowdown > 1.0 + TOLERANCE:
        print("trace overhead: traced run is %.0f%% slower than untraced "
              "(limit %.0f%%)" % ((slowdown - 1.0) * 100, TOLERANCE * 100))
        return 1
    print("trace overhead: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
