#!/usr/bin/env python
"""Gate the causal-tracing overhead on a hit-dominated hot loop.

Counts the Python calls per simulated reference of one cell under
``sys.setprofile``, untraced and then under a
:class:`~repro.obs.tracing.TraceCollector`, and exits 1 when tracing
adds more than ``LIMIT`` calls per reference.  The tracer only opens
spans on slow paths -- cache hits never touch it -- so the cell is a
warmed-up block sweep whose working set fits in cache (miss rate under
1%) on a 2-node, 2-CPU machine: its few misses add a fraction of a
call per reference, while a tracer hook on every hit adds at least
one.  The count is exact, so the gate reads the same on any host.

Usage::

    PYTHONPATH=src python tools/trace_overhead.py
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.obs import tracing
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.synthetic import SyntheticWorkload

#: Allowed extra Python calls per simulated reference under tracing.
LIMIT = 0.5

CELL = "block-hot/scoma"


def calls_per_ref(traced: bool) -> float:
    """Python calls per simulated reference of one run of the cell."""
    calls = 0

    def hook(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    scope = tracing.collecting(seed=0) if traced else nullcontext()
    with scope as collector:
        machine = Machine(MachineConfig(num_nodes=2, cpus_per_node=2,
                                        directory_cache_entries=256),
                          policy="scoma")
        workload = SyntheticWorkload("block", shared_kb=8,
                                     refs_per_cpu_per_iter=2000,
                                     iterations=20)
        try:
            sys.setprofile(hook)
            try:
                references = machine.run(workload).stats.references
            finally:
                sys.setprofile(None)
        finally:
            machine.close()
    if traced:
        assert collector.finished > 0
    return calls / references


def main() -> int:
    plain, traced = calls_per_ref(False), calls_per_ref(True)
    added = traced - plain
    print("== tracing overhead gate (limit +%.1f calls/ref) ==" % LIMIT)
    print("  %-20s untraced %.3f  traced %.3f calls/ref  (%+.3f)"
          % (CELL, plain, traced, added))
    if added > LIMIT:
        print("trace overhead: tracing adds %.3f Python calls per "
              "reference (limit %.1f)" % (added, LIMIT))
        return 1
    print("trace overhead: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
