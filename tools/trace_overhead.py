#!/usr/bin/env python
"""Gate the observers' overhead on a hit-dominated hot loop.

Counts the Python calls per simulated reference of one cell under
``sys.setprofile``: untraced, under a
:class:`~repro.obs.tracing.TraceCollector`, and with only a metrics
registry installed.  It exits 1 when tracing adds more than ``LIMIT``
calls per reference, or the registry more than ``METRICS_LIMIT``.  The
tracer only opens spans on slow paths -- cache hits never touch it --
so the cell is a warmed-up block sweep whose working set fits in cache
(miss rate under 1%) on a 2-node, 2-CPU machine: its few misses add a
fraction of a call per reference, while a tracer hook on every hit
adds at least one.  The registry's one hit-path probe is the
access-latency histogram, one call per reference that updates the
histogram in place, so a second call per reference on a hit path (an
``observe`` frame, another probe) crosses its bound.  The count is exact, so
the gate reads the same on any host.

Usage::

    PYTHONPATH=src python tools/trace_overhead.py
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro import obs
from repro.obs import tracing
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.synthetic import SyntheticWorkload

#: Allowed extra Python calls per simulated reference under tracing.
LIMIT = 0.5

#: Allowed extra Python calls per simulated reference with only a
#: metrics registry installed: the reading when the registry's probes
#: were set (161,086 calls over the cell's 160,000 references).
METRICS_LIMIT = 1.0067875

CELL = "block-hot/scoma"


def calls_per_ref(scope=nullcontext) -> "tuple[float, object]":
    """Python calls per simulated reference of one run of the cell
    built inside ``scope()``, and the observer the scope yielded."""
    calls = 0

    def hook(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    with scope() as observer:
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
    return calls / references, observer


def main() -> int:
    plain, _ = calls_per_ref()
    traced, collector = calls_per_ref(lambda: tracing.collecting(seed=0))
    assert collector.finished > 0
    metrics, registry = calls_per_ref(obs.collecting)
    assert len(registry) > 0
    failed = False
    for name, observed, limit in (("traced", traced, LIMIT),
                                  ("metrics", metrics, METRICS_LIMIT)):
        # Rounded: the counts are exact, their float difference is not.
        added = round(observed - plain, 8)
        print("== %s overhead gate (limit +%s calls/ref) ==" % (name, limit))
        print("  %-20s untraced %.3f  %s %.3f calls/ref  (+%s)"
              % (CELL, plain, name, observed, added))
        if added > limit:
            print("%s overhead: adds %s Python calls per reference "
                  "(limit %s)" % (name, added, limit))
            failed = True
    if failed:
        return 1
    print("trace overhead: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
