#!/usr/bin/env python
"""Quickstart: build a PRISM machine, run a workload, read the stats.

Builds the default 32-processor machine (8 SMP nodes x 4 CPUs), runs
the FFT kernel under the Dyn-LRU adaptive page-mode policy, and prints
the headline statistics next to a pure-S-COMA baseline run.

Usage::

    python examples/quickstart.py [workload] [preset]

e.g. ``python examples/quickstart.py radix small``.
"""

import sys

from repro import APPLICATIONS, Machine, MachineConfig, make_workload
from repro.harness.session import scoma_caps


def run(workload_name: str, policy: str, preset: str,
        page_cache_frames=None):
    config = MachineConfig(page_cache_frames=page_cache_frames)
    machine = Machine(config, policy=policy)
    result = machine.run(make_workload(workload_name, preset))
    return result


def main() -> int:
    workload = sys.argv[1] if len(sys.argv) > 1 else "fft"
    preset = sys.argv[2] if len(sys.argv) > 2 else "small"
    if workload not in APPLICATIONS:
        print("unknown workload %r; choose from: %s"
              % (workload, ", ".join(APPLICATIONS)))
        return 1

    print("PRISM quickstart: %s (%s preset) on 8 nodes x 4 CPUs" %
          (workload, preset))

    baseline = run(workload, "scoma", preset)
    print("\nSCOMA (infinite page cache — the paper's optimum):")
    for key, value in baseline.stats.summary().items():
        print("  %-22s %s" % (key, value))

    # Give the adaptive run a constrained page cache: 70% of what the
    # SCOMA run used at each node, as in the paper's section 4.2.
    caps = scoma_caps(baseline.stats)
    adaptive = Machine(MachineConfig(), policy="dyn-lru",
                       page_cache_override=caps)
    result = adaptive.run(make_workload(workload, preset))
    print("\nDyn-LRU with the page cache capped at 70%% of SCOMA's:")
    for key, value in result.stats.summary().items():
        print("  %-22s %s" % (key, value))

    ratio = (result.stats.execution_cycles
             / baseline.stats.execution_cycles)
    saved = sum(n.scoma_client_frames_peak for n in baseline.stats.nodes)
    used = sum(caps)
    print("\nDyn-LRU runs at %.2fx the SCOMA execution time while "
          "holding at most %d client page frames (SCOMA peaked at %d)."
          % (ratio, used, saved))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
