#!/usr/bin/env python
"""Regenerate the golden tiny-preset statistics fixture.

Runs every (application, policy) cell at the ``tiny`` preset and writes
the full ``MachineStats.to_dict()`` of each to
``tests/integration/golden_tiny_stats.json``.  The committed fixture is
the reference that ``tests/integration/test_golden_stats.py`` diffs
against; rerun this script (and review the diff!) whenever an
intentional change shifts simulation results:

    PYTHONPATH=src python tools/update_golden.py
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "integration" / "golden_tiny_stats.json"


def compute_golden(**machine_kwargs) -> "dict[str, dict]":
    """Simulate every (app, policy) cell at the tiny preset.

    ``machine_kwargs`` go to every machine built (for example an empty
    ``faults`` plan and an unreachable ``deadline``, which must not
    change any cell either).
    """
    from repro.core.policies import POLICY_NAMES
    from repro.sim.config import tiny_config
    from repro.sim.machine import Machine
    from repro.workloads import ALL_APPLICATIONS, make_workload

    cells = {}
    for app in ALL_APPLICATIONS:
        for policy in POLICY_NAMES:
            machine = Machine(tiny_config(), policy=policy,
                              **machine_kwargs)
            machine.run(make_workload(app, preset="tiny"))
            cells["%s/%s" % (app, policy)] = machine.stats.to_dict()
    return cells


def main() -> int:
    cells = compute_golden()
    FIXTURE.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d cells)" % (FIXTURE, len(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
