"""The fault plane's per-key checks, pinned on fixed tiny-fft runs.

The event loop pops its heap through ``FaultInjector.admit``, which
applies the deadline, scheduled failures and pause windows to every key
it hands out.  Each run below pins how a run under one fixed
``(plan, seed, deadline)`` ends: the exception text, every
``FaultStats`` counter, ``execution_cycles`` and the references
executed.  A change in when a check fires (a deadline tested only on
the first pop, a failure applied late, a requeue that skips the
deadline) moves at least one of them.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultStats
from repro.sim.config import tiny_config
from repro.sim.machine import Machine
from repro.workloads import make_workload

pytestmark = pytest.mark.faults

PAUSE_BOTH = (FaultPlan().pause_node(0, start=20_000, end=400_000)
              .pause_node(1, start=20_000, end=400_000))

#: name -> (plan, seed, deadline, error, nonzero FaultStats,
#: execution_cycles, references).
RUNS = {
    "pause": (
        FaultPlan().pause_node(1, start=0, end=50_000), 0, None, None,
        {"judged": 840, "paused_deliveries": 1}, 414772, 4752),
    "pause-one-node-past-deadline": (
        FaultPlan().pause_node(0, start=20_000, end=400_000), 0, 100_000,
        "DeadlineExceeded: simulated-time deadline 100000 exceeded at "
        "cycle 400171",
        {"judged": 22, "paused_deliveries": 1}, 0, 30),
    # Every CPU is paused, so the key that trips the deadline is one the
    # pause requeued: it comes back at exactly the window's end.
    "pause-requeue-past-deadline": (
        PAUSE_BOTH, 0, 100_000,
        "DeadlineExceeded: simulated-time deadline 100000 exceeded at "
        "cycle 400000",
        {"judged": 22, "paused_deliveries": 1}, 0, 29),
    "scheduled-failure": (
        FaultPlan().fail_node(1, at=10_000), 0, None,
        "UnreachableNodeError: node 0: DATA_REPLY to failed node 1 is "
        "undeliverable",
        {"judged": 9, "scheduled_failures": 1, "undeliverable": 1}, 0, 9),
    "deadline-only": (
        FaultPlan(), 0, 50_000,
        "DeadlineExceeded: simulated-time deadline 50000 exceeded at "
        "cycle 52725",
        {"judged": 68}, 0, 100),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_ends_as_recorded(name):
    plan, seed, deadline, error, nonzero, cycles, references = RUNS[name]
    injector = FaultInjector(plan, seed=seed, deadline=deadline)
    machine = Machine(tiny_config(), policy="scoma", faults=injector)
    try:
        try:
            machine.run(make_workload("fft", preset="tiny"))
            raised = None
        except RuntimeError as exc:
            raised = "%s: %s" % (type(exc).__name__, exc)
        assert raised == error
        expected = dict.fromkeys(FaultStats.FIELDS, 0)
        expected.update(nonzero)
        assert injector.stats.to_dict() == expected
        assert machine.stats.execution_cycles == cycles
        assert sum(cpu.stats.references for cpu in machine.cpus) == references
    finally:
        machine.close()
