"""Machine-level tests: event loop, synchronization, reference path."""

import pytest

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_UNLOCK, OP_WRITE)
from repro.workloads.base import Workload

from tests.conftest import Harness, protocol_config


class ScriptedWorkload(Workload):
    """A workload built from explicit per-CPU op scripts."""

    name = "scripted"
    cycles_per_ref = 0

    def __init__(self, scripts, shared_pages=4, private_pages=2):
        super().__init__()
        self.scripts = scripts
        self.shared_pages = shared_pages
        self.private_pages = private_pages
        self.problem = "scripted"

    def setup(self, layout, num_cpus):
        self.region = layout.attach_shared(
            key=77, size_bytes=self.shared_pages * layout.page_bytes)
        self.private = layout.add_private(
            self.private_pages * layout.page_bytes)

    def generator(self, cpu_id, num_cpus):
        return iter(self.scripts.get(cpu_id, []))


def run_scripted(scripts, **cfg_overrides):
    machine = Machine(protocol_config(**cfg_overrides), policy="scoma")
    wl = ScriptedWorkload(scripts)
    result = machine.run(wl)
    return machine, wl, result


def test_all_cpus_run_to_completion():
    scripts = {cpu: [(OP_COMPUTE, 100 * (cpu + 1))] for cpu in range(8)}
    machine, _, result = run_scripted(scripts)
    assert result.stats.execution_cycles == 800
    assert all(c.done for c in machine.cpus)


def test_barrier_synchronizes_all_cpus():
    scripts = {cpu: [(OP_COMPUTE, 100 * (cpu + 1)), (OP_BARRIER, 0),
                     (OP_COMPUTE, 10)]
               for cpu in range(8)}
    machine, _, result = run_scripted(scripts)
    cost = machine.config.latency.barrier_cost
    assert result.stats.execution_cycles == 800 + cost + 10
    # Every CPU left the barrier at the same time.
    finishes = {c.stats.finish_time for c in machine.cpus}
    assert finishes == {800 + cost + 10}


def test_lock_mutual_exclusion_serializes():
    scripts = {cpu: [(OP_LOCK, 5), (OP_COMPUTE, 100), (OP_UNLOCK, 5)]
               for cpu in range(8)}
    machine, _, result = run_scripted(scripts)
    # Eight critical sections of 100 cycles serialize.
    assert result.stats.execution_cycles >= 800
    assert machine.locks.contended_acquires == 7


def test_deadlock_detection():
    scripts = {cpu: [(OP_BARRIER, 0)] for cpu in range(7)}  # one missing
    scripts[7] = [(OP_COMPUTE, 1)]
    with pytest.raises(RuntimeError, match="deadlock"):
        run_scripted(scripts)


def test_unknown_op_rejected():
    scripts = {0: [(99, 1)]}
    scripts.update({c: [] for c in range(1, 8)})
    with pytest.raises(ValueError, match="unknown op"):
        run_scripted(scripts)


def test_reference_counters():
    h = Harness()
    wl = ScriptedWorkload({0: []})
    # Use the machine's accounting through a real run instead.
    machine = Machine(protocol_config(), policy="scoma")
    vbase = None

    class W(ScriptedWorkload):
        def setup(self, layout, num_cpus):
            super().setup(layout, num_cpus)
            self.scripts = {0: [(OP_READ, self.region.vbase),
                                (OP_WRITE, self.region.vbase),
                                (OP_READ, self.region.vbase + 32)]}

    result = machine.run(W({}))
    cpu0 = result.stats.cpus[0]
    assert cpu0.references == 3
    assert cpu0.reads == 2
    assert cpu0.writes == 1


def test_l1_and_l2_hit_costs():
    h = Harness()
    vaddr = h.private.vbase
    h.read(0, vaddr)
    assert h.read(0, vaddr) == h.machine.config.latency.l1_hit
    # Evict from L1 by touching two conflicting lines (L1 2-way).
    page = h.machine.config.page_bytes
    h.read(0, vaddr + page)
    h.read(0, vaddr + 2 * page)
    h.read(0, vaddr + 3 * page)
    h.read(0, vaddr + 4 * page)
    latency = h.read(0, vaddr)
    assert latency in (h.machine.config.latency.l2_hit,
                       h.machine.config.latency.expected_local_memory)


def test_tlb_miss_cost_charged():
    h = Harness()
    cfg = h.machine.config
    base = h.private.vbase
    lpp = cfg.lines_per_page
    for p in range(cfg.tlb_entries + 2):
        h.read(0, base + (p % 8) * cfg.page_bytes
               + ((p // 8) % lpp) * cfg.line_bytes)
    # All 8 private pages cycled through a 32-entry TLB without misses
    # (only 8 distinct pages): no TLB miss should have occurred.
    assert h.machine.cpus[0].stats.tlb_misses == 0


def test_execution_cycles_is_max_finish_time():
    scripts = {cpu: [(OP_COMPUTE, 10)] for cpu in range(8)}
    scripts[3] = [(OP_COMPUTE, 5000)]
    _, _, result = run_scripted(scripts)
    assert result.stats.execution_cycles == 5000


def test_utilization_accounting_counts_touched_lines():
    machine = Machine(protocol_config(), policy="scoma")

    class W(ScriptedWorkload):
        def setup(self, layout, num_cpus):
            super().setup(layout, num_cpus)
            # Touch 2 lines of one private page: utilization 2/8.
            self.scripts = {0: [(OP_READ, self.private.vbase),
                                (OP_READ, self.private.vbase + 32)]}

    result = machine.run(W({}))
    stats = result.stats
    assert stats.frames_allocated_total == 1
    assert stats.average_utilization == pytest.approx(2 / 8)


def test_build_machine_returns_a_plain_machine():
    # The benchmark harness builds machines through repro.sim.replay.
    from repro.sim.replay import build_machine
    assert type(build_machine()) is Machine
    machine = build_machine(MachineConfig(), policy="lanuma")
    assert machine.policy.name == "lanuma"
