"""The event loop's scheduling order, on both engines.

Heap entries are packed ints (``time << shift | cpu_id``); they must
order exactly like the ``(time, cpu_id)`` tuples they replace.  A lock
makes the order visible: CPUs contending for it at equal times are
queued in the order the scheduler runs them, and each one's finish
time follows its place in the queue.
"""

from dataclasses import replace

import pytest

from repro.faults.plan import FaultPlan
from repro.sim.config import MachineConfig, tiny_config
from repro.sim.engine import SchedulePerturbation
from repro.sim.machine import Machine
from repro.sim.replay import VectorMachine, build_machine
from repro.workloads.base import Workload, compute, lock, unlock
from repro.workloads.synthetic import SyntheticWorkload

#: (nodes, cpus per node): a CPU count that is not a power of two, and
#: the paper's 32x8 machine.
GEOMETRIES = [(3, 3), (32, 8)]


class LockQueue(Workload):
    """Every CPU takes one lock once, does some work, releases it."""

    name = "lock-queue"

    def __init__(self, work: int = 100) -> None:
        super().__init__()
        self.work = work

    def setup(self, layout, num_cpus):
        pass

    def generator(self, cpu_id, num_cpus):
        yield lock(0)
        yield compute(self.work)
        yield unlock(0)


def finish_order(machine) -> "list[int]":
    stats = machine.stats.cpus
    return sorted(range(len(stats)),
                  key=lambda cid: (stats[cid].finish_time, cid))


def run_queue(nodes, per_node, engine, schedule=None):
    config = MachineConfig(num_nodes=nodes, cpus_per_node=per_node,
                           directory_cache_entries=64, engine=engine)
    machine = build_machine(config, policy="scoma", schedule=schedule)
    machine.run(LockQueue())
    return machine


@pytest.mark.parametrize("engine", ["interp", "vector"])
@pytest.mark.parametrize("nodes,per_node", GEOMETRIES)
def test_equal_times_resume_in_cpu_id_order(nodes, per_node, engine):
    machine = run_queue(nodes, per_node, engine)
    num_cpus = nodes * per_node
    assert finish_order(machine) == list(range(num_cpus))
    finish = [cpu.finish_time for cpu in machine.stats.cpus]
    assert len(set(finish)) == num_cpus  # a strict queue, no ties


@pytest.mark.parametrize("engine", ["interp", "vector"])
@pytest.mark.parametrize("nodes,per_node", GEOMETRIES)
def test_start_offsets_are_honoured(nodes, per_node, engine):
    num_cpus = nodes * per_node
    # Repeating offsets leave ties at each offset, broken by cpu_id.
    offsets = (40, 0, 40, 7, 0)
    schedule = SchedulePerturbation(cpu_offsets=offsets)
    machine = run_queue(nodes, per_node, engine, schedule)
    expected = sorted(range(num_cpus),
                      key=lambda cid: (offsets[cid % len(offsets)], cid))
    assert finish_order(machine) == expected


@pytest.mark.parametrize("nodes,per_node", GEOMETRIES)
def test_engines_agree_under_start_offsets(nodes, per_node):
    schedule = SchedulePerturbation(cpu_offsets=(40, 0, 40, 7, 0))
    interp = run_queue(nodes, per_node, "interp", schedule)
    vector = run_queue(nodes, per_node, "vector", schedule)
    assert vector.stats.to_dict() == interp.stats.to_dict()


@pytest.mark.parametrize("num_cpus,shift", [(1, 0), (2, 1), (9, 4),
                                            (256, 8)])
def test_heap_keys_are_packed_ints(num_cpus, shift):
    config = MachineConfig(num_nodes=num_cpus, cpus_per_node=1,
                           directory_cache_entries=64)
    offsets = (5, 0, 5)
    machine = Machine(config, schedule=SchedulePerturbation(offsets))
    assert machine._key_shift == shift
    heap = machine._new_heap()
    assert all(type(key) is int for key in heap)
    mask = (1 << shift) - 1
    decoded = sorted((key >> shift, key & mask) for key in heap)
    assert [(key >> shift, key & mask) for key in sorted(heap)] == decoded
    assert decoded == sorted((offsets[cid % 3], cid)
                             for cid in range(num_cpus))


def _synthetic():
    return SyntheticWorkload("migratory", shared_kb=8, iterations=2)


@pytest.mark.parametrize("guard,interp", [
    ({}, False),
    ({"faults": FaultPlan()}, True),
    ({"deadline": 10 ** 12}, True),
    ({"faults": FaultPlan(), "deadline": 10 ** 12}, True),
], ids=["none", "faults", "deadline", "both"])
def test_vector_engine_takes_the_interpreter_under_a_guard(guard, interp):
    vector = VectorMachine(replace(tiny_config(), engine="vector"),
                           policy="scoma", **guard)
    got = vector.run(_synthetic()).stats.to_dict()
    assert vector._interp_mode == interp
    want = Machine(tiny_config(), policy="scoma", **guard).run(
        _synthetic()).stats.to_dict()
    assert got == want
