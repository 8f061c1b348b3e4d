"""Fault containment under node failure (section 3.3).

"If a node fails, the rest of the nodes may continue running, although
applications using resources on the failed node may be terminated."
"""

import pytest

from repro.core.controller import NodeFailedError
from repro.sim.invariants import check_machine

from tests.conftest import Harness, event_counts


@pytest.fixture
def degraded():
    """A harness with live traffic, after which node 2 fail-stops."""
    h = Harness()
    for node in (0, 1, 2, 3):
        page = h.page_homed_at(node if node != 2 else 1)
        h.read(h.cpu_on_node(node if node != 2 else 0), h.vaddr(page, 0))
    h.machine.fail_node(2)
    return h


def test_survivors_keep_running(degraded):
    h = degraded
    page = h.page_homed_at(1)
    h.read(h.cpu_on_node(0), h.vaddr(page, 1))
    h.write(h.cpu_on_node(3), h.vaddr(page, 2))
    assert h.node(0).stats.remote_misses > 0


def test_access_to_page_homed_on_dead_node_fails(degraded):
    h = degraded
    page = h.page_homed_at(2)
    with pytest.raises(NodeFailedError, match="failed"):
        h.read(h.cpu_on_node(0), h.vaddr(page, 0))


def test_line_owned_by_dead_node_is_lost(degraded):
    h = degraded
    page = h.page_homed_at(1)
    # Give node 2 exclusive ownership of a line *before* it dies.
    h2 = Harness()
    page = h2.page_homed_at(1)
    h2.write(h2.cpu_on_node(2), h2.vaddr(page, 3))
    h2.machine.fail_node(2)
    with pytest.raises(NodeFailedError, match="owned by failed"):
        h2.read(h2.cpu_on_node(0), h2.vaddr(page, 3))


def test_invalidations_skip_dead_sharers():
    h = Harness()
    page = h.page_homed_at(1)
    line = h.vaddr(page, 0)
    h.read(h.cpu_on_node(0), line)
    h.read(h.cpu_on_node(2), line)     # node 2 becomes a sharer
    h.machine.fail_node(2)
    # Node 0's write must complete: the dead sharer is acknowledged by
    # timeout, not waited on.
    h.write(h.cpu_on_node(0), line)
    dl = h.dir_line(page, 0)
    assert dl.owner == 0
    assert 2 not in dl.sharers


def test_dead_cpus_do_not_run():
    from repro.sim.machine import Machine
    from repro.workloads import make_workload
    from tests.conftest import protocol_config
    machine = Machine(protocol_config(), policy="scoma")
    machine.fail_node(3)
    assert all(cpu.done for cpu in machine.nodes[3].cpus)


def test_fail_unknown_node_rejected():
    h = Harness()
    with pytest.raises(ValueError):
        h.machine.fail_node(99)


def test_survivor_state_remains_coherent(degraded):
    h = degraded
    page = h.page_homed_at(1)
    for lip in range(4):
        h.read(h.cpu_on_node(0), h.vaddr(page, lip))
        h.write(h.cpu_on_node(3), h.vaddr(page, lip))
    problems = [p for p in check_machine(h.machine)
                # the dead node's frozen state is exempt
                if "node 2" not in p and "(home 2)" not in p]
    assert problems == []


def test_lanuma_access_to_failed_home_fails():
    # LA-NUMA pages have no local backing: every miss goes to the home,
    # so a failed home is fatal for that page even after earlier hits.
    h = Harness(policy="lanuma")
    page = h.page_homed_at(2)
    h.read(h.cpu_on_node(0), h.vaddr(page, 0))   # works while 2 is alive
    h.machine.fail_node(2)
    with pytest.raises(NodeFailedError):
        h.read(h.cpu_on_node(0), h.vaddr(page, 1))


def test_fail_node_eagerly_prunes_sharer_lists():
    h = Harness()
    page = h.page_homed_at(1)
    line = h.vaddr(page, 0)
    h.read(h.cpu_on_node(0), line)
    h.read(h.cpu_on_node(2), line)
    dl = h.dir_line(page, 0)
    assert 2 in dl.sharers
    h.machine.fail_node(2)
    # Pruned at failure time — no write needed to flush the dead sharer.
    assert 2 not in dl.sharers
    assert 0 in dl.sharers


def test_fail_node_prunes_sole_sharer_back_to_home_excl():
    from repro.core.directory import DirState
    h = Harness()
    page = h.page_homed_at(1)
    line = h.vaddr(page, 0)
    h.read(h.cpu_on_node(2), line)               # node 2 is the only sharer
    h.machine.fail_node(2)
    dl = h.dir_line(page, 0)
    assert dl.sharers == set() or not dl.sharers
    assert dl.state == DirState.HOME_EXCL


def test_fail_node_resets_stale_migration_hints():
    h = Harness()
    page = h.page_homed_at(1)
    h.read(h.cpu_on_node(0), h.vaddr(page, 0))
    entry = h.entry_at(0, page)
    gpage = h.gpage(page)
    # Simulate a stale lazy-migration hint pointing at the doomed node.
    entry.dynamic_home = 2
    entry.home_frame = None
    h.machine.fail_node(2)
    assert entry.dynamic_home == h.machine.dynamic_home_of(gpage)
    assert entry.dynamic_home != 2
    assert entry.home_frame is None


def test_fail_node_emits_obs_counters():
    from repro import obs
    with obs.collecting() as registry:
        h = Harness()
        page = h.page_homed_at(1)
        h.read(h.cpu_on_node(2), h.vaddr(page, 0))
        h.machine.fail_node(2)
    snapshot = registry.to_dict()
    assert snapshot["counters"]["sim.node_failures{node=2}"] == 1
    assert snapshot["counters"]["sim.failover_sharers_pruned"] >= 1
    assert snapshot["gauges"]["sim.failed_nodes"] == 1


def test_fail_node_is_idempotent():
    from repro import obs
    with obs.collecting() as registry:
        h = Harness()
        h.machine.fail_node(2)
        h.machine.fail_node(2)   # no-op, no double counting
    assert h.machine.failed_nodes == {2}
    assert registry.to_dict()["counters"]["sim.node_failures{node=2}"] == 1


def test_trace_recorder_records_node_fail():
    from repro.sim.trace import TraceRecorder
    h = Harness()
    with TraceRecorder(h.machine, kinds={"node_fail"}) as trace:
        h.machine.fail_node(2, now=1_234)
        h.machine.fail_node(2, now=2_000)   # no-op, no second event
    assert trace.sink.events == [
        {"seq": 0, "kind": "node_fail", "time": 1_234, "node": 2}]
    assert event_counts(trace.sink)["node_fail"] == 1
