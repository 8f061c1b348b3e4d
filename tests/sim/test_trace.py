"""Tests for the event tracer and the resource report."""

import pytest

import repro
from repro.obs.events import EventSink
from repro.sim.machine import Machine
from repro.obs.recorder import TraceRecorder
from repro.workloads import make_workload
from tests.conftest import event_counts


def run_traced(policy="scoma", kinds=None, cap=None, migration=False):
    cfg = repro.tiny_config(page_cache_frames=cap,
                            enable_migration=migration,
                            migration_threshold=16)
    machine = Machine(cfg, policy=policy)
    with TraceRecorder(machine, kinds=kinds) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    return machine, trace


def of_kind(trace, kind):
    return [e for e in trace.sink.events if e["kind"] == kind]


def test_records_accesses_and_faults():
    machine, trace = run_traced(kinds={"access", "fault"})
    summary = event_counts(trace.sink)
    assert summary["access"] == machine.stats.references
    assert summary["fault"] == machine.stats.page_faults
    assert summary["dropped"] == 0


def test_access_events_have_positive_latency():
    _, trace = run_traced(kinds={"access"})
    accesses = [e for e in trace.sink.events if e["kind"] == "access"]
    assert accesses and all(e["latency"] >= 1 for e in accesses)


def test_fault_events_classify_home():
    _, trace = run_traced(kinds={"fault"})
    faults = of_kind(trace, "fault")
    assert any(e["remote_home"] for e in faults)
    assert any(not e["remote_home"] for e in faults)
    assert any(e["mode"] == "LOCAL" for e in faults)
    assert any(e["mode"] == "SCOMA" for e in faults)


def test_pageouts_traced_under_capped_policy():
    machine, trace = run_traced(policy="dyn-lru", cap=3,
                                kinds={"pageout"})
    pageouts = of_kind(trace, "pageout")
    assert len(pageouts) == sum(
        n.client_page_outs + n.mode_promotions for n in machine.stats.nodes)
    assert any(e["demoted"] for e in pageouts)


def test_migrations_traced():
    machine, trace = run_traced(kinds={"migrate"}, migration=True)
    migrations = of_kind(trace, "migrate")
    assert len(migrations) == machine.migration.migrations
    # The probe fires inside MigrationManager.migrate, which knows the
    # home the page left.
    assert migrations
    assert all(0 <= e["old_home"] != e["new_home"] for e in migrations)


def test_detach_restores_hot_path():
    machine, trace = run_traced(kinds={"access"})
    # Leaving the recorder empties the registry it filled.
    assert machine.probes.access == ()


def test_max_events_drops_excess():
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    with TraceRecorder(machine, kinds={"access"},
                       sink=EventSink(capacity=10)) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert len(trace.sink.events) == 10
    assert trace.sink.dropped > 0


def test_ring_buffer_keeps_newest_events():
    # The capped recorder's window must be the *tail* of the full
    # trace, and dropped must account exactly for the rest.
    full = run_traced(kinds={"access"})[1]
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    with TraceRecorder(machine, kinds={"access"},
                       sink=EventSink(capacity=10)) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert trace.sink.events == full.sink.events[-10:]
    assert trace.sink.dropped == len(full.sink.events) - 10


def test_sink_forwarding_produces_schema_valid_events():
    from repro.obs.events import validate_event

    cfg = repro.tiny_config(page_cache_frames=3)
    machine = Machine(cfg, policy="dyn-lru")
    sink = EventSink()
    with TraceRecorder(machine, sink=sink) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert trace.sink is sink
    assert sink.events[-1]["seq"] == len(sink.events) + sink.dropped - 1
    kinds = set()
    for event in sink.events:
        validate_event(event)
        kinds.add(event["kind"])
    assert {"access", "fault", "pageout"} <= kinds
    seqs = [e["seq"] for e in sink.events]
    assert seqs == sorted(seqs)


def test_unknown_kind_rejected():
    machine = Machine(repro.tiny_config())
    with pytest.raises(ValueError):
        TraceRecorder(machine, kinds={"access", "vibes"})
    # No probe point records promotions (a promotion pages out the
    # LA-NUMA frame, which is recorded as a pageout event).
    with pytest.raises(ValueError):
        TraceRecorder(machine, kinds={"promote"})


def test_resource_report():
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    machine.run(make_workload("water-spa", "tiny"))
    report = machine.resource_report()
    assert all(0.0 <= v <= 1.0 for v in report.values())
    assert "node0.ctrl" in report
    hottest = machine.hottest_resources(3)
    assert len(hottest) == 3
    assert hottest[0][1] >= hottest[1][1] >= hottest[2][1]
