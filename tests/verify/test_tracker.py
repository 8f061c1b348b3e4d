"""Tests for the value tap (repro.verify.tracker)."""

import pytest

from repro.obs.events import EventSink, validate_event
from repro.sim.machine import Machine
from repro.verify import ValueTracker, suite_by_name
from repro.verify.litmus import LitmusWorkload

pytestmark = pytest.mark.verify


def _tracked_run(name="mp_scoma"):
    test = suite_by_name()[name]
    machine = Machine(test.build_config(), policy=test.policy)
    sink = EventSink()
    tracker = ValueTracker(machine, sink)
    machine.run(LitmusWorkload(test))
    tracker.detach()
    return machine, sink, tracker


def test_records_every_reference_as_read_or_write_event():
    machine, sink, _tracker = _tracked_run()
    reads = [e for e in sink.events if e["kind"] == "read"]
    writes = [e for e in sink.events if e["kind"] == "write"]
    assert len(reads) == sum(c.stats.reads for c in machine.cpus)
    assert len(writes) == sum(c.stats.writes for c in machine.cpus)
    for event in sink.events:
        validate_event(event)


def test_write_versions_are_unique_and_ordered():
    _machine, sink, tracker = _tracked_run()
    versions = [e["version"] for e in sink.events if e["kind"] == "write"]
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)
    assert tracker.version == len(versions)


def test_reads_observe_latest_write_on_a_correct_machine():
    machine, sink, _tracker = _tracked_run()
    latest = {}
    shift = machine._line_shift
    for event in sink.events:
        vline = event["vaddr"] >> shift
        if event["kind"] == "write":
            latest[vline] = event["version"]
        else:
            assert event["value"] == latest.get(vline, 0)


def test_detach_restores_the_class_reference_path():
    test = suite_by_name()["mp_scoma"]
    machine = Machine(test.build_config(), policy=test.policy)
    unwrapped = machine._access
    tracker = ValueTracker(machine, EventSink())
    assert machine.probes.access == (tracker._on_access,)
    tracker.detach()
    assert machine.probes.access == ()
    assert machine._access == unwrapped
    tracker.detach()  # idempotent


def test_tracking_does_not_change_timing_or_stats():
    test = suite_by_name()["sb_scoma"]
    plain = Machine(test.build_config(), policy=test.policy)
    plain.run(LitmusWorkload(test))
    tracked, _sink, _tracker = _tracked_run("sb_scoma")
    assert (tracked.stats.execution_cycles
            == plain.stats.execution_cycles)
    assert tracked.stats.references == plain.stats.references
    assert tracked.stats.remote_misses == plain.stats.remote_misses
