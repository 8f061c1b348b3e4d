"""Unit tests for the structured event sink."""

import json

import pytest

from repro.obs.events import (EVENT_SCHEMA, EventSink, validate_event,
                              validate_jsonl)
from tests.conftest import event_counts


def access(sink, seq_time=0):
    return sink.emit("access", time=seq_time, cpu=0, vaddr=64,
                     write=False, latency=2)


def test_emit_assigns_monotonic_seq_and_kind():
    sink = EventSink()
    first = access(sink)
    second = sink.emit("fault", time=5, node=1, vpage=2, gpage=3,
                       mode="SCOMA", remote_home=True)
    assert (first["seq"], second["seq"]) == (0, 1)
    assert first["kind"] == "access"
    assert len(sink.events) == 2
    assert event_counts(sink) == {"access": 1, "fault": 1, "dropped": 0}


def test_unknown_kind_rejected():
    sink = EventSink()
    with pytest.raises(ValueError, match="unknown event kind"):
        sink.emit("vibes", time=0)


def test_ring_buffer_keeps_newest_and_counts_drops():
    sink = EventSink(capacity=3)
    for t in range(10):
        access(sink, t)
    assert sink.dropped == 7
    assert len(sink.events) + sink.dropped == 10
    assert [e["seq"] for e in sink.events] == [7, 8, 9]


def test_jsonl_round_trip_validates():
    sink = EventSink()
    access(sink)
    sink.emit("migrate", gpage=4, old_home=0, new_home=2)
    for line in sink.to_jsonl().splitlines():
        validate_event(json.loads(line))


def test_write_and_validate_jsonl(tmp_path):
    sink = EventSink(capacity=4)
    for t in range(9):
        access(sink, t)
    path = str(tmp_path / "trace.jsonl")
    assert sink.write_jsonl(path) == 4
    # Gaps from ring drops are fine; ordering must hold.
    assert validate_jsonl(path) == 4


def test_validate_jsonl_rejects_reordering(tmp_path):
    path = tmp_path / "bad.jsonl"
    a = {"seq": 5, "kind": "node_fail", "time": 1, "node": 0}
    b = {"seq": 4, "kind": "node_fail", "time": 2, "node": 1}
    path.write_text(json.dumps(a) + "\n" + json.dumps(b) + "\n")
    with pytest.raises(ValueError, match="sequence went backwards"):
        validate_jsonl(str(path))


def test_validate_event_checks_fields_and_types():
    good = {"seq": 0, "kind": "pageout", "time": 1, "node": 0,
            "frame": 3, "demoted": True}
    validate_event(good)
    with pytest.raises(ValueError, match="missing field"):
        validate_event({k: v for k, v in good.items() if k != "frame"})
    # bool is not an acceptable int (and vice versa).
    with pytest.raises(ValueError, match="expected int"):
        validate_event(dict(good, frame=True))
    with pytest.raises(ValueError, match="expected bool"):
        validate_event(dict(good, demoted=1))
    with pytest.raises(ValueError, match="bad seq"):
        validate_event(dict(good, seq=-1))


def test_schema_covers_all_trace_event_kinds():
    # The schema may define more kinds than the trace recorder produces
    # (the verification tap emits "read"/"write"), but every trace kind
    # must have a schema entry.
    from repro.sim.trace import KINDS
    assert set(KINDS) <= set(EVENT_SCHEMA)
