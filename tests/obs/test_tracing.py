"""Tests for the causal span-tracing layer (``repro.obs.tracing``)."""

import json

import pytest

from repro import obs
from repro.core.controller import NodeFailedError
from repro.kernel.msgqueue import MessageChannel
from repro.obs import tracing
from repro.obs.events import SEGMENTS, validate_event, validate_jsonl
from repro.obs.tracing import (Trace, TraceCollector, compute_breakdown,
                               format_tree)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.probes import POINTS
from repro.workloads import make_workload
from repro.workloads.serving import chaos_scenarios
from tests.conftest import Harness, detach


def _run_traced(seed=0, workload="fft", policy="scoma", **collector_kw):
    with tracing.collecting(seed=seed, **collector_kw) as collector:
        machine = Machine(MachineConfig(), policy=policy)
        result = machine.run(make_workload(workload, "tiny"))
    return collector, result


def _traces(collector):
    """The collector's retained slowest traces."""
    return collector.slowest(collector.top_capacity)


# -- breakdown ------------------------------------------------------------


def test_breakdown_root_only():
    collector = TraceCollector()
    root = collector.begin("miss", "local", 0, 100)
    collector.end(root, 160)
    (trace,) = _traces(collector)
    assert trace.breakdown == {"local": 60}


def test_breakdown_child_clipped_and_residual():
    collector = TraceCollector()
    root = collector.begin("miss", "local", 0, 0)
    collector.add("hop", "network", 0, 10, 30)
    collector.add("late", "queue", 0, 90, 150)   # clipped to [90, 100)
    collector.end(root, 100)
    (trace,) = _traces(collector)
    assert trace.breakdown == {"local": 70, "network": 20, "queue": 10}
    assert sum(trace.breakdown.values()) == trace.duration


def test_breakdown_overlapping_siblings_later_begin_wins():
    collector = TraceCollector()
    root = collector.begin("miss", "local", 0, 0)
    collector.add("a", "network", 0, 10, 50)
    collector.add("b", "queue", 0, 40, 60)       # overlaps [40, 50)
    collector.end(root, 100)
    (trace,) = _traces(collector)
    assert trace.breakdown == {"local": 50, "network": 30, "queue": 20}
    assert sum(trace.breakdown.values()) == trace.duration


def test_breakdown_deeper_span_beats_shallower():
    collector = TraceCollector()
    root = collector.begin("miss", "local", 0, 0)
    home = collector.begin("home", "home", 1, 20)
    collector.add("inv", "inval", 1, 30, 40)     # grandchild of root
    collector.end(home, 60)
    collector.end(root, 100)
    (trace,) = _traces(collector)
    assert trace.breakdown == {"local": 60, "home": 30, "inval": 10}
    assert sum(trace.breakdown.values()) == trace.duration


def test_breakdown_empty_window():
    trace = Trace("1")
    trace.spans.append({"span": "2", "parent": "", "segment": "local",
                        "begin": 5, "end": 5})
    assert compute_breakdown(trace) == {}


# -- collector lifecycle --------------------------------------------------


def test_add_without_active_transaction_returns_none():
    collector = TraceCollector()
    assert collector.add("hop", "network", 0, 0, 10) is None
    assert collector.span_count == 0
    assert collector.started == 0


def test_mark_outside_a_transaction_opens_its_own_trace():
    collector = TraceCollector()
    collector.mark("recv", "msg", 1, 5, None, seq=3)
    collector.mark("recv", "msg", 1, None, 9)
    assert collector.finished == 1
    (trace,) = _traces(collector)
    assert trace.spans[0]["parent"] == ""
    assert trace.spans[0]["attrs"] == {"seq": 3}
    assert trace.breakdown == {"msg": 4}
    # Inside a transaction the same marks nest a child span.
    root = collector.begin("miss", "local", 0, 0)
    collector.mark("recv", "msg", 1, 1, None)
    collector.mark("hop", "network", 1, 1, 2)
    collector.mark("recv", "msg", 1, None, 3)
    collector.end(root, 10)
    assert collector.finished == 2
    recv, hop = _traces(collector)[0].spans[1:]
    assert recv["parent"] == root["span"]
    assert hop["parent"] == recv["span"]
    assert recv["end"] == 3


def test_fault_mark_is_a_zero_length_child():
    collector = TraceCollector()
    collector.mark("fault:drop", "network", 0, 4, 4, msg="ACK")  # no-op
    root = collector.begin("miss", "local", 0, 0)
    collector.mark("fault:drop", "network", 0, 4, 4, msg="ACK", dst=1)
    collector.end(root, 10)
    assert collector.span_count == 2
    (trace,) = _traces(collector)
    fault = trace.spans[1]
    assert (fault["name"], fault["begin"], fault["end"]) == (
        "fault:drop", 4, 4)
    assert fault["attrs"] == {"msg": "ACK", "dst": 1}
    assert trace.breakdown == {"local": 10}     # zero cycles charged


def test_unwind_keeps_partial_trace_with_error():
    collector = TraceCollector()
    collector.begin("miss", "local", 0, 100)
    collector.begin("home", "home", 1, 120)
    collector.add("hop", "network", 1, 120, 150)
    collector.unwind("DeadlineExceeded")
    assert collector.errors == 1
    trace = collector.aborted
    assert trace.error == "DeadlineExceeded"
    assert trace.spans[0]["attrs"]["error"] == "DeadlineExceeded"
    for span in trace.spans:
        assert span["end"] >= span["begin"]
    assert sum(trace.breakdown.values()) == trace.duration
    collector.unwind()                           # idempotent when empty
    assert collector.errors == 1
    assert "transaction aborted" in format_tree(trace)


def _two_span_trace(collector, begin, end):
    root = collector.begin("r", "msg", 0, begin)
    collector.add("hop", "network", 0, begin, end)
    collector.end(root, end)


def test_ring_eviction_preserves_rollup(tmp_path):
    collector = TraceCollector(max_spans=3)
    for i in range(5):
        _two_span_trace(collector, i, i + 1)
    assert len(collector.sink.events) == 3
    assert collector.sink.dropped == 7
    assert collector.finished == 5
    assert collector.rollup() == {"network": {"cycles": 5, "count": 5}}
    # The ring cut the fourth trace's root: its child still validates.
    path = tmp_path / "spans.jsonl"
    collector.sink.write_jsonl(path)
    assert validate_jsonl(path) == 3


def test_top_heap_keeps_slowest():
    collector = TraceCollector(top=2)
    for duration in (5, 1, 9, 3):
        _two_span_trace(collector, 0, duration)
    durations = [t.duration for t in collector.slowest(10)]
    assert durations == [9, 5]


def test_tlb_mark_consumed_only_by_adjacent_root():
    collector = TraceCollector()
    collector.mark("tlb_reload", "tlb", 0, 90, 100)
    root = collector.begin("miss", "local", 0, 100)
    collector.end(root, 160)
    (trace,) = _traces(collector)
    assert trace.spans[0]["begin"] == 90         # stretched back
    assert trace.breakdown == {"local": 60, "tlb": 10}
    # A stale window (root opens later) is discarded.
    collector.mark("tlb_reload", "tlb", 0, 200, 210)
    root = collector.begin("miss", "local", 0, 300)
    collector.end(root, 320)
    assert collector.rollup() == {"local": {"cycles": 80, "count": 2},
                                  "tlb": {"cycles": 10, "count": 1}}


def test_deterministic_ids_per_seed():
    def build(seed):
        collector = TraceCollector(seed=seed)
        root = collector.begin("miss", "local", 3, 0)
        collector.add("hop", "network", 3, 1, 2)
        collector.end(root, 10)
        return collector.sink.to_jsonl()

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_module_install_current_context():
    assert tracing.current() is None
    with tracing.collecting(seed=1) as collector:
        assert tracing.current() is collector
        assert collector.seed == 1
        root = collector.begin("miss", "local", 0, 0)
        with pytest.raises(RuntimeError):
            with tracing.collecting():
                pass
        assert tracing.current() is collector
        collector.end(root, 1)
    assert tracing.current() is None


# -- schema validation ----------------------------------------------------


def _good_span():
    return {"seq": 0, "kind": "span", "trace": "%016x" % 1,
            "span": "%016x" % 2, "parent": "", "name": "miss",
            "segment": "local", "node": 0, "cpu": -1, "begin": 0, "end": 10,
            "attrs": {}}


def test_validate_span_accepts_good_span():
    validate_event(_good_span())


@pytest.mark.parametrize("mutate", [
    lambda s: s.pop("segment"),                    # missing field
    lambda s: s.update(extra=1),                   # unknown field
    lambda s: s.update(segment="bogus"),           # unknown segment
    lambda s: s.update(end=-5),                    # ends before begin
    lambda s: s.update(node=True),                 # bool is not int
    lambda s: s.update(trace=123),                 # wrong type
])
def test_validate_span_rejects(mutate):
    span = _good_span()
    mutate(span)
    with pytest.raises(ValueError):
        validate_event(span)


def _write(path, *spans):
    path.write_text("".join(json.dumps(dict(span, seq=seq)) + "\n"
                            for seq, span in enumerate(spans)))


def test_validate_spans_jsonl_causal_integrity(tmp_path):
    path = tmp_path / "spans.jsonl"
    root = _good_span()
    child = dict(_good_span(), span="%016x" % 3, parent="%016x" % 2,
                 segment="network")
    _write(path, root, child)
    assert validate_jsonl(path) == 2

    # Child before its root is a causal-order violation.
    _write(path, child, root)
    with pytest.raises(ValueError, match="child before root"):
        validate_jsonl(path)

    # A second root in the same trace is a structural violation.
    _write(path, root, root)
    with pytest.raises(ValueError, match="second root"):
        validate_jsonl(path)

    # Dangling parent ids are caught too.
    orphan = dict(child, parent="%016x" % 99)
    _write(path, root, orphan)
    with pytest.raises(ValueError, match="not \\(yet\\) in trace"):
        validate_jsonl(path)


# -- machine integration --------------------------------------------------


def test_traced_run_stats_byte_identical_to_plain_run():
    machine = Machine(MachineConfig(), policy="scoma")
    plain = machine.run(make_workload("fft", "tiny"))
    collector, traced = _run_traced()
    assert collector.finished > 0
    assert traced.stats.to_dict() == plain.stats.to_dict()


def test_untraced_machine_has_no_tracer():
    machine = Machine(MachineConfig(), policy="scoma")
    assert machine.probes.mark == ()
    assert machine.probes.send == ()
    assert "_hop" not in vars(machine.network)


def test_traced_run_breakdowns_sum_and_are_diverse():
    collector, _ = _run_traced()
    for trace in _traces(collector):
        assert sum(trace.breakdown.values()) == trace.duration
    for trace in collector.slowest(5):
        assert len(trace.breakdown) >= 3
    rollup = collector.rollup()
    assert set(rollup) <= set(SEGMENTS)
    assert {"local", "network", "home"} <= set(rollup)


def test_same_seed_runs_export_identical_spans():
    first, _ = _run_traced(seed=3)
    second, _ = _run_traced(seed=3)
    assert first.sink.to_jsonl() == second.sink.to_jsonl()


def test_span_export_validates(tmp_path):
    collector, _ = _run_traced()
    path = tmp_path / "spans.jsonl"
    written = collector.sink.write_jsonl(path)
    assert validate_jsonl(path) == written == collector.span_count


def test_chrome_export_structure(tmp_path):
    collector, _ = _run_traced()
    path = tmp_path / "chrome.json"
    events = collector.write_chrome(path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == events > 0
    for event in doc["traceEvents"][:50]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        validate_event(event["args"])


def test_registry_receives_segment_histograms_and_gauges():
    with obs.collecting() as registry:
        collector, _ = _run_traced()
    snap = registry.to_dict()
    segments = obs.find_metrics(snap["histograms"], "trace.segment_cycles")
    assert segments
    for labels, hist in segments:
        assert labels["segment"] in SEGMENTS
        assert labels["policy"] == "scoma"
        assert hist["count"] > 0
    (_, transactions), = obs.find_metrics(snap["gauges"],
                                          "trace.transactions")
    assert transactions == collector.finished


def test_detach_restores_machine_fast_path():
    with tracing.collecting() as collector:
        machine = Machine(MachineConfig(), policy="scoma")
        assert machine.probes.miss
        assert machine.probes.send
        detach(collector, machine)
        machine.run(make_workload("fft", "tiny"))
        assert collector.started == 0
    for point in POINTS:
        assert getattr(machine.probes, point) == ()
    # Detach leaves no component holding the collector: the 2PC chaos
    # scenario's command channels open a root span on every send and
    # receive of an attached run, and none once detached.
    scenario = chaos_scenarios()["txn2pc"]
    with tracing.collecting() as collector:
        machine = Machine(scenario.build_config(), policy=scenario.policy)
        detach(collector, machine)
        machine.run(scenario.make_workload())
        assert collector.started == 0
        assert collector.span_count == 0


def test_exception_inside_a_span_probe_unwinds_with_its_type():
    with tracing.collecting() as collector:
        h = Harness()
        page = h.page_homed_at(2)
        h.read(h.cpu_on_node(0), h.vaddr(page, 0))
        h.machine.fail_node(2)
        with pytest.raises(NodeFailedError):
            h.read(h.cpu_on_node(0), h.vaddr(page, 1))
    trace = collector.aborted
    assert trace.error == "NodeFailedError"
    assert trace.spans[0]["name"] == "miss"
    assert trace.spans[0]["attrs"]["error"] == "NodeFailedError"


def test_message_channel_links_send_and_recv():
    with tracing.collecting() as collector:
        machine = Machine(MachineConfig(num_nodes=4, cpus_per_node=1))
        channel = MessageChannel(machine, src_node=0, dst_node=1)
        channel.send({"k": 1}, now=0)
        assert channel.receive(now=50_000) is not None
    roots = {span["name"]: span for span in collector.sink.events
             if not span["parent"]}
    send, recv = roots["channel_send"], roots["channel_recv"]
    assert send["trace"] != recv["trace"]
    # (src, dst, seq) names the message on both sides.
    assert send["attrs"] == {"dst": 1, "seq": 0}
    assert recv["attrs"] == {"src": 0, "seq": 0}
