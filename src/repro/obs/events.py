"""The one observation store: typed, ordered, exportable records.

Complements the metrics registry: where metrics aggregate, events keep
the *ordered stream* (the substrate later correctness tooling — e.g.
race detection over DSM event logs — needs).  Every event is a plain
dict carrying a per-sink monotonic sequence number and a ``kind`` from
:data:`EVENT_SCHEMA`; the sink is a bounded ring buffer (oldest events
are overwritten, with an accurate ``dropped`` count) and exports JSONL
(one event per line, sorted keys).

This is the one store of the simulator, and a span is one more event
kind.  Producers: :class:`~repro.obs.recorder.TraceRecorder`, whose
``machine.probes`` emit machine events here (the CLI's
``run --trace-out`` wires that up end to end); the value tracker
(:mod:`repro.verify.tracker`); the fault injector; and the causal
tracer (:mod:`repro.obs.tracing`), which writes each finished
transaction's spans as ``span`` events (``repro trace --out``).
Consumers validate with :func:`validate_event` / :func:`validate_jsonl`.
"""

from __future__ import annotations

import json
from collections import deque

#: Required payload fields (and their types) per event kind.  ``seq``
#: and ``kind`` are implicit on every event.  ``bool`` fields must be
#: checked before ``int`` (bool subclasses int).
EVENT_SCHEMA: "dict[str, dict[str, type]]" = {
    "access": {"time": int, "cpu": int, "vaddr": int, "write": bool,
               "latency": int},
    "fault": {"time": int, "node": int, "vpage": int, "gpage": int,
              "mode": str, "remote_home": bool},
    "pageout": {"time": int, "node": int, "frame": int, "demoted": bool},
    "migrate": {"gpage": int, "old_home": int, "new_home": int},
    # Value records produced by the verification tap
    # (``repro.verify.tracker``): every read's observed value and every
    # write's installed value, with the tap's per-location write
    # ``version`` — the substrate the sequential-consistency checker
    # validates against a legal writes-serialization order.
    "read": {"time": int, "cpu": int, "vaddr": int, "value": int,
             "version": int},
    "write": {"time": int, "cpu": int, "vaddr": int, "value": int,
              "version": int},
    # Fault plane (``repro.faults``): one event per injected message
    # fault (action in drop/duplicate/delay/reorder/retransmit) and one
    # per node death (recorded from the machine's ``node_fail`` probe
    # point by a trace recorder).
    "fault_inject": {"time": int, "action": str, "msg": str, "src": int,
                     "dst": int},
    "node_fail": {"time": int, "node": int},
    # One span of a causal trace (``repro.obs.tracing``): hex ids, the
    # parent's id ("" for the root), the critical-path ``segment`` it
    # charges and its simulated-cycle window.
    "span": {"trace": str, "span": str, "parent": str, "name": str,
             "segment": str, "node": int, "cpu": int, "begin": int,
             "end": int, "attrs": dict},
}

#: Segments a span can charge cycles to.  ``local`` is the root-span
#: residual (bus protocol work on the requesting node not covered by
#: any child span); ``queue`` covers waits on busy resources
#: (controller dispatch, bus, DRAM port); ``mem`` is the data-supply
#: phase of a locally-served miss (DRAM read or dirty-sibling cache
#: intervention).
SEGMENTS = ("local", "tlb", "fault", "pageout", "queue", "network",
            "home", "inval", "retry", "msg", "mem")


class EventSink:
    """A bounded ring buffer of structured events.

    ``capacity`` bounds memory: once full, each new event overwrites
    the oldest one and increments :attr:`dropped`.  Sequence numbers
    keep counting across drops, so consumers can detect gaps.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self.dropped = 0
        self._seq = 0
        self._buffer: "deque[dict]" = deque(maxlen=capacity)

    def emit(self, kind: str, **fields) -> "dict[str, object]":
        """Record one event; returns the stored event dict."""
        if kind not in EVENT_SCHEMA:
            raise ValueError("unknown event kind %r (want one of %s)"
                             % (kind, ", ".join(sorted(EVENT_SCHEMA))))
        event = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self._seq += 1
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)
        return event

    @property
    def events(self) -> "list[dict]":
        """The retained events, oldest first."""
        return list(self._buffer)

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """All retained events as JSONL (sorted keys, one per line)."""
        return "\n".join(json.dumps(e, sort_keys=True) for e in self._buffer)

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL export to ``path``; returns the event count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._buffer)


def validate_event(event: "dict[str, object]",
                   last_seq: "int | None" = None) -> None:
    """Check one event dict against :data:`EVENT_SCHEMA`.

    Strict: every schema field must be present with the right type,
    and no field outside the schema (plus the implicit ``seq`` and
    ``kind``) may appear — an extra field means the producer and the
    schema have drifted, which is exactly what consumers need to hear
    about.  ``last_seq``, when given, additionally requires
    ``event["seq"] > last_seq`` (gaps are fine — they mark ring drops
    — but a stalled or backwards sequence is not).

    Raises :class:`ValueError` naming the first problem found.
    """
    if not isinstance(event, dict):
        raise ValueError("event must be a dict, got %r" % type(event))
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        raise ValueError("unknown event kind %r" % kind)
    seq = event.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ValueError("event %r has bad seq %r" % (kind, seq))
    if last_seq is not None and seq <= last_seq:
        raise ValueError("%s event: sequence went backwards (%d after %d)"
                         % (kind, seq, last_seq))
    schema = EVENT_SCHEMA[kind]
    extra = set(event) - set(schema) - {"seq", "kind"}
    if extra:
        raise ValueError("%s event (seq %d) has unknown fields: %s"
                         % (kind, seq, ", ".join(sorted(extra))))
    for field, want in schema.items():
        if field not in event:
            raise ValueError("%s event (seq %d) missing field %r"
                             % (kind, seq, field))
        value = event[field]
        if want is bool:
            ok = isinstance(value, bool)
        elif want is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, want)
        if not ok:
            raise ValueError("%s event (seq %d) field %r: expected %s, "
                             "got %r" % (kind, seq, field, want.__name__,
                                         value))
    if kind == "span":
        if event["segment"] not in SEGMENTS:
            raise ValueError("span (seq %d) has unknown segment %r"
                             % (seq, event["segment"]))
        if event["end"] < event["begin"]:
            raise ValueError("span (seq %d) ends (%d) before it begins (%d)"
                             % (seq, event["end"], event["begin"]))


def validate_jsonl(path: str) -> int:
    """Validate a JSONL export; returns the number of events.

    Checks each line parses, conforms to the schema, and that sequence
    numbers are strictly increasing (gaps are fine — they mark ring
    drops — but reordering is not).  Spans must also be causally whole:
    each trace has one root, written before its children, and every
    parent id resolves within its trace.  The one exception is the
    trace the ring cut: spans ahead of the first root of an export
    whose first event is not seq 0 lost their root to a drop.
    """
    count = 0
    last_seq = -1
    members: "dict[str, set[str]]" = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ValueError("%s:%d: not JSON: %s"
                                 % (path, lineno, exc)) from None
            try:
                validate_event(event, last_seq=last_seq)
                if count == 0:
                    cut = event["seq"] > 0
                if event["kind"] == "span":
                    _check_causal(event, members, cut)
                    cut = cut and event["parent"] != ""
            except ValueError as exc:
                raise ValueError("%s:%d: %s"
                                 % (path, lineno, exc)) from None
            last_seq = event["seq"]
            count += 1
    return count


def _check_causal(span, members: "dict[str, set[str]]", cut: bool) -> None:
    """Check one span against the spans of its trace seen so far;
    ``cut`` accepts a child whose root the ring dropped."""
    trace = span["trace"]
    seen = members.get(trace)
    if span["parent"] == "":
        if seen is not None:
            raise ValueError("second root in trace %s" % trace)
        members[trace] = {span["span"]}
    elif seen is not None:
        if span["parent"] not in seen:
            raise ValueError("parent %s not (yet) in trace %s"
                             % (span["parent"], trace))
        seen.add(span["span"])
    elif not cut:
        raise ValueError("child before root in trace %s" % trace)
