"""Causal span tracing for coherence transactions.

A :class:`TraceCollector` follows each coherence transaction end-to-end
through the simulated machine.  A cache miss (or upgrade, page fault,
page-out) opens a **root span**; the controller, network, fault
injector, VM and message-queue layers contribute **child spans** (queue
waits, request/reply hops, home service, invalidation fan-out,
retransmit back-off), all stamped with *simulated* begin/end times so
the reconstructed tree is a causal, cycle-accurate account of where the
transaction's latency went.

The model holds no tracer.  The collector registers probes on
``machine.probes`` (:mod:`repro.sim.probes`): root spans around the
``miss``, ``upgrade``, ``fault`` and ``pageout`` points, hop spans
around ``send``, and :meth:`TraceCollector.mark` on the ``mark`` point,
which the protocol steps fire for their inner intervals.  With no
collector installed the ``mark`` point is an empty tuple, and simulated
results are byte-identical to an uninstrumented run.  Install a
collector with the :func:`collecting` context manager *before*
constructing the :class:`~repro.sim.machine.Machine`: the machine reads
:func:`current` once and attaches it::

    from repro.obs import tracing

    with tracing.collecting(seed=0) as collector:
        machine = Machine(config, policy="scoma")
        machine.run(workload)
    for trace in collector.slowest(5):
        print(format_tree(trace))
        print(trace.breakdown)       # segment -> cycles, sums to duration

Identifiers are **deterministic**: a span id mixes the collector seed
with a per-node monotonic counter through a splitmix64-style finalizer
(never wall clock), so two same-seed runs produce identical span trees
— CI diffs the JSONL exports byte for byte.

The critical-path analyzer (:func:`compute_breakdown`) partitions the
root span's ``[begin, end)`` window into elementary intervals and
charges each interval to the *innermost* covering span's segment, so
the per-segment cycles of every trace sum exactly to the transaction's
simulated latency, even when sibling spans overlap (invalidation
fan-out).  Roll-ups land in the machine's
:class:`~repro.obs.registry.MetricsRegistry` as
``trace.segment_cycles{segment=...,policy=...}`` histograms.

A span is a dict with the fields of the ``span`` kind of
:data:`~repro.obs.events.EVENT_SCHEMA`.  Every finished transaction's
spans go, root first, into :attr:`TraceCollector.sink`, an
:class:`~repro.obs.events.EventSink` (the one bounded store): its JSONL
export is validated by :func:`~repro.obs.events.validate_jsonl`, and
:meth:`TraceCollector.write_chrome` renders it as Chrome / Perfetto
``trace_event`` JSON (open it at ``ui.perfetto.dev``).  Timestamps are
simulated cycles rendered in the viewer's microsecond field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from heapq import heappop, heappush

from repro.obs.events import EventSink

#: Default bound on retained spans (the store drops the oldest first;
#: the slowest transactions survive in a separate top-N set).
MAX_SPANS = 50_000

#: Default capacity of the slowest-transaction set.
TOP_CAPACITY = 64

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """Deterministic 64-bit id from integer parts (splitmix64-style)."""
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = ((x ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Trace:
    """A completed transaction: root span plus its causal children."""

    __slots__ = ("trace_id", "spans", "error", "breakdown")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: "list[dict]" = []
        self.error = ""
        #: segment -> cycles; computed once when the trace completes,
        #: values sum exactly to :attr:`duration`.
        self.breakdown: "dict[str, int]" = {}

    @property
    def duration(self):
        root = self.spans[0]
        return root["end"] - root["begin"]


def compute_breakdown(trace: Trace) -> "dict[str, int]":
    """Charge every cycle of the root window to the innermost span.

    Partitions ``[root begin, root end)`` at every child boundary and
    attributes each elementary interval to the deepest covering span
    (ties: later begin, then later creation order).  Child windows are
    clipped to the root window, so the returned cycles **sum exactly**
    to the root duration — the invariant ``repro trace`` prints and the
    tests assert.
    """
    spans = trace.spans
    root = spans[0]
    lo, hi = root["begin"], root["end"]
    if hi <= lo:
        return {}
    by_id = {span["span"]: span for span in spans}
    depths: "dict[str, int]" = {root["span"]: 0}

    def depth_of(span: dict) -> int:
        known = depths.get(span["span"])
        if known is not None:
            return known
        parent = by_id.get(span["parent"])
        depth = 1 if parent is None else depth_of(parent) + 1
        depths[span["span"]] = depth
        return depth

    points = {lo, hi}
    covers = []  # (depth, clipped_begin, order, clipped_end, segment)
    for order, span in enumerate(spans):
        if order == 0:
            continue
        begin = span["begin"] if span["begin"] > lo else lo
        end = span["end"] if span["end"] < hi else hi
        if end <= begin:
            continue
        covers.append((depth_of(span), begin, order, end, span["segment"]))
        points.add(begin)
        points.add(end)
    bounds = sorted(points)
    out: "dict[str, int]" = {}
    for left, right in zip(bounds, bounds[1:]):
        best_key = (0, lo, 0)
        best_segment = root["segment"]
        for depth, begin, order, end, segment in covers:
            if begin <= left and end >= right:
                key = (depth, begin, order)
                if key > best_key:
                    best_key = key
                    best_segment = segment
        out[best_segment] = out.get(best_segment, 0) + (right - left)
    return out


def format_tree(trace: Trace) -> str:
    """Render a trace as an indented ascii span tree."""
    children: "dict[str, list[dict]]" = {}
    for span in trace.spans:
        children.setdefault(span["parent"], []).append(span)
    lines: "list[str]" = []

    def walk(span: dict, depth: int) -> None:
        attrs = span["attrs"]
        tail = ("  " + " ".join("%s=%s" % (key, attrs[key])
                                for key in sorted(attrs)) if attrs else "")
        lines.append("%s%-14s %-8s node%-3d [%s..%s] +%s%s"
                     % ("  " * depth, span["name"], span["segment"],
                        span["node"], span["begin"], span["end"],
                        span["end"] - span["begin"], tail))
        for child in children.get(span["span"], ()):
            walk(child, depth + 1)

    walk(trace.spans[0], 0)
    if trace.error:
        lines.append("  ! transaction aborted: %s" % trace.error)
    return "\n".join(lines)


class TraceCollector:
    """Collects spans into causal traces with deterministic ids.

    One collector serves one single-threaded simulation: transactions
    resolve atomically through synchronous call chains, so at most one
    root span is open at a time and the active-span *stack* mirrors the
    call stack.  Completed traces' spans land in :attr:`sink`, a
    bounded store (oldest spans dropped first, counted in its
    ``dropped``); the slowest transactions are additionally retained in
    a bounded top-N set, and per-segment latency roll-ups are
    accumulated incrementally so dropping spans never loses aggregate
    data.
    """

    def __init__(self, seed: int = 0, max_spans: int = MAX_SPANS,
                 top: int = TOP_CAPACITY) -> None:
        self.seed = seed
        self.top_capacity = top
        self.sink = EventSink(capacity=max_spans)
        self.started = 0
        self.finished = 0
        self.span_count = 0
        self.errors = 0
        #: The last transaction an exception aborted, or None.
        self.aborted: "Trace | None" = None
        self._stack: "list[dict]" = []
        self._open: "Trace | None" = None
        self._pending_tlb: "tuple | None" = None
        self._counters: "dict[int, int]" = {}
        self._heap: "list[tuple]" = []
        self._heap_seq = 0
        self._segments: "dict[str, list[int]]" = {}
        self._registry = None
        self._seg_hists: "dict[str, object]" = {}
        self._gauges: "tuple | None" = None
        self._policy = ""

    # -- span lifecycle ----------------------------------------------------

    def _record(self, parent: "dict | None", name: str, kind: str,
                node: int, cpu: int, begin, end, attrs: dict) -> dict:
        """A new span of segment ``kind`` under ``parent``, or the root
        of a new trace when ``parent`` is None."""
        slot = node + 1
        count = self._counters.get(slot, 0) + 1
        self._counters[slot] = count
        if parent is None:
            trace_id = "%016x" % _mix(self.seed, slot, count, 0x7ACE)
            parent_id = ""
            self._open = Trace(trace_id)
            self.started += 1
        else:
            trace_id = parent["trace"]
            parent_id = parent["span"]
        span = {"trace": trace_id,
                "span": "%016x" % _mix(self.seed, slot, count),
                "parent": parent_id, "name": name, "segment": kind,
                "node": node, "cpu": cpu, "begin": begin, "end": end,
                "attrs": attrs}
        self._open.spans.append(span)
        self.span_count += 1
        return span

    def begin(self, name: str, kind: str, node: int, begin,
              cpu: int = -1, **attrs) -> dict:
        """Open a span of segment ``kind`` at simulated time ``begin``
        and push it on the active stack (a new root when the stack is
        empty)."""
        stack = self._stack
        span = self._record(stack[-1] if stack else None, name, kind, node,
                            cpu, begin, begin, attrs)
        stack.append(span)
        pending = self._pending_tlb
        if pending is not None:
            self._pending_tlb = None
            # A TLB reload immediately preceded this root: stretch the
            # transaction window back to cover it and record it as the
            # first child, so the breakdown charges a ``tlb`` segment.
            if not span["parent"] and pending[1] == begin:
                span["begin"] = span["end"] = pending[0]
                self.add("tlb_reload", "tlb", node, pending[0], pending[1])
        return span

    def end(self, span: dict, end) -> None:
        """Close ``span`` at simulated time ``end``.

        Lenient pop-until-found: any spans opened after ``span`` that
        were never closed are closed at the same time.  When the stack
        empties the trace is complete and its breakdown is computed.
        """
        stack = self._stack
        while stack:
            top = stack.pop()
            top["end"] = end
            if top is span:
                break
        if not stack and self._open is not None:
            self._finish(self._open)
            self._open = None

    def add(self, name: str, kind: str, node: int, begin, end,
            cpu: int = -1, **attrs) -> "dict | None":
        """Record an already-completed child of the active span.

        Returns ``None`` (and records nothing) when no transaction is
        active: rootless work is simply not traced.
        """
        stack = self._stack
        if not stack:
            return None
        return self._record(stack[-1], name, kind, node, cpu, begin, end,
                            attrs)

    def mark(self, name: str, kind: str, node: int, begin, end,
             **attrs) -> None:
        """The ``mark`` probe: one inner interval of a protocol step.

        ``[begin, end)`` is a completed child of the active span.
        ``end=None`` opens a nested span (a root when no transaction is
        active) that the next mark with ``begin=None`` closes at its
        ``end``.  A completed mark outside any transaction records
        nothing, except a TLB reload, which is held for the root that
        opens when it ends.
        """
        if end is None:
            self.begin(name, kind, node, begin, **attrs)
        elif begin is None:
            if self._stack:
                self.end(self._stack[-1], end)
        elif self._stack:
            self.add(name, kind, node, begin, end, **attrs)
        elif kind == "tlb":
            self._pending_tlb = (begin, end)

    def unwind(self, error: str = "error") -> None:
        """Close all open spans after an exception escaped mid-
        transaction.

        Open spans are closed at the latest simulated time the trace
        has seen, the root is tagged with the ``error`` attr, and the
        (partial) trace is kept as :attr:`aborted` — chaos post-mortems
        want exactly the tree of the transaction that hung.
        """
        stack = self._stack
        if not stack:
            return
        trace = self._open
        latest = stack[0]["begin"]
        for span in trace.spans:
            if span["end"] > latest:
                latest = span["end"]
        while stack:
            span = stack.pop()
            if span["end"] < latest:
                span["end"] = latest
        trace.error = error
        trace.spans[0]["attrs"]["error"] = error
        self.errors += 1
        self.aborted = trace
        self._finish(trace)
        self._open = None

    def _finish(self, trace: Trace) -> None:
        self.finished += 1
        parts = compute_breakdown(trace)
        trace.breakdown = parts
        segments = self._segments
        for kind, cycles in parts.items():
            entry = segments.get(kind)
            if entry is None:
                segments[kind] = [cycles, 1]
            else:
                entry[0] += cycles
                entry[1] += 1
        emit = self.sink.emit
        for span in trace.spans:
            emit("span", **span)
        registry = self._registry
        if registry is not None:
            hists = self._seg_hists
            for kind, cycles in parts.items():
                hist = hists.get(kind)
                if hist is None:
                    hist = registry.histogram("trace.segment_cycles",
                                              segment=kind,
                                              policy=self._policy)
                    hists[kind] = hist
                hist.observe(cycles)
            # The model never calls the collector, so the gauges follow
            # each finished transaction (set in place: no calls).
            transactions, spans, evicted, errors = self._gauges
            transactions.value = self.finished
            spans.value = self.span_count
            evicted.value = self.sink.dropped
            errors.value = self.errors
        heap = self._heap
        self._heap_seq += 1
        heappush(heap, (trace.duration, -self._heap_seq, trace))
        if len(heap) > self.top_capacity:
            heappop(heap)

    # -- machine probes ----------------------------------------------------

    def attach(self, machine) -> None:
        """Trace a machine's transactions.

        Registers root-span probes on the ``miss``, ``upgrade``,
        ``fault`` and ``pageout`` points of ``machine.probes``, a
        hop-span probe on ``send`` and :meth:`mark` on ``mark``.  The
        per-reference ``access`` point is left alone — cache hits are
        never traced, which is what keeps the traced-run overhead within
        the bench gate.  The ``trace.*`` roll-ups and the
        ``trace.transactions``/``spans``/``evicted``/``errors`` gauges
        go to ``machine.registry``.
        """
        registry = self._registry = machine.registry
        policy = self._policy = machine.policy.name
        if registry is not None:
            self._gauges = tuple(
                registry.gauge("trace." + name, policy=policy)
                for name in ("transactions", "spans", "evicted", "errors"))
        for point, probe in self._probes():
            machine.probes.add(point, probe)

    def _probes(self):
        return (("miss", self._miss), ("upgrade", self._upgrade),
                ("fault", self._fault), ("pageout", self._pageout),
                ("send", self._send), ("mark", self.mark))

    def _root(self, call, args, name, kind, node, begin, **attrs):
        """Run ``call(*args)`` inside a root span; an escaping exception
        unwinds the trace tagged with its type."""
        root = self.begin(name, kind, node, begin, **attrs)
        try:
            result = call(*args)
        except BaseException as exc:
            self.unwind(error=type(exc).__name__)
            raise
        # A fault returns (frame, done); every other span point a time.
        self.end(root, result[1] if kind == "fault" else result)
        return result

    def _miss(self, call, cpu, frame, lip, line, is_write, now):
        return self._root(call, (cpu, frame, lip, line, is_write, now),
                          "miss", "local", cpu.node.node_id, now,
                          cpu=cpu.cpu_id, write=int(is_write))

    def _upgrade(self, call, cpu, frame, lip, line, now):
        return self._root(call, (cpu, frame, lip, line, now), "upgrade",
                          "local", cpu.node.node_id, now, cpu=cpu.cpu_id,
                          write=1)

    def _fault(self, call, kernel, vpage, now):
        return self._root(call, (vpage, now), "fault", "fault",
                          kernel.node.node_id, now, vpage=vpage)

    def _pageout(self, call, kernel, frame, now, demote=False):
        return self._root(call, (frame, now, demote), "page_out", "pageout",
                          kernel.node.node_id, now, frame=frame)

    def _send(self, call, src, dst, now, kind):
        # A hop is a child of the open transaction (``add`` records
        # nothing outside one), never a root.
        arrival = call(src, dst, now, kind)
        self.add("net:" + kind.name, "network", src, now, arrival, dst=dst)
        return arrival

    # -- reporting ---------------------------------------------------------

    def slowest(self, n: int = 5) -> "list[Trace]":
        """The ``n`` slowest completed transactions, slowest first."""
        items = sorted(self._heap, key=lambda item: (-item[0], -item[1]))
        return [item[2] for item in items[:n]]

    def rollup(self) -> "dict[str, dict[str, int]]":
        """Aggregate ``segment -> {"cycles", "count"}`` over *all*
        completed traces (eviction-proof)."""
        return {kind: {"cycles": entry[0], "count": entry[1]}
                for kind, entry in sorted(self._segments.items())}

    def write_chrome(self, path) -> int:
        """Write the retained spans as Chrome / Perfetto
        ``trace_event`` JSON (complete events); returns the event count.

        ``ts``/``dur`` carry simulated cycles in the viewer's
        microsecond field; ``pid`` is the node, ``tid`` the cpu.
        """
        events = [{"name": span["name"], "cat": span["segment"],
                   "ph": "X", "ts": span["begin"],
                   "dur": span["end"] - span["begin"], "pid": span["node"],
                   "tid": span["cpu"] if span["cpu"] >= 0 else 0,
                   "args": span}
                  for span in self.sink.events]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "tool": "repro trace",
                "seed": self.seed,
                "clock": "simulated cycles (rendered as us)",
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        return len(events)


# -- the process-wide collector (read once per machine) -------------------

_COLLECTOR: "TraceCollector | None" = None


def current() -> "TraceCollector | None":
    """The installed collector, or ``None`` (the no-op path)."""
    return _COLLECTOR


@contextmanager
def collecting(seed: int = 0, max_spans: int = MAX_SPANS,
               top: int = TOP_CAPACITY):
    """Context manager: install a fresh collector, yield it, uninstall.

    Collectors do not nest: entering a scope while another collector is
    installed raises ``RuntimeError``.
    """
    global _COLLECTOR
    if _COLLECTOR is not None:
        raise RuntimeError("a trace collector is already installed")
    _COLLECTOR = TraceCollector(seed=seed, max_spans=max_spans, top=top)
    try:
        yield _COLLECTOR
    finally:
        _COLLECTOR = None
