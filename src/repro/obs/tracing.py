"""Causal span tracing for coherence transactions.

A :class:`TraceCollector` follows each coherence transaction end-to-end
through the simulated machine.  A cache miss (or upgrade, page fault,
page-out) opens a **root span**; the controller, network, fault
injector, VM and message-queue layers contribute **child spans** (queue
waits, request/reply hops, home service, invalidation fan-out,
retransmit back-off), all stamped with *simulated* begin/end times so
the reconstructed tree is a causal, cycle-accurate account of where the
transaction's latency went.

Like the rest of :mod:`repro.obs`, tracing is strictly opt-in.  With no
collector installed every instrumentation site pays one pointer test
(``if tracer is not None``) and simulated results are byte-identical to
an uninstrumented run.  Install a collector with the :func:`collecting`
context manager *before* constructing the :class:`~repro.sim.machine.
Machine`: the machine reads :func:`current` once, keeps the collector
as ``machine.tracer`` and attaches its root-span probes, and every
component below the machine takes the collector from there::

    from repro.obs import tracing

    with tracing.collecting(seed=0) as collector:
        machine = Machine(config, policy="scoma")
        machine.run(workload)
    for trace in collector.slowest(5):
        print(format_tree(trace))
        print(trace.breakdown)       # segment -> cycles, sums to duration

Identifiers are **deterministic**: ``span_id`` mixes the collector seed
with a per-node monotonic counter through a splitmix64-style finalizer
(never wall clock), so two same-seed runs produce identical span trees
— CI diffs the JSONL exports byte for byte.

The critical-path analyzer (:func:`compute_breakdown`) partitions the
root span's ``[begin, end)`` window into elementary intervals and
charges each interval to the *innermost* covering span's segment kind,
so the per-segment cycles of every trace sum exactly to the
transaction's simulated latency, even when sibling spans overlap
(invalidation fan-out).  Roll-ups land in the machine's
:class:`~repro.obs.registry.MetricsRegistry` as
``trace.segment_cycles{segment=...,policy=...}`` histograms.

Exports: :meth:`TraceCollector.write_spans` (JSONL, one span per line,
validated by :func:`validate_spans_jsonl` against :data:`SPAN_SCHEMA`)
and :meth:`TraceCollector.write_chrome` (Chrome / Perfetto
``trace_event`` JSON; open it at ``ui.perfetto.dev``).  Timestamps are
simulated cycles rendered in the viewer's microsecond field.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush

#: Segment kinds the critical-path analyzer can charge cycles to.
#: ``local`` is the root-span residual (bus protocol work on the
#: requesting node not covered by any child span); ``queue`` covers
#: waits on busy resources (controller dispatch, bus, DRAM port);
#: ``mem`` is the data-supply phase of a locally-served miss (DRAM
#: read or dirty-sibling cache intervention).
SEGMENTS = ("local", "tlb", "fault", "pageout", "queue", "network",
            "home", "inval", "retry", "msg", "mem")

#: Default bound on retained traces (oldest evicted first; the slowest
#: transactions survive eviction in a separate top-N set).
MAX_TRACES = 20_000

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


class Span:
    """One timed operation inside a trace (simulated-time begin/end)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "node", "cpu", "begin", "end", "attrs")

    def __init__(self, trace_id, span_id, parent_id, name, kind, node,
                 cpu, begin, end, attrs):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.node = node
        self.cpu = cpu
        self.begin = begin
        self.end = end
        self.attrs = attrs

    def to_dict(self) -> dict:
        """JSON-safe dict matching :data:`SPAN_SCHEMA` (hex ids)."""
        return {
            "trace": "%016x" % self.trace_id,
            "span": "%016x" % self.span_id,
            "parent": "%016x" % self.parent_id if self.parent_id else "",
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "cpu": self.cpu,
            "begin": self.begin,
            "end": self.end,
            "attrs": self.attrs if self.attrs is not None else {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("Span(%s kind=%s node=%d [%s..%s])"
                % (self.name, self.kind, self.node, self.begin, self.end))


class Trace:
    """A completed transaction: root span plus its causal children."""

    __slots__ = ("trace_id", "spans", "error", "breakdown")

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: "list[Span]" = []
        self.error = ""
        #: segment kind -> cycles; computed once when the trace
        #: completes, values sum exactly to :attr:`duration`.
        self.breakdown: "dict[str, int]" = {}

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def duration(self):
        root = self.spans[0]
        return root.end - root.begin


def compute_breakdown(trace: Trace) -> "dict[str, int]":
    """Charge every cycle of the root window to the innermost span.

    Partitions ``[root.begin, root.end)`` at every child boundary and
    attributes each elementary interval to the deepest covering span
    (ties: later begin, then later creation order).  Child windows are
    clipped to the root window, so the returned cycles **sum exactly**
    to the root duration — the invariant ``repro trace`` prints and the
    tests assert.
    """
    spans = trace.spans
    root = spans[0]
    lo, hi = root.begin, root.end
    if hi <= lo:
        return {}
    by_id = {span.span_id: span for span in spans}
    depths: "dict[int, int]" = {root.span_id: 0}

    def depth_of(span: Span) -> int:
        known = depths.get(span.span_id)
        if known is not None:
            return known
        parent = by_id.get(span.parent_id)
        depth = 1 if parent is None else depth_of(parent) + 1
        depths[span.span_id] = depth
        return depth

    points = {lo, hi}
    covers = []  # (depth, clipped_begin, order, clipped_end, kind)
    for order, span in enumerate(spans):
        if order == 0:
            continue
        begin = span.begin if span.begin > lo else lo
        end = span.end if span.end < hi else hi
        if end <= begin:
            continue
        covers.append((depth_of(span), begin, order, end, span.kind))
        points.add(begin)
        points.add(end)
    bounds = sorted(points)
    out: "dict[str, int]" = {}
    for left, right in zip(bounds, bounds[1:]):
        best_key = (0, lo, 0)
        best_kind = root.kind
        for depth, begin, order, end, kind in covers:
            if begin <= left and end >= right:
                key = (depth, begin, order)
                if key > best_key:
                    best_key = key
                    best_kind = kind
        out[best_kind] = out.get(best_kind, 0) + (right - left)
    return out


def format_tree(trace: Trace) -> str:
    """Render a trace as an indented ascii span tree."""
    children: "dict[int, list[Span]]" = {}
    for span in trace.spans:
        children.setdefault(span.parent_id, []).append(span)
    lines: "list[str]" = []

    def walk(span: Span, depth: int) -> None:
        attrs = ""
        if span.attrs:
            attrs = "  " + " ".join(
                "%s=%s" % (key, span.attrs[key])
                for key in sorted(span.attrs))
        lines.append("%s%-14s %-8s node%-3d [%s..%s] +%s%s"
                     % ("  " * depth, span.name, span.kind, span.node,
                        span.begin, span.end, span.end - span.begin,
                        attrs))
        for child in children.get(span.span_id, ()):
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
    call stack.  Completed traces land in a bounded ring (oldest
    evicted first, counted in :attr:`evicted`); the slowest
    transactions are additionally retained in a bounded top-N set, and
    per-segment latency roll-ups are accumulated incrementally so
    eviction never loses aggregate data.
    """

    def __init__(self, seed: int = 0, max_traces: int = MAX_TRACES,
                 top: int = TOP_CAPACITY) -> None:
        self.seed = seed
        self.max_traces = max_traces
        self.top_capacity = top
        self.traces: "deque[Trace]" = deque()
        self.started = 0
        self.finished = 0
        self.span_count = 0
        self.evicted = 0
        self.errors = 0
        self._stack: "list[Span]" = []
        self._open: "Trace | None" = None
        self._pending_tlb: "tuple | None" = None
        self._counters: "dict[int, int]" = {}
        self._heap: "list[tuple]" = []
        self._heap_seq = 0
        self._segments: "dict[str, list[int]]" = {}
        self._registry = None
        self._seg_hists: "dict[str, object]" = {}
        self._policy = ""

    # -- span lifecycle ----------------------------------------------------

    def _new_id(self, node: int) -> "tuple[int, int]":
        slot = node + 1
        count = self._counters.get(slot, 0) + 1
        self._counters[slot] = count
        return slot, count

    def begin(self, name: str, kind: str, node: int, begin,
              cpu: int = -1, **attrs) -> Span:
        """Open a span at simulated time ``begin`` and push it on the
        active stack (a new root when the stack is empty)."""
        slot, count = self._new_id(node)
        span_id = _mix(self.seed, slot, count)
        stack = self._stack
        if stack:
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _mix(self.seed, slot, count, 0x7ACE)
            parent_id = 0
            self._open = Trace(trace_id)
            self.started += 1
        span = Span(trace_id, span_id, parent_id, name, kind, node,
                    cpu, begin, begin, attrs or None)
        self._open.spans.append(span)
        stack.append(span)
        self.span_count += 1
        pending = self._pending_tlb
        if pending is not None:
            self._pending_tlb = None
            # A TLB reload immediately preceded this root: stretch the
            # transaction window back to cover it and record it as the
            # first child, so the breakdown charges a ``tlb`` segment.
            if parent_id == 0 and pending[1] == begin:
                span.begin = pending[0]
                span.end = pending[0]
                self.add("tlb_reload", "tlb", node, pending[0], pending[1])
        return span

    def note_tlb(self, begin, end) -> None:
        """Stash the TLB-reload window the access path just charged.

        Consumed by the next root span that opens exactly at ``end``
        (the TLB miss that preceded a cache miss); discarded otherwise
        (the reference hit in cache after the reload)."""
        self._pending_tlb = (begin, end)

    def end(self, span: Span, end) -> None:
        """Close ``span`` at simulated time ``end``.

        Lenient pop-until-found: any spans opened after ``span`` that
        were never closed are closed at the same time.  When the stack
        empties the trace is complete and its breakdown is computed.
        """
        stack = self._stack
        while stack:
            top = stack.pop()
            top.end = end
            if top is span:
                break
        if not stack and self._open is not None:
            self._finish(self._open)
            self._open = None

    def add(self, name: str, kind: str, node: int, begin, end,
            cpu: int = -1, **attrs) -> "Span | None":
        """Record an already-completed child of the active span.

        Returns ``None`` (and records nothing) when no transaction is
        active — instrumentation sites call this unconditionally and
        rootless work is simply not traced.
        """
        stack = self._stack
        if not stack:
            return None
        parent = stack[-1]
        slot, count = self._new_id(node)
        span = Span(parent.trace_id, _mix(self.seed, slot, count),
                    parent.span_id, name, kind, node, cpu, begin, end,
                    attrs or None)
        self._open.spans.append(span)
        self.span_count += 1
        return span

    def add_root(self, name: str, kind: str, node: int, begin, end,
                 cpu: int = -1, **attrs) -> Span:
        """Record a standalone single-span trace (or, when a
        transaction is active, a child of it).

        Used for cross-CPU message receives: the receive belongs to a
        *different* causal chain than the send, so it gets its own
        trace linked back to the sender via ``link_trace``/``link_span``
        attrs rather than mutating the sender's completed trace.
        """
        if self._stack:
            return self.add(name, kind, node, begin, end, cpu=cpu, **attrs)
        slot, count = self._new_id(node)
        trace_id = _mix(self.seed, slot, count, 0x7ACE)
        span = Span(trace_id, _mix(self.seed, slot, count), 0, name,
                    kind, node, cpu, begin, end, attrs or None)
        trace = Trace(trace_id)
        trace.spans.append(span)
        self.started += 1
        self.span_count += 1
        self._finish(trace)
        return span

    def annotate(self, **attrs) -> None:
        """Merge attrs onto the innermost active span (no-op when no
        transaction is active)."""
        stack = self._stack
        if not stack:
            return
        span = stack[-1]
        if span.attrs is None:
            span.attrs = dict(attrs)
        else:
            span.attrs.update(attrs)

    def count(self, key: str, amount: int = 1) -> None:
        """Increment a counter attr on the innermost active span."""
        stack = self._stack
        if not stack:
            return
        span = stack[-1]
        if span.attrs is None:
            span.attrs = {key: amount}
        else:
            span.attrs[key] = span.attrs.get(key, 0) + amount

    def context(self) -> "tuple[int, int] | None":
        """``(trace_id, span_id)`` of the innermost active span."""
        stack = self._stack
        if not stack:
            return None
        span = stack[-1]
        return (span.trace_id, span.span_id)

    def unwind(self, error: str = "error") -> None:
        """Close all open spans after an exception escaped mid-
        transaction.

        Open spans are closed at the latest simulated time the trace
        has seen, the root is tagged with the ``error`` attr, and the
        (partial) trace is kept — chaos post-mortems want exactly the
        tree of the transaction that hung.
        """
        stack = self._stack
        if not stack:
            return
        trace = self._open
        latest = stack[0].begin
        for span in trace.spans:
            if span.end > latest:
                latest = span.end
        while stack:
            span = stack.pop()
            if span.end < span.begin or span.end < latest:
                span.end = latest if latest > span.begin else span.begin
        trace.error = error
        root = trace.spans[0]
        if root.attrs is None:
            root.attrs = {"error": error}
        else:
            root.attrs["error"] = error
        self.errors += 1
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
        ring = self.traces
        if len(ring) >= self.max_traces:
            ring.popleft()
            self.evicted += 1
        ring.append(trace)
        heap = self._heap
        self._heap_seq += 1
        heappush(heap, (trace.duration, -self._heap_seq, trace))
        if len(heap) > self.top_capacity:
            heappop(heap)

    # -- machine probes ----------------------------------------------------

    def attach(self, machine) -> None:
        """Open root spans on a machine's slow paths.

        Registers span probes on the ``miss``, ``upgrade``, ``fault``
        and ``pageout`` points of ``machine.probes``, and a hop-span
        probe on ``send``.  The per-reference ``access`` point is left
        alone — cache hits are never traced, which is what keeps the
        traced-run overhead within the bench gate.  The ``trace.*``
        roll-ups go to ``machine.registry``.
        """
        self._registry = machine.registry
        self._policy = machine.policy.name
        for point, probe in self._span_probes():
            machine.probes.add(point, probe)

    def detach(self, machine) -> None:
        """Undo :meth:`attach` and drop every handle on this collector.

        Clears ``machine.tracer`` and the controllers' and kernels'
        span handles taken from it, so no component records into this
        collector any more."""
        for point, probe in self._span_probes():
            machine.probes.remove(point, probe)
        machine.tracer = None
        for node in machine.nodes:
            node.controller._tracer = None
            node.kernel._tracer = None

    def _span_probes(self):
        return (("miss", self._miss), ("upgrade", self._upgrade),
                ("fault", self._fault), ("pageout", self._pageout),
                ("send", self._send))

    def _span(self, call, args, name, kind, node, begin, **attrs):
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
        return self._span(call, (cpu, frame, lip, line, is_write, now),
                          "miss", "local", cpu.node.node_id, now,
                          cpu=cpu.cpu_id, write=int(is_write))

    def _upgrade(self, call, cpu, frame, lip, line, now):
        return self._span(call, (cpu, frame, lip, line, now), "upgrade",
                          "local", cpu.node.node_id, now, cpu=cpu.cpu_id,
                          write=1)

    def _fault(self, call, kernel, vpage, now):
        return self._span(call, (vpage, now), "fault", "fault",
                          kernel.node.node_id, now, vpage=vpage)

    def _pageout(self, call, kernel, frame, now, demote=False):
        return self._span(call, (frame, now, demote), "page_out", "pageout",
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

    def errored(self) -> "list[Trace]":
        """Retained traces whose transaction aborted with an error."""
        return [trace for trace in self.traces if trace.error]

    def rollup(self) -> "dict[str, dict[str, int]]":
        """Aggregate ``segment -> {"cycles", "count"}`` over *all*
        completed traces (eviction-proof)."""
        return {kind: {"cycles": entry[0], "count": entry[1]}
                for kind, entry in sorted(self._segments.items())}

    def publish(self, registry) -> None:
        """Write summary gauges into a metrics registry."""
        policy = self._policy
        registry.gauge("trace.transactions", policy=policy).set(self.finished)
        registry.gauge("trace.spans", policy=policy).set(self.span_count)
        registry.gauge("trace.evicted", policy=policy).set(self.evicted)
        registry.gauge("trace.errors", policy=policy).set(self.errors)

    # -- export ------------------------------------------------------------

    def to_spans_jsonl(self) -> str:
        """All retained traces as JSONL, one span per line, roots
        first within each trace (schema: :data:`SPAN_SCHEMA`)."""
        lines = []
        for trace in self.traces:
            for span in trace.spans:
                lines.append(json.dumps(span.to_dict(), sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_spans(self, path) -> int:
        """Write the JSONL span export; returns the span count."""
        text = self.to_spans_jsonl()
        with open(path, "w") as fh:
            fh.write(text)
        return sum(len(trace.spans) for trace in self.traces)

    def to_chrome(self) -> dict:
        """Chrome / Perfetto ``trace_event`` JSON (complete events).

        ``ts``/``dur`` carry simulated cycles in the viewer's
        microsecond field; ``pid`` is the node, ``tid`` the cpu.
        """
        events = []
        for trace in self.traces:
            for span in trace.spans:
                events.append({
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": span.begin,
                    "dur": span.end - span.begin,
                    "pid": span.node,
                    "tid": span.cpu if span.cpu >= 0 else 0,
                    "args": span.to_dict(),
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "tool": "repro trace",
                "seed": self.seed,
                "clock": "simulated cycles (rendered as us)",
            },
        }

    def write_chrome(self, path) -> int:
        """Write the Chrome trace JSON; returns the event count."""
        doc = self.to_chrome()
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        return len(doc["traceEvents"])


#: JSONL span export schema: field name -> allowed types.  Exactly
#: these fields, no extras; ``parent`` is "" for root spans.
SPAN_SCHEMA = {
    "trace": str,
    "span": str,
    "parent": str,
    "name": str,
    "kind": str,
    "node": int,
    "cpu": int,
    "begin": (int, float),
    "end": (int, float),
    "attrs": dict,
}


def validate_span(span: dict) -> None:
    """Validate one exported span dict against :data:`SPAN_SCHEMA`.

    Raises ``ValueError`` on missing/extra fields, type mismatches,
    unknown segment kinds or ``end < begin``.
    """
    if not isinstance(span, dict):
        raise ValueError("span must be an object, got %r" % type(span))
    missing = set(SPAN_SCHEMA) - set(span)
    if missing:
        raise ValueError("span missing field(s) %s" % sorted(missing))
    extra = set(span) - set(SPAN_SCHEMA)
    if extra:
        raise ValueError("span has unexpected field(s) %s" % sorted(extra))
    for field, types in SPAN_SCHEMA.items():
        value = span[field]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError("span field %r has %r, expected %s"
                             % (field, value, types))
    if span["kind"] not in SEGMENTS:
        raise ValueError("unknown span kind %r" % span["kind"])
    if span["end"] < span["begin"]:
        raise ValueError("span %s ends (%s) before it begins (%s)"
                         % (span["span"], span["end"], span["begin"]))


def validate_spans_jsonl(path) -> int:
    """Validate a JSONL span export end to end; returns the span count.

    Beyond per-span schema checks, verifies causal integrity: each
    trace has exactly one root, the root appears before its children,
    and every parent id resolves within its own trace.
    """
    count = 0
    seen: "dict[str, set[str]]" = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError as exc:
                raise ValueError("line %d: bad JSON: %s" % (lineno, exc))
            try:
                validate_span(span)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (lineno, exc))
            trace = span["trace"]
            members = seen.get(trace)
            if span["parent"] == "":
                if members is not None:
                    raise ValueError(
                        "line %d: second root in trace %s" % (lineno, trace))
                seen[trace] = {span["span"]}
            else:
                if members is None:
                    raise ValueError(
                        "line %d: child before root in trace %s"
                        % (lineno, trace))
                if span["parent"] not in members:
                    raise ValueError(
                        "line %d: parent %s not (yet) in trace %s"
                        % (lineno, span["parent"], trace))
                members.add(span["span"])
            count += 1
    return count


# -- the process-wide collector (read once per machine) -------------------

_COLLECTOR: "TraceCollector | None" = None


def current() -> "TraceCollector | None":
    """The installed collector, or ``None`` (the no-op path)."""
    return _COLLECTOR


@contextmanager
def collecting(seed: int = 0, max_traces: int = MAX_TRACES,
               top: int = TOP_CAPACITY):
    """Context manager: install a fresh collector, yield it, uninstall.

    Collectors do not nest: entering a scope while another collector is
    installed raises ``RuntimeError``.
    """
    global _COLLECTOR
    if _COLLECTOR is not None:
        raise RuntimeError("a trace collector is already installed")
    _COLLECTOR = TraceCollector(seed=seed, max_traces=max_traces, top=top)
    try:
        yield _COLLECTOR
    finally:
        _COLLECTOR = None
