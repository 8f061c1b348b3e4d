"""Event tracing for the simulated machine: "what happened, in order"
(``repro.obs.tracing`` answers "why was this access slow").

A :class:`TraceRecorder` registers probes on ``machine.probes`` that
emit structured events into an :class:`~repro.obs.events.EventSink`,
the one event store: memory references (with their latency), page
faults, page-outs, home migrations and node failures.  An ``access``
probe sits on the per-reference path, so a recorded run is slower.
It is the substrate behind the CLI's ``run --trace-out FILE``::

    from repro.obs.events import EventSink

    sink = EventSink()
    machine = Machine(config, policy="dyn-lru")
    with TraceRecorder(machine, kinds={"fault", "pageout"}, sink=sink):
        machine.run(workload)
    sink.write_jsonl("trace.jsonl")
"""

from __future__ import annotations

from repro.obs.events import EventSink

#: The event kinds a recorder can produce (each is also a probe point
#: and an ``EVENT_SCHEMA`` kind).
KINDS = ("access", "fault", "pageout", "migrate", "node_fail")


class TraceRecorder:
    """Records machine events into ``sink`` while active (use as a
    context manager); a fresh :class:`EventSink` when none is given."""

    def __init__(self, machine, kinds: "set[str] | None" = None,
                 sink: "EventSink | None" = None) -> None:
        unknown = (set(kinds) - set(KINDS)) if kinds else set()
        if unknown:
            raise ValueError("unknown trace kinds: %s" % sorted(unknown))
        self.machine = machine
        self.kinds = set(kinds) if kinds is not None else set(KINDS)
        self.sink = sink if sink is not None else EventSink()

    def _probes(self) -> "list[tuple[str, object]]":
        # Built on each call, never stored: a list of bound methods on
        # ``self`` would be a reference cycle that keeps the recorder,
        # and with it a closed machine, alive until a cyclic GC.
        return [(kind, getattr(self, "_" + kind))
                for kind in KINDS if kind in self.kinds]

    def __enter__(self) -> "TraceRecorder":
        for kind, probe in self._probes():
            self.machine.probes.add(kind, probe)
        return self

    def __exit__(self, *exc) -> None:
        for kind, probe in self._probes():
            self.machine.probes.remove(kind, probe)

    # -- probes --------------------------------------------------------------

    def _access(self, call, cpu, vaddr, is_write, now):
        done = call(cpu, vaddr, is_write, now)
        self.sink.emit("access", time=now, cpu=cpu.cpu_id, vaddr=vaddr,
                       write=bool(is_write), latency=done - now)
        return done

    def _fault(self, call, kernel, vpage, now):
        frame, done = call(vpage, now)
        node_id = kernel.node.node_id
        entry = kernel.node.pit.entry_or_none(frame)
        gpage = entry.gpage if entry is not None else -1
        self.sink.emit(
            "fault", time=now, node=node_id, vpage=vpage, gpage=gpage,
            mode=entry.mode.name if entry is not None else "?",
            remote_home=(gpage >= 0 and
                         kernel.machine.dynamic_home_of(gpage) != node_id))
        return frame, done

    def _pageout(self, call, kernel, frame, now, demote=False):
        done = call(frame, now, demote)
        self.sink.emit("pageout", time=now, node=kernel.node.node_id,
                       frame=frame, demoted=bool(demote))
        return done

    def _migrate(self, gpage, old_home, new_home):
        self.sink.emit("migrate", gpage=gpage, old_home=old_home,
                       new_home=new_home)

    def _node_fail(self, node_id, now):
        self.sink.emit("node_fail", time=now, node=node_id)
