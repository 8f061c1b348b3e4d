"""The value tap: observed-value history for every memory reference.

The simulator models timing, not data — caches hold line *states*, not
bytes.  To check coherence we therefore attach a shadow value model to
the reference path and record what each read *would have observed*:

* every write installs a fresh value (a global version number) for its
  line, in resolution order;
* a read that **misses** fetches current data, so it observes the
  line's latest version (and refreshes this CPU's shadow copy);
* a read that **hits** observes whatever version this CPU's copy held
  when it was last filled or written.

In a coherent machine the two cases agree: a cached copy only survives
while no other write intervenes (the protocol invalidates it
otherwise), so every hit observes the latest version too.  A protocol
bug that fails to invalidate (or wrongly serves a local copy) leaves a
CPU hitting a *stale* shadow copy, and the recorded read value diverges
from the latest write — which :func:`repro.verify.checker.check_history`
then flags.

The tap is an ``access`` probe on ``machine.probes`` (see
:mod:`repro.sim.probes`; the event loop binds the access chain once per
run, so attach before ``machine.run``) and costs nothing when not
attached.
"""

from __future__ import annotations


class ValueTracker:
    """Record read/write value events of one machine into a sink.

    Attach before ``machine.run`` so every cache fill happens under
    tracking; call :meth:`detach` afterwards.  Keys are *virtual* line
    numbers (``vaddr >> line_shift``) — global across nodes and stable
    across home migration and page-out, unlike physical frames.
    """

    def __init__(self, machine, sink) -> None:
        self.machine = machine
        self.sink = sink
        #: Global write counter; doubles as the value each write
        #: installs, so values are unique and ordered by construction.
        self.version = 0
        #: vline -> version of the latest write (missing = initial 0).
        self.latest: "dict[int, int]" = {}
        #: (cpu_id, vline) -> version this CPU's cached copy holds.
        self.cpu_copy: "dict[tuple[int, int], int]" = {}
        self._line_shift = machine._line_shift
        self._page_shift = machine._page_shift
        self._lpp = machine._lpp
        self._lip_mask = machine._lip_mask
        machine.probes.add("access", self._on_access)

    def detach(self) -> None:
        """Remove the tracker's probe (a no-op when already removed)."""
        if self._on_access in self.machine.probes.access:
            self.machine.probes.remove("access", self._on_access)

    def _on_access(self, call, cpu, vaddr: int, is_write: bool,
                   now: int) -> int:
        vline = vaddr >> self._line_shift
        if is_write:
            t = call(cpu, vaddr, True, now)
            self.version += 1
            version = self.version
            self.latest[vline] = version
            self.cpu_copy[(cpu.cpu_id, vline)] = version
            self.sink.emit("write", time=t, cpu=cpu.cpu_id, vaddr=vaddr,
                           value=version, version=version)
            return t
        # Classify hit/miss BEFORE resolving: the access itself fills
        # the cache, so probing afterwards would call every read a hit.
        # The probe reads the kernel page table and the flat cache dicts
        # directly — no TLB/LRU/counter state is disturbed.
        hit = False
        frame = cpu.node.kernel.page_table.get(vaddr >> self._page_shift)
        if frame is not None:
            line = frame * self._lpp + (vline & self._lip_mask)
            hierarchy = cpu.hierarchy
            hit = (line in hierarchy.l1.flat or line in hierarchy.l2.flat)
        t = call(cpu, vaddr, False, now)
        key = (cpu.cpu_id, vline)
        current = self.latest.get(vline, 0)
        if hit:
            observed = self.cpu_copy.get(key, current)
        else:
            observed = current
            self.cpu_copy[key] = current
        self.sink.emit("read", time=t, cpu=cpu.cpu_id, vaddr=vaddr,
                       value=observed, version=observed)
        return t
