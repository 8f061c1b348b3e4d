"""Per-CPU translation lookaside buffer.

PRISM keeps virtual-to-physical translations *node private* (section 3),
so a TLB maps the process virtual page number to a node-local frame
number.  Because translations are private, page mode changes and page
migrations never require global ("shootdown") TLB invalidations — only
the CPUs of the local node are touched, which the kernel model exploits.
"""

from __future__ import annotations

from collections import OrderedDict


class Tlb:
    """Fully-associative LRU TLB of ``entries`` translations.

    ``last_vpage``/``last_frame`` memoize the most recent translation
    as plain attributes, so the simulator's reference loop resolves the
    dominant same-page case without a method call.  The memo is only
    ever a copy of the MRU entry: :meth:`lookup`/:meth:`insert` refresh
    it and :meth:`invalidate`/:meth:`flush` clear it, so consulting it
    is indistinguishable (including final LRU order) from calling
    :meth:`lookup`.
    """

    __slots__ = ("entries", "_map", "last_vpage", "last_frame")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.last_vpage = -1
        self.last_frame = -1

    def lookup(self, vpage: int) -> "int | None":
        """Frame backing ``vpage``, or ``None`` on a TLB miss."""
        frame = self._map.get(vpage)
        if frame is None:
            return None
        self._map.move_to_end(vpage)
        self.last_vpage = vpage
        self.last_frame = frame
        return frame

    def insert(self, vpage: int, frame: int) -> None:
        """Install a translation, evicting the LRU entry if full."""
        if vpage in self._map:
            self._map.move_to_end(vpage)
        elif len(self._map) >= self.entries:
            evicted, _ = self._map.popitem(last=False)
            if evicted == self.last_vpage:
                self.last_vpage = -1
        self._map[vpage] = frame
        self.last_vpage = vpage
        self.last_frame = frame

    def invalidate(self, vpage: int) -> bool:
        """Drop the translation for ``vpage``; True if it was present."""
        if vpage == self.last_vpage:
            self.last_vpage = -1
        return self._map.pop(vpage, None) is not None

    def flush(self) -> None:
        """Drop every translation."""
        self.last_vpage = -1
        self._map.clear()

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._map

    def __len__(self) -> int:
        return len(self._map)
