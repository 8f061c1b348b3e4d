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

    The machine's reference path looks translations up inline: a hit
    on ``_map`` moves the page to the MRU end.  ``last_vpage`` and
    ``last_frame`` memoize the most recent translation as plain
    attributes, so that path resolves the dominant same-page case
    without a dict lookup.  The memo is only ever a copy of the MRU
    entry: a hit and :meth:`insert` refresh it and :meth:`invalidate`
    clears it, so consulting it is indistinguishable (including final
    LRU order) from a lookup.
    """

    __slots__ = ("entries", "_map", "last_vpage", "last_frame")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.last_vpage = -1
        self.last_frame = -1

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

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._map

    def __len__(self) -> int:
        return len(self._map)
