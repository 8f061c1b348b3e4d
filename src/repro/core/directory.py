"""Full-map cache-line directory kept at each page's (dynamic) home.

The directory records, per cache line of a globally shared page, which
nodes hold copies and which node (if any) holds the line exclusively.
The paper models the directory as DRAM fronted by an 8K-entry cache
(hit: 2 cycles, miss: 22 cycles); :class:`DirectoryCache` reproduces
that timing split.

Directory state per line:

* ``HOME_EXCL``   — only the home's memory copy is valid (no remote
  copies, although the home node's own CPUs may cache it).
* ``SHARED``      — one or more client nodes (and the home) hold
  read-only copies.
* ``CLIENT_EXCL`` — exactly one client node owns the line, possibly
  dirty; the home memory copy is stale.

Per page, the directory also records the client list used by external
paging (section 3.3) and the reference counters that drive lazy home
migration (section 3.5).
"""

from __future__ import annotations

from collections import OrderedDict
from enum import IntEnum


class DirState(IntEnum):
    """Directory line states (module docstring)."""

    HOME_EXCL = 0
    SHARED = 1
    CLIENT_EXCL = 2


#: The sharers of every directory line that has none: one shared set.
NO_SHARERS: "frozenset[int]" = frozenset()


class DirLine:
    """Directory entry for one cache line.

    ``sharers`` is :data:`NO_SHARERS` until a sharer is added, then a
    real set until the protocol resets the line.  A set emptied by
    ``discard`` is kept, never swapped for a fresh one: its iteration
    order, the home's invalidation order, depends on its history.
    """

    __slots__ = ("state", "owner", "sharers")

    def __init__(self) -> None:
        self.state = DirState.HOME_EXCL
        self.owner = -1
        self.sharers: "set[int] | frozenset[int]" = NO_SHARERS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DirLine(%s, owner=%d, sharers=%r)" % (
            self.state.name, self.owner, self.sharers)


class DirectoryPage:
    """Directory state for all lines of one global page."""

    __slots__ = ("gpage", "home_frame", "lines", "clients", "remote_refs")

    def __init__(self, gpage: int, home_frame: int, lines_per_page: int) -> None:
        self.gpage = gpage
        self.home_frame = home_frame
        self.lines = [DirLine() for _ in range(lines_per_page)]
        #: Client nodes that have the page mapped (external paging).
        self.clients: "set[int]" = set()
        #: Remote coherence requests serviced for this page; the lazy
        #: migration policy reads this counter (section 3.5).
        self.remote_refs = 0


class DirectoryCache:
    """LRU cache over directory entries, modelling hit/miss timing."""

    __slots__ = ("capacity", "_keys", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._keys: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, gpage: int, line_in_page: int) -> bool:
        """Touch the entry for (gpage, line); returns True on a hit."""
        key = gpage << 32 | line_in_page  # no page has 2**32 lines
        if key in self._keys:
            self._keys.move_to_end(key)
            self.hits += 1
            return True
        if len(self._keys) >= self.capacity:
            self._keys.popitem(last=False)
        self._keys[key] = None
        self.misses += 1
        return False


class Directory:
    """Per-node directory for the pages homed (dynamically) here."""

    def __init__(self, node_id: int, lines_per_page: int,
                 cache_entries: int) -> None:
        self.node_id = node_id
        self.lines_per_page = lines_per_page
        self._pages: "dict[int, DirectoryPage]" = {}
        self.cache = DirectoryCache(cache_entries)

    def create_page(self, gpage: int, home_frame: int) -> DirectoryPage:
        """Create the directory for a page homed here."""
        if gpage in self._pages:
            raise KeyError("directory for gpage %d already exists" % gpage)
        page = DirectoryPage(gpage, home_frame, self.lines_per_page)
        self._pages[gpage] = page
        return page

    def page(self, gpage: int) -> "DirectoryPage | None":
        """Directory of ``gpage``, if homed here."""
        return self._pages.get(gpage)

    def remove_page(self, gpage: int) -> DirectoryPage:
        """Detach a page's directory (page-out or home migration)."""
        return self._pages.pop(gpage)

    def adopt_page(self, page: DirectoryPage, home_frame: int) -> None:
        """Install a migrated page's directory at this (new) home."""
        if page.gpage in self._pages:
            raise KeyError("gpage %d already homed here" % page.gpage)
        page.home_frame = home_frame
        self._pages[page.gpage] = page

    def pages(self) -> "list[DirectoryPage]":
        """All pages homed here."""
        return list(self._pages.values())

    def __contains__(self, gpage: int) -> bool:
        return gpage in self._pages

    def __len__(self) -> int:
        return len(self._pages)
