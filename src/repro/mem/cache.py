"""Set-associative processor caches for the simulated nodes.

Each simulated CPU owns a two-level (L1/L2), inclusive, write-back
cache hierarchy.  Line states follow MESI, interpreted at machine scope:

* ``MODIFIED``  — this CPU holds the only valid copy, dirty.
* ``EXCLUSIVE`` — this CPU holds the only cached copy machine-wide and
  the backing memory (local page cache for S-COMA frames, the remote
  home for LA-NUMA frames) is up to date.
* ``SHARED``    — other caches (sibling CPUs or remote nodes) may hold
  copies; writes require an upgrade transaction.
* ``INVALID``   — not present.

Cache keys are *physical line numbers* (``frame * lines_per_page +
line-within-page``), which are node-local in PRISM.
"""

from __future__ import annotations

from enum import IntEnum

from repro.sim.config import CacheConfig


class LineState(IntEnum):
    """MESI line states, interpreted machine-wide (module docstring)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


_INVALID = LineState.INVALID
_SHARED = LineState.SHARED
_MODIFIED = LineState.MODIFIED


class Cache:
    """One level of set-associative, LRU, write-back cache.

    Each set's LRU order is a short list of its resident lines, least
    recently used first.  ``flat``, a single ``line -> state`` dict over
    every resident line, is the only store of line state.  The machine
    and :class:`CacheHierarchy` work on both directly: the simulator's
    front-line fast path resolves the dominant hit case with one
    ``flat`` probe and moves the line to the end of its set's list
    (nothing to do when it is already there), and an insert into a full
    set evicts the list's first line.
    """

    __slots__ = ("num_sets", "associativity", "_sets", "flat")

    def __init__(self, cfg: CacheConfig) -> None:
        self.num_sets = cfg.num_sets
        self.associativity = cfg.associativity
        self._sets: "list[list[int]]" = [[] for _ in range(self.num_sets)]
        #: line -> state of every resident line (all sets).
        self.flat: "dict[int, LineState]" = {}

    def set_state(self, line: int, state: LineState) -> None:
        """Change the state of a resident line (no LRU touch)."""
        if line not in self.flat:
            raise KeyError("line %d not resident" % line)
        self.flat[line] = state

    def resident_lines(self) -> "list[int]":
        """Every line currently resident (all sets)."""
        return [line for lru in self._sets for line in lru]

    def __contains__(self, line: int) -> bool:
        return line in self.flat

    def __len__(self) -> int:
        return len(self.flat)


class NodePresence:
    """Which local CPUs cache each physical line of this node.

    The bus snooping logic (sibling supply, sibling invalidation) and
    the controller's intervention paths consult this instead of probing
    every CPU's caches.  Only residency is tracked, as presence bits:
    ``_holders`` maps a cached line to an int with bit ``local_id`` set
    per CPU caching it (any number of CPUs), and an uncached line to
    nothing.  Per-CPU states are read from the hierarchies on the
    (infrequent) paths that need them; no reader depends on bit order.
    """

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: "dict[int, int]" = {}

    def remove(self, line: int, local_cpu: int) -> None:
        """Record that ``local_cpu`` dropped ``line``."""
        mask = self._holders.get(line, 0) & ~(1 << local_cpu)
        if mask:
            self._holders[line] = mask
        else:
            self._holders.pop(line, None)


class CacheHierarchy:
    """Inclusive L1/L2 pair for one CPU.

    The hierarchy only manages residency and per-CPU state; machine-wide
    coherence decisions (what state a fill is granted, what happens to
    evicted dirty lines) are made by the node and controller models,
    which call back into :meth:`fill`, :meth:`invalidate` and
    :meth:`downgrade`.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> None:
        self.l1 = Cache(l1_cfg)
        self.l2 = Cache(l2_cfg)

    def state(self, line: int) -> LineState:
        """Machine-visible state of ``line`` in this hierarchy."""
        state = self.l1.flat.get(line)
        if state is not None:
            return state
        return self.l2.flat.get(line, _INVALID)

    # -- mutations -----------------------------------------------------

    def fill(self, line: int, state: LineState
             ) -> "list[tuple[int, LineState]] | tuple[()]":
        """Install a missing line in L2+L1 with ``state``.

        Returns the lines this CPU *lost* as ``(line, state)`` pairs —
        L2 victims (with their merged L1 dirtiness) that the node must
        write back (if MODIFIED) and deregister — or ``()`` if none.

        Both inserts are spelled out inline on ``flat`` and ``_sets``
        (LRU replacement) — fill runs once per miss and the call
        overhead was measurable.
        """
        lost = ()
        l1, l2 = self.l1, self.l2
        lru = l2._sets[line % l2.num_sets]
        if len(lru) >= l2.associativity:
            vline = lru.pop(0)
            vstate = l2.flat.pop(vline)
            l1_state = l1.flat.pop(vline, None)  # inclusion
            if l1_state is not None:
                l1._sets[vline % l1.num_sets].remove(vline)
                if l1_state == _MODIFIED:
                    vstate = _MODIFIED
            lost = [(vline, vstate)]
        lru.append(line)
        l2.flat[line] = state
        lru = l1._sets[line % l1.num_sets]
        if len(lru) >= l1.associativity:
            vline = lru.pop(0)
            # Inclusion: L2 still holds the line; merge dirtiness down.
            if l1.flat.pop(vline) == _MODIFIED:
                l2.set_state(vline, _MODIFIED)
        lru.append(line)
        l1.flat[line] = state
        return lost

    # Below: state changes and removals spelled out on each level.

    def write_hit(self, line: int) -> None:
        """Mark a resident line MODIFIED in L1 (and L2 for inclusion
        bookkeeping the machine relies on during flushes)."""
        l1, l2 = self.l1, self.l2
        if line in l1.flat:
            l1.flat[line] = _MODIFIED
        if line not in l2.flat:  # pragma: no cover - inclusion
            raise KeyError("write_hit on non-resident line %d" % line)
        l2.flat[line] = _MODIFIED

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns True if a dirty copy was lost."""
        dirty = False
        for cache in (self.l1, self.l2):
            state = cache.flat.pop(line, None)
            if state is not None:
                cache._sets[line % cache.num_sets].remove(line)
                if state == _MODIFIED:
                    dirty = True
        return dirty

    def downgrade(self, line: int) -> bool:
        """M/E -> SHARED (remote read of our exclusive line).

        Returns True if the copy was dirty (data must be supplied).
        """
        dirty = False
        for cache in (self.l1, self.l2):
            state = cache.flat.get(line)
            if state is not None:
                if state == _MODIFIED:
                    dirty = True
                cache.flat[line] = _SHARED
        return dirty

    def _promote_to_l1(self, line: int, state: LineState) -> None:
        # The L1 insert inlined (same replacement as fill): this
        # runs on every L2 hit.
        l1 = self.l1
        lru = l1._sets[line % l1.num_sets]
        if len(lru) >= l1.associativity:
            vline = lru.pop(0)
            if l1.flat.pop(vline) == _MODIFIED:
                self.l2.set_state(vline, _MODIFIED)
        lru.append(line)
        l1.flat[line] = state
