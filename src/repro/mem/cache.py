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

from collections import OrderedDict
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

    Alongside the per-set LRU maps the cache keeps ``flat``, a single
    ``line -> state`` dict over every resident line.  ``flat`` carries
    no LRU information — the per-set OrderedDicts remain authoritative
    for replacement — but it lets the simulator's front-line fast path
    resolve the dominant hit case with one dict probe instead of a
    method-call chain, and it makes :meth:`peek`/``in`` O(1) without a
    set-index computation.
    """

    __slots__ = ("num_sets", "associativity", "_sets", "flat")

    def __init__(self, cfg: CacheConfig) -> None:
        self.num_sets = cfg.num_sets
        self.associativity = cfg.associativity
        self._sets: "list[OrderedDict[int, LineState]]" = [
            OrderedDict() for _ in range(self.num_sets)]
        #: line -> state mirror of every resident line (all sets).
        self.flat: "dict[int, LineState]" = {}

    def lookup(self, line: int) -> LineState:
        """State of ``line``; touches LRU on hit."""
        state = self.flat.get(line)
        if state is None:
            return LineState.INVALID
        self._sets[line % self.num_sets].move_to_end(line)
        return state

    def peek(self, line: int) -> LineState:
        """State of ``line`` without touching LRU."""
        return self.flat.get(line, LineState.INVALID)

    def insert(self, line: int, state: LineState) -> "tuple[int, LineState] | None":
        """Insert ``line`` (must not be present); returns the evicted
        ``(line, state)`` if the set overflowed, else ``None``."""
        cache_set = self._sets[line % self.num_sets]
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)
            del self.flat[victim[0]]
        cache_set[line] = state
        self.flat[line] = state
        return victim

    def set_state(self, line: int, state: LineState) -> None:
        """Change the state of a resident line (no LRU touch)."""
        cache_set = self._sets[line % self.num_sets]
        if line not in cache_set:
            raise KeyError("line %d not resident" % line)
        cache_set[line] = state
        self.flat[line] = state

    def remove(self, line: int) -> LineState:
        """Remove ``line``; returns its previous state (INVALID if absent)."""
        state = self.flat.pop(line, None)
        if state is None:
            return LineState.INVALID
        del self._sets[line % self.num_sets][line]
        return state

    def resident_lines(self) -> "list[int]":
        """Every line currently resident (all sets)."""
        return [line for cache_set in self._sets for line in cache_set]

    def __contains__(self, line: int) -> bool:
        return line in self.flat

    def __len__(self) -> int:
        return len(self.flat)


class NodePresence:
    """Which local CPUs cache each physical line of this node.

    The bus snooping logic (sibling supply, sibling invalidation) and
    the controller's intervention paths consult this instead of probing
    every CPU's caches.  Only residency is tracked; per-CPU states are
    read from the hierarchies on the (infrequent) paths that need them.
    """

    __slots__ = ("_holders",)

    def __init__(self) -> None:
        self._holders: "dict[int, set[int]]" = {}

    def add(self, line: int, local_cpu: int) -> None:
        """Record that ``local_cpu`` now caches ``line``."""
        holders = self._holders.get(line)
        if holders is None:
            self._holders[line] = {local_cpu}
        else:
            holders.add(local_cpu)

    def remove(self, line: int, local_cpu: int) -> None:
        """Record that ``local_cpu`` dropped ``line``."""
        holders = self._holders.get(line)
        if holders is None:
            return
        holders.discard(local_cpu)
        if not holders:
            del self._holders[line]

    def holders(self, line: int) -> "set[int]":
        """Local CPUs caching ``line``."""
        return self._holders.get(line, _EMPTY_SET)

    def any_holder(self, line: int) -> bool:
        """Does any local CPU cache ``line``?"""
        return line in self._holders


_EMPTY_SET: "frozenset[int]" = frozenset()


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

    # -- lookups -------------------------------------------------------

    def probe(self, line: int) -> "tuple[str, LineState]":
        """Where ``line`` lives: ('l1'|'l2'|'miss', state).

        An L2-only hit is promoted into L1 (possibly spilling an L1
        victim back to L2, which is free under inclusion since the L2
        copy is still resident).
        """
        state = self.l1.lookup(line)
        if state != LineState.INVALID:
            return "l1", state
        state = self.l2.lookup(line)
        if state == LineState.INVALID:
            return "miss", LineState.INVALID
        self._promote_to_l1(line, state)
        return "l2", state

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

        Both inserts are :meth:`Cache.insert` spelled out inline (same
        LRU replacement) — fill runs once per miss and the call
        overhead was measurable.
        """
        lost = ()
        l1, l2 = self.l1, self.l2
        cache_set = l2._sets[line % l2.num_sets]
        if len(cache_set) >= l2.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l2.flat[vline]
            l1_state = l1.flat.pop(vline, None)  # inclusion
            if l1_state is not None:
                del l1._sets[vline % l1.num_sets][vline]
                if l1_state == _MODIFIED:
                    vstate = _MODIFIED
            lost = [(vline, vstate)]
        cache_set[line] = state
        l2.flat[line] = state
        cache_set = l1._sets[line % l1.num_sets]
        if len(cache_set) >= l1.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l1.flat[vline]
            # Inclusion: L2 still holds the line; merge dirtiness down.
            if vstate == _MODIFIED:
                l2.set_state(vline, _MODIFIED)
        cache_set[line] = state
        l1.flat[line] = state
        return lost

    # Below: Cache.set_state / Cache.remove spelled out on each level.

    def write_hit(self, line: int) -> None:
        """Mark a resident line MODIFIED in L1 (and L2 for inclusion
        bookkeeping the machine relies on during flushes)."""
        l1, l2 = self.l1, self.l2
        if line in l1.flat:
            l1.flat[line] = _MODIFIED
            l1._sets[line % l1.num_sets][line] = _MODIFIED
        if line not in l2.flat:  # pragma: no cover - inclusion
            raise KeyError("write_hit on non-resident line %d" % line)
        l2.flat[line] = _MODIFIED
        l2._sets[line % l2.num_sets][line] = _MODIFIED

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns True if a dirty copy was lost."""
        dirty = False
        for cache in (self.l1, self.l2):
            state = cache.flat.pop(line, None)
            if state is not None:
                del cache._sets[line % cache.num_sets][line]
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
                cache._sets[line % cache.num_sets][line] = _SHARED
        return dirty

    def _promote_to_l1(self, line: int, state: LineState) -> None:
        # Cache.insert inlined (same replacement): this
        # runs on every L2 hit.
        l1 = self.l1
        cache_set = l1._sets[line % l1.num_sets]
        if len(cache_set) >= l1.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l1.flat[vline]
            if vstate == _MODIFIED:
                self.l2.set_state(vline, _MODIFIED)
        cache_set[line] = state
        l1.flat[line] = state
