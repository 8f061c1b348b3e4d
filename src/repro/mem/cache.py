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

    __slots__ = ("num_sets", "associativity", "_sets", "flat", "hits",
                 "misses", "evictions")

    def __init__(self, cfg: CacheConfig) -> None:
        self.num_sets = cfg.num_sets
        self.associativity = cfg.associativity
        self._sets: "list[OrderedDict[int, LineState]]" = [
            OrderedDict() for _ in range(self.num_sets)]
        #: line -> state mirror of every resident line (all sets).
        self.flat: "dict[int, LineState]" = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> LineState:
        """State of ``line``; touches LRU on hit."""
        state = self.flat.get(line)
        if state is None:
            self.misses += 1
            return LineState.INVALID
        self._sets[line % self.num_sets].move_to_end(line)
        self.hits += 1
        return state

    def peek(self, line: int) -> LineState:
        """State of ``line`` without touching LRU or hit counters."""
        return self.flat.get(line, LineState.INVALID)

    def insert(self, line: int, state: LineState) -> "tuple[int, LineState] | None":
        """Insert ``line`` (must not be present); returns the evicted
        ``(line, state)`` if the set overflowed, else ``None``."""
        cache_set = self._sets[line % self.num_sets]
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)
            del self.flat[victim[0]]
            self.evictions += 1
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

    def drop_line(self, line: int) -> None:
        """Forget every holder of ``line``."""
        self._holders.pop(line, None)


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
        state = self.probe_l2(line)
        if state == LineState.INVALID:
            return "miss", LineState.INVALID
        return "l2", state

    def probe_l2(self, line: int) -> LineState:
        """The L2 half of :meth:`probe`, for callers that already
        resolved the L1 miss against ``l1.flat``: looks ``line`` up in
        L2 and promotes a hit into L1.  Returns the line state
        (INVALID on a full miss)."""
        state = self.l2.lookup(line)
        if state != LineState.INVALID:
            self._promote_to_l1(line, state)
        return state

    def state(self, line: int) -> LineState:
        """Machine-visible state of ``line`` in this hierarchy."""
        state = self.l1.peek(line)
        if state != LineState.INVALID:
            return state
        return self.l2.peek(line)

    # -- mutations -----------------------------------------------------

    def fill(self, line: int, state: LineState) -> "list[tuple[int, LineState]]":
        """Install a missing line in L2+L1 with ``state``.

        Returns the list of lines this CPU *lost* as ``(line, state)``
        pairs — L2 victims (with their merged L1 dirtiness) that the
        node must write back (if MODIFIED) and deregister.

        Both inserts are :meth:`Cache.insert` spelled out inline (same
        LRU replacement, same eviction counters) — fill runs once per
        miss and the call overhead was measurable.
        """
        lost: "list[tuple[int, LineState]]" = []
        l1, l2 = self.l1, self.l2
        cache_set = l2._sets[line % l2.num_sets]
        if len(cache_set) >= l2.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l2.flat[vline]
            l2.evictions += 1
            l1_state = l1.remove(vline)  # inclusion
            if l1_state == _MODIFIED:
                vstate = _MODIFIED
            lost.append((vline, vstate))
        cache_set[line] = state
        l2.flat[line] = state
        cache_set = l1._sets[line % l1.num_sets]
        if len(cache_set) >= l1.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l1.flat[vline]
            l1.evictions += 1
            # Inclusion: L2 still holds the line; merge dirtiness down.
            if vstate == _MODIFIED:
                l2.set_state(vline, _MODIFIED)
        cache_set[line] = state
        l1.flat[line] = state
        return lost

    def write_hit(self, line: int) -> None:
        """Mark a resident line MODIFIED in L1 (and L2 for inclusion
        bookkeeping the machine relies on during flushes)."""
        if line in self.l1:
            self.l1.set_state(line, LineState.MODIFIED)
        if line in self.l2:
            self.l2.set_state(line, LineState.MODIFIED)
        else:  # pragma: no cover - inclusion guarantees L2 residency
            raise KeyError("write_hit on non-resident line %d" % line)

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns True if a dirty copy was lost."""
        dirty = self.l1.remove(line) == LineState.MODIFIED
        dirty = self.l2.remove(line) == LineState.MODIFIED or dirty
        return dirty

    def downgrade(self, line: int) -> bool:
        """M/E -> SHARED (remote read of our exclusive line).

        Returns True if the copy was dirty (data must be supplied).
        """
        dirty = False
        for cache in (self.l1, self.l2):
            state = cache.peek(line)
            if state == LineState.MODIFIED:
                dirty = True
            if state != LineState.INVALID:
                cache.set_state(line, LineState.SHARED)
        return dirty

    def _promote_to_l1(self, line: int, state: LineState) -> None:
        # Cache.insert inlined (same replacement and counters): this
        # runs on every L2 hit.
        l1 = self.l1
        cache_set = l1._sets[line % l1.num_sets]
        if len(cache_set) >= l1.associativity:
            vline, vstate = cache_set.popitem(last=False)
            del l1.flat[vline]
            l1.evictions += 1
            if vstate == _MODIFIED:
                self.l2.set_state(vline, _MODIFIED)
        cache_set[line] = state
        l1.flat[line] = state
