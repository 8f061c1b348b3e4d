"""Property-based tests for the caches, against reference models."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheHierarchy, LineState
from repro.sim.config import CacheConfig

from tests.conftest import probe

LINES = st.integers(min_value=0, max_value=63)
STATES = st.sampled_from([LineState.SHARED, LineState.EXCLUSIVE,
                          LineState.MODIFIED])


class ReferenceCache:
    """Trivially correct set-associative LRU model: one OrderedDict of
    ``line -> state`` per set, least recently used first."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def lookup(self, line):
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            return s[line]
        return LineState.INVALID

    def peek(self, line):
        return self.sets[line % self.num_sets].get(line, LineState.INVALID)

    def insert(self, line, state):
        s = self.sets[line % self.num_sets]
        victim = None
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
        s[line] = state
        return victim

    def set_state(self, line, state):
        s = self.sets[line % self.num_sets]
        assert line in s
        s[line] = state

    def remove(self, line):
        return self.sets[line % self.num_sets].pop(line, LineState.INVALID)


@given(st.lists(st.tuples(LINES, st.booleans()), min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_hierarchy_inclusion_invariant(accesses):
    """After any access sequence, L1 contents are a subset of L2."""
    h = CacheHierarchy(CacheConfig(128, 32, 2), CacheConfig(256, 32, 2))
    for line, write in accesses:
        level, state = probe(h, line)
        if level == "miss":
            h.fill(line, LineState.MODIFIED if write else LineState.SHARED)
        elif write and state != LineState.MODIFIED:
            h.write_hit(line)
    for line in h.l1.resident_lines():
        assert line in h.l2, "inclusion violated for line %d" % line


@given(st.lists(st.tuples(LINES, st.booleans()), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_hierarchy_dirty_lines_never_lost_silently(accesses):
    """Every MODIFIED fill is either still resident or was reported as a
    MODIFIED victim by fill()."""
    h = CacheHierarchy(CacheConfig(128, 32, 2), CacheConfig(256, 32, 2))
    dirty = set()
    for line, write in accesses:
        level, state = probe(h, line)
        if level == "miss":
            state = LineState.MODIFIED if write else LineState.SHARED
            for vline, vstate in h.fill(line, state):
                if vline in dirty:
                    assert vstate == LineState.MODIFIED, \
                        "dirty line %d evicted clean" % vline
                    dirty.discard(vline)
        elif write and state != LineState.MODIFIED:
            h.write_hit(line)
        if write:
            dirty.add(line)
    for line in dirty:
        assert h.state(line) == LineState.MODIFIED


@given(st.lists(st.integers(0, 31), min_size=1, max_size=200),
       st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_tlb_never_exceeds_capacity_and_keeps_mru(vpages, entries):
    from repro.mem.tlb import Tlb
    tlb = Tlb(entries)
    for vp in vpages:
        if tlb.lookup(vp) is None:
            tlb.insert(vp, vp * 10)
        assert len(tlb) <= entries
    assert tlb.lookup(vpages[-1]) == vpages[-1] * 10


class ReferenceHierarchy:
    """The hierarchy operations spelled with the reference model's
    methods only (lookup/peek/insert/set_state/remove) -- the model the
    inlined fast paths of CacheHierarchy must match step for step."""

    def __init__(self, l1_cfg, l2_cfg):
        self.l1 = ReferenceCache(l1_cfg.num_sets, l1_cfg.associativity)
        self.l2 = ReferenceCache(l2_cfg.num_sets, l2_cfg.associativity)

    def probe(self, line):
        state = self.l1.lookup(line)
        if state != LineState.INVALID:
            return "l1", state
        state = self.l2.lookup(line)
        if state == LineState.INVALID:
            return "miss", state
        victim = self.l1.insert(line, state)
        if victim is not None and victim[1] == LineState.MODIFIED:
            self.l2.set_state(victim[0], LineState.MODIFIED)
        return "l2", state

    def state(self, line):
        state = self.l1.peek(line)
        if state != LineState.INVALID:
            return state
        return self.l2.peek(line)

    def fill(self, line, state):
        lost = []
        victim = self.l2.insert(line, state)
        if victim is not None:
            vline, vstate = victim
            if self.l1.remove(vline) == LineState.MODIFIED:
                vstate = LineState.MODIFIED
            lost.append((vline, vstate))
        victim = self.l1.insert(line, state)
        if victim is not None and victim[1] == LineState.MODIFIED:
            self.l2.set_state(victim[0], LineState.MODIFIED)
        return lost

    def write_hit(self, line):
        if self.l1.peek(line) != LineState.INVALID:
            self.l1.set_state(line, LineState.MODIFIED)
        self.l2.set_state(line, LineState.MODIFIED)

    def invalidate(self, line):
        dirty = self.l1.remove(line) == LineState.MODIFIED
        return self.l2.remove(line) == LineState.MODIFIED or dirty

    def downgrade(self, line):
        dirty = False
        for cache in (self.l1, self.l2):
            state = cache.peek(line)
            if state == LineState.MODIFIED:
                dirty = True
            if state != LineState.INVALID:
                cache.set_state(line, LineState.SHARED)
        return dirty


#: Few lines, so most fills and promotions land in a full set, where
#: the LRU order picks the victim.
HIERARCHY_LINES = st.integers(min_value=0, max_value=15)
HIERARCHY_OPS = ("fill", "probe", "state", "write_hit", "invalidate",
                 "downgrade")


@st.composite
def hierarchy_ops(draw):
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("fill"), HIERARCHY_LINES, STATES),
            st.tuples(st.just("probe"), HIERARCHY_LINES),
            st.tuples(st.just("state"), HIERARCHY_LINES),
            st.tuples(st.just("write_hit"), HIERARCHY_LINES),
            st.tuples(st.just("invalidate"), HIERARCHY_LINES),
            st.tuples(st.just("downgrade"), HIERARCHY_LINES),
        ),
        min_size=1, max_size=300))


def cache_view(cache):
    """Everything observable about one level: per set, its lines in LRU
    order (least recent first) with their states.  The flat mirror must
    hold exactly the lines the sets list."""
    assert sorted(cache.flat) == sorted(cache.resident_lines())
    return [[(line, cache.flat[line]) for line in lru]
            for lru in cache._sets]


def reference_view(ref):
    return [list(s.items()) for s in ref.sets]


def check_against_model(ops):
    """Run ``ops`` on a hierarchy and on the reference model; after
    every op, results, LRU order and states must agree."""
    l1_cfg, l2_cfg = CacheConfig(128, 32, 2), CacheConfig(256, 32, 2)
    h = CacheHierarchy(l1_cfg, l2_cfg)
    ref = ReferenceHierarchy(l1_cfg, l2_cfg)
    for op in ops:
        name, line = op[0], op[1]
        if name == "fill":
            if ref.state(line) != LineState.INVALID:
                continue  # fill installs missing lines only
            lost = h.fill(line, op[2])
            assert list(lost) == ref.fill(line, op[2])
        elif name == "write_hit":
            if ref.state(line) == LineState.INVALID:
                continue  # write hits need a resident line
            h.write_hit(line)
            ref.write_hit(line)
        elif name == "probe":
            assert probe(h, line) == ref.probe(line)
        else:
            assert getattr(h, name)(line) == getattr(ref, name)(line)
        assert cache_view(h.l1) == reference_view(ref.l1)
        assert cache_view(h.l2) == reference_view(ref.l2)


@given(hierarchy_ops())
@settings(max_examples=300, deadline=None)
def test_hierarchy_fast_paths_match_cache_method_model(ops):
    check_against_model(ops)


@pytest.mark.parametrize("seed", range(4))
def test_hierarchy_matches_model_over_long_runs(seed):
    """Hypothesis draws short op lists; a few long seeded ones reach the
    full-set evictions and promotions every run."""
    rng = random.Random(seed)
    states = [LineState.SHARED, LineState.EXCLUSIVE, LineState.MODIFIED]
    ops = [(name, rng.randrange(16), rng.choice(states))
           for name in (rng.choice(HIERARCHY_OPS) for _ in range(2000))]
    check_against_model(ops)


def test_fill_without_eviction_returns_empty_iterable():
    h = CacheHierarchy(CacheConfig(128, 32, 2), CacheConfig(256, 32, 2))
    lost = h.fill(0, LineState.SHARED)
    assert not lost
    assert list(lost) == []
