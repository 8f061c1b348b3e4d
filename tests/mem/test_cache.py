"""Unit tests for the set-associative caches and hierarchies."""

import pytest

from repro.mem.cache import Cache, CacheHierarchy, LineState, NodePresence
from repro.sim.config import CacheConfig

from tests.conftest import holders, insert, lookup, probe, remove


def small_cache(size=128, line=32, assoc=2):
    return Cache(CacheConfig(size, line, assoc))


class TestCache:
    """The per-level LRU operations the machine inlines, through the
    ``tests.conftest`` helpers that spell them out (and that the
    reference-model tests build on)."""

    def test_miss_then_hit(self):
        c = small_cache()
        assert lookup(c, 5) == LineState.INVALID
        insert(c, 5, LineState.SHARED)
        assert lookup(c, 5) == LineState.SHARED

    def test_insert_evicts_lru(self):
        c = small_cache()  # 2 sets, 2-way
        insert(c, 0, LineState.SHARED)   # set 0
        insert(c, 2, LineState.SHARED)   # set 0
        lookup(c, 0)                     # 0 is now MRU
        victim = insert(c, 4, LineState.SHARED)  # set 0 overflows
        assert victim == (2, LineState.SHARED)
        assert 0 in c
        assert 4 in c
        assert 2 not in c

    def test_different_sets_do_not_conflict(self):
        c = small_cache()
        insert(c, 0, LineState.SHARED)
        insert(c, 1, LineState.SHARED)  # set 1
        insert(c, 2, LineState.SHARED)
        assert insert(c, 3, LineState.SHARED) is None
        assert len(c) == 4

    def test_set_state_requires_residency(self):
        c = small_cache()
        with pytest.raises(KeyError):
            c.set_state(9, LineState.MODIFIED)

    def test_remove_returns_state(self):
        c = small_cache()
        insert(c, 7, LineState.MODIFIED)
        assert remove(c, 7) == LineState.MODIFIED
        assert remove(c, 7) == LineState.INVALID

    def test_resident_lines(self):
        c = small_cache()
        insert(c, 0, LineState.SHARED)
        insert(c, 3, LineState.EXCLUSIVE)
        assert sorted(c.resident_lines()) == [0, 3]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(100, 32, 2)


class TestHierarchy:
    def make(self):
        return CacheHierarchy(CacheConfig(128, 32, 2), CacheConfig(256, 32, 2))

    def test_fill_and_probe(self):
        h = self.make()
        assert probe(h, 10) == ("miss", LineState.INVALID)
        h.fill(10, LineState.SHARED)
        assert probe(h, 10) == ("l1", LineState.SHARED)

    def test_l2_hit_promotes_to_l1(self):
        h = self.make()
        h.fill(0, LineState.SHARED)
        remove(h.l1, 0)  # simulate L1-only eviction
        level, state = probe(h, 0)
        assert level == "l2"
        assert 0 in h.l1  # promoted

    def test_inclusion_on_l2_eviction(self):
        h = self.make()
        # L2: 4 sets, 2-way.  Fill three lines in the same L2 set.
        h.fill(0, LineState.SHARED)
        h.fill(4, LineState.SHARED)
        lost = h.fill(8, LineState.SHARED)
        assert lost == [(0, LineState.SHARED)]
        assert 0 not in h.l1  # inclusion enforced
        assert 0 not in h.l2

    def test_l2_eviction_merges_l1_dirtiness(self):
        h = self.make()
        h.fill(0, LineState.EXCLUSIVE)
        h.write_hit(0)
        h.fill(4, LineState.SHARED)
        lost = h.fill(8, LineState.SHARED)
        assert lost == [(0, LineState.MODIFIED)]

    def test_write_hit_sets_modified_in_both_levels(self):
        h = self.make()
        h.fill(3, LineState.EXCLUSIVE)
        h.write_hit(3)
        assert h.l1.flat[3] == LineState.MODIFIED
        assert h.l2.flat[3] == LineState.MODIFIED

    def test_invalidate_reports_dirtiness(self):
        h = self.make()
        h.fill(3, LineState.EXCLUSIVE)
        h.write_hit(3)
        assert h.invalidate(3) is True
        assert h.invalidate(3) is False
        assert h.state(3) == LineState.INVALID

    def test_downgrade(self):
        h = self.make()
        h.fill(3, LineState.EXCLUSIVE)
        h.write_hit(3)
        assert h.downgrade(3) is True
        assert h.state(3) == LineState.SHARED
        assert h.downgrade(3) is False

    def test_state_prefers_l1(self):
        h = self.make()
        h.fill(0, LineState.SHARED)
        assert h.state(0) == LineState.SHARED

    def test_l1_victim_spills_dirtiness_to_l2(self):
        h = self.make()
        # L1: 2 sets 2-way; lines 0, 2, 4 share L1 set 0.
        h.fill(0, LineState.EXCLUSIVE)
        h.write_hit(0)
        h.fill(2, LineState.SHARED)
        h.fill(4, LineState.SHARED)  # evicts 0 from L1 only
        assert 0 not in h.l1
        assert h.l2.flat[0] == LineState.MODIFIED


class TestNodePresence:
    def test_remove_clears_bits(self):
        p = NodePresence()
        p._holders[10] = 1 << 0 | 1 << 9    # CPUs 0 and 9 (wide node)
        assert holders(p, 10) == {0, 9}
        p.remove(10, 0)
        assert p._holders[10] == 1 << 9
        assert holders(p, 10) == {9}
        p.remove(10, 9)
        assert 10 not in p._holders      # no entry for an uncached line
        assert holders(p, 10) == set()

    def test_remove_absent_is_noop(self):
        p = NodePresence()
        p.remove(5, 3)
        assert 5 not in p._holders


@pytest.mark.parametrize("ids", [[], [0], [3], [0, 1, 2, 3], [7, 8],
                                 [1, 12, 31], list(range(40))])
def test_holders_reads_any_width_mask(ids):
    p = NodePresence()
    for cid in ids:
        p._holders[7] = p._holders.get(7, 0) | 1 << cid
    assert holders(p, 7) == set(ids)
