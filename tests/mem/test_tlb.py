"""Unit tests for the TLB."""

import pytest

from repro.mem.tlb import Tlb


def test_lookup_miss_then_hit():
    tlb = Tlb(4)
    assert tlb.lookup(1) is None
    tlb.insert(1, 42)
    assert tlb.lookup(1) == 42


def test_capacity_evicts_lru():
    tlb = Tlb(2)
    tlb.insert(1, 10)
    tlb.insert(2, 20)
    tlb.lookup(1)          # 1 becomes MRU
    tlb.insert(3, 30)      # evicts 2
    assert tlb.lookup(2) is None
    assert tlb.lookup(1) == 10
    assert tlb.lookup(3) == 30


def test_reinsert_updates_translation():
    tlb = Tlb(2)
    tlb.insert(1, 10)
    tlb.insert(1, 99)
    assert tlb.lookup(1) == 99
    assert len(tlb) == 1


def test_invalidate():
    tlb = Tlb(2)
    tlb.insert(1, 10)
    assert tlb.invalidate(1) is True
    assert tlb.invalidate(1) is False
    assert tlb.lookup(1) is None


def test_flush():
    tlb = Tlb(4)
    for i in range(4):
        tlb.insert(i, i)
    tlb.flush()
    assert len(tlb) == 0


def test_contains():
    tlb = Tlb(2)
    tlb.insert(5, 1)
    assert 5 in tlb
    assert 6 not in tlb


def test_zero_entries_rejected():
    with pytest.raises(ValueError):
        Tlb(0)
