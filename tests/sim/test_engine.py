"""Unit tests for the discrete-event primitives."""

import pytest

from repro.sim.engine import Barrier, LockTable, Resource


class TestResource:
    def test_idle_acquire(self):
        r = Resource("r")
        assert r.acquire(100, 10) == 110

    def test_fcfs_serialization(self):
        r = Resource("r")
        r.acquire(100, 10)
        assert r.acquire(100, 10) == 120
        assert r.acquire(50, 5) == 125

    def test_utilization(self):
        r = Resource("r")
        r.acquire(0, 25)
        assert r.utilization(100) == 0.25
        assert r.utilization(0) == 0.0

    def test_utilization_clamps_at_one(self):
        r = Resource("r")
        r.acquire(0, 50)
        assert r.utilization(10) == 1.0

    def test_utilization_negative_window_raises(self):
        r = Resource("r")
        r.acquire(0, 25)
        with pytest.raises(ValueError):
            r.utilization(-1)

    def test_busy_accounting(self):
        r = Resource("r")
        r.acquire(0, 5)
        r.acquire(0, 5)
        assert r.busy_cycles == 10
        assert r.acquisitions == 2


class TestBarrier:
    def test_releases_at_max_arrival_plus_cost(self):
        b = Barrier(parties=3, cost=7)
        assert b.arrive(0, 100) is None
        assert b.arrive(1, 250) is None
        released = b.arrive(2, 180)
        assert released is not None
        assert sorted(released) == [(0, 257), (1, 257), (2, 257)]

    def test_reusable_after_release(self):
        b = Barrier(parties=2)
        b.arrive(0, 10)
        b.arrive(1, 20)
        assert b.arrive(0, 30) is None
        released = b.arrive(1, 35)
        assert {cpu for cpu, _ in released} == {0, 1}
        assert b.episodes == 2


class TestLockTable:
    def test_uncontended_acquire(self):
        locks = LockTable(cost=5)
        assert locks.acquire(1, 0, 100) == 105
        assert locks._holder.get(1) == 0

    def test_contended_blocks_and_hands_off(self):
        locks = LockTable(cost=5)
        locks.acquire(1, 0, 100)
        assert locks.acquire(1, 1, 110) is None
        assert locks.contended_acquires == 1
        woken = locks.release(1, 0, 200)
        assert woken == (1, 205)
        assert locks._holder.get(1) == 1

    def test_release_without_waiters_frees(self):
        locks = LockTable()
        locks.acquire(1, 0, 0)
        assert locks.release(1, 0, 50) is None
        assert locks._holder.get(1) is None

    def test_fcfs_handoff_order(self):
        locks = LockTable()
        locks.acquire(7, 0, 0)
        locks.acquire(7, 1, 1)
        locks.acquire(7, 2, 2)
        assert locks.release(7, 0, 10)[0] == 1
        assert locks.release(7, 1, 20)[0] == 2

    def test_wrong_holder_release_raises(self):
        locks = LockTable()
        locks.acquire(1, 0, 0)
        with pytest.raises(RuntimeError):
            locks.release(1, 3, 10)

    def test_independent_locks(self):
        locks = LockTable()
        locks.acquire(1, 0, 0)
        assert locks.acquire(2, 1, 0) is not None
