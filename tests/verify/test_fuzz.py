"""Tests for the schedule fuzzer and shrinker (repro.verify.fuzz)."""

import random

import pytest

from repro.sim.engine import (JITTER_SLOTS, MAX_CPU_SKEW, MAX_NET_JITTER,
                              SchedulePerturbation)
from repro.verify import apply_mutation, fuzz, shrink, suite_by_name
from repro.verify.runner import run_litmus

pytestmark = pytest.mark.verify


def test_clean_fuzz_run_finds_nothing():
    assert fuzz(rounds=30, seed=0) == []


def test_fuzz_is_deterministic_per_seed():
    tests = (suite_by_name()["mp_scoma"], suite_by_name()["sb_scoma"])
    with apply_mutation("skip-sibling-invalidate"):
        sibling = (suite_by_name()["sibling_mp_scoma"],)
        first = fuzz(rounds=4, seed=7, tests=sibling)
        second = fuzz(rounds=4, seed=7, tests=sibling)
    assert [f.schedule.describe() for f in first] \
        == [f.schedule.describe() for f in second]
    assert [f.round for f in first] == [f.round for f in second]
    # And a clean config is deterministic too (no failures both times).
    assert fuzz(rounds=6, seed=3, tests=tests) \
        == fuzz(rounds=6, seed=3, tests=tests)


def test_random_schedules_respect_bounds():
    rng = random.Random(1)
    for _ in range(20):
        schedule = SchedulePerturbation.random(rng, 4)
        assert all(0 <= x <= MAX_CPU_SKEW for x in schedule.cpu_offsets)
        assert all(0 <= x <= MAX_NET_JITTER for x in schedule.net_jitter)
        assert len(schedule.cpu_offsets) == 4
        assert len(schedule.net_jitter) == JITTER_SLOTS


def test_shrink_returns_flaky_schedule_unchanged():
    test = suite_by_name()["mp_scoma"]
    schedule = SchedulePerturbation(cpu_offsets=(100, 200, 300, 400),
                                    net_jitter=(50, 60))
    assert shrink(test, schedule) is schedule  # does not fail at all


def test_shrink_minimizes_a_reproducing_schedule():
    test = suite_by_name()["sibling_mp_scoma"]
    schedule = SchedulePerturbation(
        cpu_offsets=(1234, 567, 890, 1111),
        net_jitter=(13, 170, 44, 91, 7, 120))
    with apply_mutation("skip-sibling-invalidate"):
        assert not run_litmus(test, schedule).ok
        shrunk = shrink(test, schedule)
        # The failure is schedule-independent, so shrinking must reach
        # the empty (all-zero) schedule — the minimal reproducer.
        assert not any(shrunk.cpu_offsets) and not any(shrunk.net_jitter)
        assert not run_litmus(test, shrunk).ok
    # Outside the mutation the shrunk schedule is a passing schedule.
    assert run_litmus(test, shrunk).ok


def test_fuzz_failures_carry_shrunk_reproducers():
    with apply_mutation("skip-sibling-invalidate"):
        failures = fuzz(rounds=2, seed=0,
                        tests=(suite_by_name()["sibling_mp_scoma"],))
        assert failures
        for failure in failures:
            assert failure.violations
            assert sum(failure.shrunk.cpu_offsets) \
                + sum(failure.shrunk.net_jitter) \
                <= sum(failure.schedule.cpu_offsets) \
                + sum(failure.schedule.net_jitter)
            assert not run_litmus(failure.test, failure.shrunk).ok
            assert failure.test.name in failure.describe()
