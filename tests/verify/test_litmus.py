"""Tests for the litmus DSL and the bundled suite (repro.verify)."""

import pytest

from repro.core.controller import ProtocolError
from repro.faults import FaultPlan, run_chaos
from repro.sim.engine import SchedulePerturbation
from repro.sim.machine import Machine
from repro.verify import (LITMUS_SUITE, LitmusTest, Thread, Verdict,
                          bounded_schedules, delay, ld, run_litmus, run_suite,
                          st, suite_by_name)
from repro.verify.litmus import LitmusWorkload

pytestmark = pytest.mark.verify


# -- DSL --------------------------------------------------------------------

def test_store_values_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        st("x", 0)


def test_unknown_location_is_rejected():
    with pytest.raises(ValueError, match="unknown location"):
        LitmusTest(name="bad", description="", locations=("x",),
                   threads=(Thread(ld("y")),))


def test_colliding_placement_is_rejected():
    with pytest.raises(ValueError, match="share a CPU"):
        LitmusTest(name="bad", description="", locations=("x",),
                   threads=(Thread(ld("x")), Thread(ld("x"))),
                   placement=(0, 0))


def test_placement_must_fit_the_machine():
    with pytest.raises(ValueError, match="exceeds"):
        LitmusTest(name="bad", description="", locations=("x",),
                   threads=(Thread(ld("x")),), num_nodes=2,
                   cpus_per_node=1, placement=(5,))


def test_default_placement_spreads_one_thread_per_node():
    test = suite_by_name()["iriw_scoma"]
    cpus = test.cpu_of_thread()
    nodes = [c // test.cpus_per_node for c in cpus]
    assert len(set(nodes)) == len(test.threads)


def test_thread_introspection():
    thread = Thread(st("x", 1), delay(10), ld("x"), ld("x"), st("x", 2))
    assert thread.store_values == (1, 2)


# -- the bundled suite ------------------------------------------------------

def test_suite_has_the_documented_coverage():
    names = {t.name for t in LITMUS_SUITE}
    assert len(LITMUS_SUITE) >= 15
    assert {"mp_scoma", "mp_lanuma", "mp_ccnuma", "sb_scoma",
            "iriw_scoma", "sibling_mp_scoma", "migration_race_scoma",
            "pageout_race_scoma"} <= names
    assert len(names) == len(LITMUS_SUITE)


def test_full_suite_passes_under_bounded_exploration():
    result = run_suite()
    assert result.ok, result.summary()
    per_test = len(bounded_schedules(4))
    assert len(result.results) >= len(LITMUS_SUITE) * per_test // 2


def test_mp_registers_are_sequentially_consistent():
    result = run_litmus(suite_by_name()["mp_scoma"])
    assert result.ok
    # Thread 1 ran after warm-up: flag/x each 0 or 1, never (1, 0).
    assert result.registers[1] in ((0, 0), (0, 1), (1, 1))


def test_schedules_change_timing_but_not_outcomes():
    test = suite_by_name()["sb_scoma"]
    machines = []
    for schedule in (None, SchedulePerturbation(cpu_offsets=(0, 977),
                                                net_jitter=(55,))):
        machine = Machine(test.build_config(), policy=test.policy,
                          schedule=schedule)
        machine.run(LitmusWorkload(test))
        machines.append(machine)
    assert (machines[0].stats.execution_cycles
            != machines[1].stats.execution_cycles)
    assert run_litmus(test, SchedulePerturbation(
        cpu_offsets=(0, 977), net_jitter=(55,))).ok


def test_migration_tests_actually_migrate():
    test = suite_by_name()["migration_race_scoma"]
    machine = Machine(test.build_config(), policy=test.policy)
    machine.run(LitmusWorkload(test))
    assert machine.migration.migrations > 0


def test_pageout_tests_actually_page_out():
    test = suite_by_name()["pageout_race_scoma"]
    machine = Machine(test.build_config(), policy=test.policy)
    machine.run(LitmusWorkload(test))
    assert sum(n.stats.client_page_outs for n in machine.nodes) > 0


def test_bounded_schedules_are_deterministic_and_start_trivial():
    first, second = bounded_schedules(4), bounded_schedules(4)
    assert [s.describe() for s in first] == [s.describe() for s in second]
    trivial = [not any(s.cpu_offsets) and not any(s.net_jitter)
               for s in first]
    assert trivial[0]
    assert not all(trivial)


def test_result_describe_mentions_test_and_schedule():
    result = run_litmus(suite_by_name()["mp_scoma"],
                        SchedulePerturbation(net_jitter=(42,)))
    text = result.describe()
    assert "mp_scoma" in text and "42" in text and "ok" in text


def test_a_machine_that_raises_is_corrupt_in_litmus_and_chaos(monkeypatch):
    """One driver, one rule: the crash is the run's first violation and
    no detail, with or without a fault plane."""
    def crash(self, workload):
        raise ProtocolError("boom")
    monkeypatch.setattr(Machine, "run", crash)
    test = suite_by_name()["mp_scoma"]
    for result in (run_litmus(test), run_chaos(test, FaultPlan())):
        assert result.verdict == Verdict.CORRUPT
        assert not result.ok
        assert result.detail == ""
        assert result.violations[0] == "machine raised ProtocolError: boom"
