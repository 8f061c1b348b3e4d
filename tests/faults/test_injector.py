"""The deterministic fault plane end to end on a real machine."""

from contextlib import nullcontext

import pytest

from repro.core.controller import NodeFailedError, UnreachableNodeError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.faults.injector import DeadlineExceeded
from repro.obs import tracing
from repro.sim.config import tiny_config
from repro.sim.machine import Machine
from repro.workloads import make_workload

pytestmark = pytest.mark.faults


def run_fft(faults=None, policy="scoma"):
    machine = Machine(tiny_config(), policy=policy, faults=faults)
    result = machine.run(make_workload("fft", preset="tiny"))
    return machine, result


class TestTransparency:
    def test_empty_plan_is_byte_identical(self):
        _, baseline = run_fft()
        _, with_plane = run_fft(faults=FaultInjector(FaultPlan(), seed=3))
        assert with_plane.stats.to_dict() == baseline.stats.to_dict()

    def test_plan_opening_after_the_run_judges_nothing(self):
        # Every clause, and the deadline, opens after the run ends.
        late = 10 ** 6
        plan = (FaultPlan().drop(1.0, start=late).delay(1.0, 50, start=late)
                .pause_node(0, start=late, end=late + 1)
                .partition({1}, start=late).fail_node(1, at=late))
        injector = FaultInjector(plan, seed=3, deadline=late)
        calls = {"_judge": 0, "on_tick": 0}
        for name in calls:
            def counted(*args, _name=name, _method=getattr(injector, name)):
                calls[_name] += 1
                return _method(*args)
            setattr(injector, name, counted)
        _, baseline = run_fft()
        _, result = run_fft(faults=injector)
        empty = FaultInjector(FaultPlan(), seed=3)
        run_fft(faults=empty)
        assert baseline.stats.execution_cycles < late
        assert calls == {"_judge": 0, "on_tick": 0}
        assert result.stats.to_dict() == baseline.stats.to_dict()
        assert injector.stats.judged > 0
        assert injector.stats.to_dict() == empty.stats.to_dict()
        assert injector.noted == {}
        assert injector.seqs._accepted == empty.seqs._accepted
        assert injector.rng.getstate() == empty.rng.getstate()

    def test_plan_node_ids_validated_against_machine(self):
        plan = FaultPlan().fail_node(99, at=0)
        with pytest.raises(ValueError, match="99"):
            Machine(tiny_config(), faults=FaultInjector(plan))


class TestDeterminism:
    def test_same_plan_and_seed_replays_exactly(self):
        plan = FaultPlan().drop(0.3, kinds="requests").delay(
            0.5, cycles=200, kinds="replies")
        runs = []
        for _ in range(2):
            machine, result = run_fft(faults=FaultInjector(plan, seed=11))
            runs.append((result.stats.to_dict(),
                         machine.faults.stats.to_dict()))
        assert runs[0] == runs[1]


class TestDropAndRetry:
    def test_drops_are_retransmitted_and_run_completes(self):
        plan = FaultPlan().drop(0.3, kinds="requests", end=100_000)
        machine, result = run_fft(faults=FaultInjector(plan, seed=5))
        stats = machine.faults.stats
        assert stats.dropped > 0
        assert stats.retransmissions == stats.dropped
        assert stats.retry_exhausted == 0
        assert result.stats.execution_cycles > 0

    def test_drops_cost_honest_latency(self):
        _, baseline = run_fft()
        plan = FaultPlan().drop(0.3, kinds="requests", end=100_000)
        _, faulted = run_fft(faults=FaultInjector(plan, seed=5))
        assert (faulted.stats.execution_cycles
                > baseline.stats.execution_cycles)

    def test_permanent_partition_exhausts_retries(self):
        plan = FaultPlan().partition({0}, start=0)
        injector = FaultInjector(plan, seed=0)
        with pytest.raises(UnreachableNodeError, match="retries"):
            run_fft(faults=injector)
        assert injector.stats.retry_exhausted >= 1
        # The clean-failure contract: UnreachableNodeError is a
        # NodeFailedError, so existing handling catches it.
        assert issubclass(UnreachableNodeError, NodeFailedError)

    def test_no_retry_policy_reports_a_hang(self):
        plan = FaultPlan().drop(0.3, kinds="requests", end=100_000)
        injector = FaultInjector(plan, seed=5, retry=RetryPolicy.disabled())
        with pytest.raises(DeadlineExceeded, match="forever"):
            run_fft(faults=injector)
        assert injector.stats.hangs == 1


class TestPerturbations:
    def test_delay_stretches_execution(self):
        _, baseline = run_fft()
        plan = FaultPlan().delay(1.0, cycles=500)
        machine, slowed = run_fft(faults=FaultInjector(plan, seed=0))
        assert machine.faults.stats.delayed > 0
        assert (slowed.stats.execution_cycles
                > baseline.stats.execution_cycles)

    def test_reorder_judgements_are_counted(self):
        plan = FaultPlan().reorder(1.0, cycles=400)
        machine, _ = run_fft(faults=FaultInjector(plan, seed=0))
        assert machine.faults.stats.reordered > 0

    def test_duplicates_are_dedupped_transparently(self):
        plan = FaultPlan().duplicate(0.5, kinds="replies")
        machine, result = run_fft(faults=FaultInjector(plan, seed=2))
        stats = machine.faults.stats
        assert stats.duplicated > 0
        assert stats.dedup_drops == stats.duplicated
        assert result.stats.execution_cycles > 0

    def test_pause_holds_deliveries_then_drains(self):
        plan = FaultPlan().pause_node(1, start=0, end=50_000)
        machine, result = run_fft(faults=FaultInjector(plan, seed=0))
        assert machine.faults.stats.paused_deliveries > 0
        assert result.stats.execution_cycles > 0   # slow, not gone


class TestScheduledFailure:
    def test_fail_node_fires_during_the_run(self):
        plan = FaultPlan().fail_node(1, at=10_000)
        injector = FaultInjector(plan, seed=0)
        # The run must end in a *clean* failure: either an access needs
        # the dead node, or survivors block on a barrier it can never
        # reach (reported as a deadlock).
        with pytest.raises((NodeFailedError, RuntimeError)):
            run_fft(faults=injector)

    def test_scheduled_failure_marks_the_node(self):
        plan = FaultPlan().fail_node(1, at=10_000)
        injector = FaultInjector(plan, seed=0)
        machine = Machine(tiny_config(), policy="scoma", faults=injector)
        try:
            machine.run(make_workload("fft", preset="tiny"))
        except (NodeFailedError, RuntimeError):
            pass
        assert machine.failed_nodes == {1}
        assert injector.stats.scheduled_failures == 1
        assert all(cpu.done for cpu in machine.nodes[1].cpus)


class TestDeadline:
    def test_deadline_cuts_off_a_run(self):
        with pytest.raises(DeadlineExceeded, match="deadline"):
            run_fft(faults=FaultInjector(FaultPlan(), deadline=1_000))

    def test_generous_deadline_is_invisible(self):
        _, baseline = run_fft()
        _, guarded = run_fft(
            faults=FaultInjector(FaultPlan(), deadline=10 ** 12))
        assert guarded.stats.to_dict() == baseline.stats.to_dict()


class TestTracedFaultPlane:
    """The trace collector's hop spans wrap the fault plane's ``send``
    probe; tracing must not perturb a single verdict."""

    @staticmethod
    def verdict(plan, traced):
        injector = FaultInjector(plan, seed=5)
        with tracing.collecting() if traced else nullcontext() as collector:
            try:
                _, result = run_fft(faults=injector)
                outcome = result.stats.to_dict()
            except UnreachableNodeError as exc:
                outcome = "unreachable: %s" % exc
        return outcome, injector.stats.to_dict(), collector

    @pytest.mark.parametrize("plan", [
        FaultPlan().drop(0.3, kinds="requests", end=100_000).duplicate(
            0.5, kinds="replies"),
        FaultPlan().partition({0}, start=0),
    ], ids=["drop-retry-duplicate", "partition"])
    def test_verdict_and_stats_equal_traced_and_untraced(self, plan):
        plain, plain_stats, _ = self.verdict(plan, traced=False)
        traced, traced_stats, collector = self.verdict(plan, traced=True)
        assert traced == plain
        assert traced_stats == plain_stats
        assert plain_stats["retransmissions"] > 0
        for trace in collector.slowest(collector.top_capacity):
            assert sum(trace.breakdown.values()) == trace.duration

    def test_traced_retries_charge_a_retry_segment(self):
        plan = FaultPlan().drop(0.3, kinds="requests", end=100_000).duplicate(
            0.5, kinds="replies")
        _, stats, collector = self.verdict(plan, traced=True)
        assert stats["duplicated"] > 0
        assert collector.rollup()["retry"]["cycles"] > 0
        names = {span["name"] for span in collector.sink.events}
        assert "net:DATA_REPLY" in names
        # Each injected fault is a zero-length mark in its transaction.
        assert {"fault:drop", "fault:retransmit", "fault:duplicate"} <= names
        assert not any(name.startswith(("req:", "reply:")) for name in names)
