"""2PC atomicity under chaos: mutation self-tests and reproducibility.

The serving family's two-phase-commit scenario must never CORRUPT: with
retransmission disabled a dropped COMMAND message is allowed to hang or
abort the run (and the atomicity checker must still hold over the
prefix), and with the default retry policy the protocol must push
through drops to COMPLETED_SC.
"""

import pytest

from repro.faults import (ChaosCampaign, FaultPlan, RetryPolicy, Verdict,
                          run_chaos)
from repro.workloads.serving import Txn2pcScenario, chaos_scenarios

pytestmark = pytest.mark.faults


def scenario(**overrides):
    kwargs = dict(txns=6)
    kwargs.update(overrides)
    return Txn2pcScenario(**kwargs)


class TestTxn2pcChaos:
    def test_fault_free_run_completes_sc(self):
        run = run_chaos(scenario(), FaultPlan(), seed=0)
        assert run.verdict == Verdict.COMPLETED_SC
        assert run.violations == []

    def test_command_drop_without_retries_never_corrupts(self):
        # Mutation self-test half 1: kill every COMMAND message with
        # retransmission disabled.  The decision never reaches the
        # participants, so the run must end aborted-but-clean or HUNG —
        # anything judged CORRUPT means the atomicity checker caught a
        # data apply without its commit decision.
        plan = FaultPlan().drop(1.0, kinds="command")
        for seed in (0, 7, 23):
            run = run_chaos(scenario(), plan, seed=seed,
                            retry=RetryPolicy.disabled())
            assert run.verdict in (Verdict.HUNG, Verdict.FAILED_CLEAN), \
                run.describe()
            assert not any("2pc" in v for v in run.violations), \
                run.describe()

    def test_command_drop_with_retries_completes_sc(self):
        # Mutation self-test half 2: same drop probability, default
        # retry policy — retransmission is what earns the passing
        # verdict, and the fault stats prove drops actually happened.
        plan = FaultPlan().drop(0.4, kinds="command")
        run = run_chaos(scenario(), plan, seed=7)
        assert run.verdict == Verdict.COMPLETED_SC, run.describe()
        assert run.violations == []
        assert run.fault_stats["dropped"] > 0
        assert run.fault_stats["retransmissions"] > 0

    def test_coordinator_failure_is_clean(self):
        run = run_chaos(scenario(), FaultPlan().fail_node(0, at=5_000),
                        seed=0)
        assert run.verdict == Verdict.FAILED_CLEAN, run.describe()
        assert run.ok

    def test_participant_failure_is_acceptable(self):
        run = run_chaos(scenario(), FaultPlan().fail_node(2, at=5_000),
                        seed=0)
        assert run.ok, run.describe()


class TestAtomicityCheckerNonVacuity:
    """The checker itself must reject a fabricated dirty history."""

    def _machine_after_clean_run(self):
        from repro.obs.events import EventSink
        from repro.sim.machine import Machine
        from repro.verify.tracker import ValueTracker

        test = scenario()
        machine = Machine(test.build_config(), policy=test.policy)
        sink = EventSink(capacity=100_000)
        tracker = ValueTracker(machine, sink)
        workload = test.make_workload()
        machine.run(workload)
        tracker.detach()
        return test, machine, sink.events

    def test_clean_history_has_no_violations(self):
        test, machine, events = self._machine_after_clean_run()
        assert test.check(events, machine) == []

    def test_apply_before_decision_is_flagged(self):
        test, machine, events = self._machine_after_clean_run()
        # Clone the first data-segment write to time 0 — an apply that
        # precedes every commit decision.  The checker must flag it.
        workload = test._workload
        base = workload.data.addr(0)
        limit = workload.data.addr(workload.data.num_elems - 1)
        dirty = list(events)
        for event in events:
            if (event["kind"] == "write"
                    and base <= event["vaddr"] <= limit):
                forged = dict(event)
                forged["time"] = 0
                dirty.append(forged)
                break
        else:
            pytest.fail("no data write found in the clean history")
        violations = test.check(dirty, machine)
        assert violations, "forged early apply was not flagged"

    def test_apply_for_undecided_txn_is_flagged(self):
        test, machine, events = self._machine_after_clean_run()
        workload = test._workload
        # Strip every log write: no decisions exist, so every data
        # apply is now orphaned.
        log_base = workload.log.addr(0)
        log_limit = workload.log.addr(workload.log.num_elems - 1)
        dirty = [e for e in events
                 if not (e["kind"] == "write"
                         and log_base <= e["vaddr"] <= log_limit)]
        assert test.check(dirty, machine)


class TestServingCampaign:
    def test_campaign_over_scenarios_is_reproducible(self):
        tests = tuple(chaos_scenarios().values())
        first = ChaosCampaign(seed=11, rounds=4, tests=tests).run()
        second = ChaosCampaign(seed=11, rounds=4, tests=tests).run()
        assert first.summary() == second.summary()
        verdicts = [r.verdict for r in first.runs]
        assert verdicts == [r.verdict for r in second.runs]
        assert all(v in Verdict.ACCEPTABLE for v in verdicts), \
            first.summary()

    def test_scenarios_registry(self):
        names = chaos_scenarios()
        assert "txn2pc" in names
        assert all(hasattr(t, "make_workload") and hasattr(t, "check")
                   for t in names.values())
