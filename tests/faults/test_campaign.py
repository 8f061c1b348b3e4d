"""Chaos campaigns: classification, reproducibility, non-vacuity."""

import pytest

from repro.faults import (ChaosCampaign, FaultPlan, RetryPolicy, Verdict,
                          run_chaos)
from repro.verify import suite_by_name

pytestmark = pytest.mark.faults


def litmus(name="mp_scoma"):
    return suite_by_name()[name]


class TestRunChaos:
    def test_fault_free_run_completes_sc(self):
        run = run_chaos(litmus(), FaultPlan(), seed=0)
        assert run.verdict == Verdict.COMPLETED_SC
        assert run.ok
        assert run.violations == []

    def test_drop_plan_completes_through_retries(self):
        plan = FaultPlan().drop(0.3, kinds="requests", end=100_000)
        run = run_chaos(litmus(), plan, seed=5)
        assert run.verdict == Verdict.COMPLETED_SC
        assert run.fault_stats["dropped"] > 0
        assert run.fault_stats["retransmissions"] > 0

    def test_hard_failure_is_a_clean_failure(self):
        plan = FaultPlan().fail_node(1, at=5_000)
        run = run_chaos(litmus(), plan, seed=0)
        assert run.verdict == Verdict.FAILED_CLEAN
        assert run.ok

    def test_permanent_partition_fails_cleanly(self):
        plan = FaultPlan().partition({0}, start=0)
        run = run_chaos(litmus(), plan, seed=0)
        assert run.verdict == Verdict.FAILED_CLEAN
        assert "Unreachable" in run.detail or "retries" in run.detail

    def test_describe_is_one_stable_line_per_run(self):
        run = run_chaos(litmus(), FaultPlan(), seed=0)
        text = run.describe()
        assert "mp_scoma" in text
        assert "COMPLETED_SC" in text
        assert "empty plan" in text


class TestMutationSelfTest:
    """Non-vacuity: the harness detects the failure it was built for.

    The same seeded drop plan must HANG with retransmission disabled
    and complete SC with it enabled — proving both that the verdict
    machinery catches real liveness bugs and that the recovery layer is
    what earns the passing verdict.
    """

    PLAN = FaultPlan().drop(0.3, kinds="requests", end=100_000)

    def test_without_retries_the_drop_plan_hangs(self):
        run = run_chaos(litmus(), self.PLAN, seed=5,
                        retry=RetryPolicy.disabled())
        assert run.verdict == Verdict.HUNG
        assert not run.ok

    def test_with_retries_the_same_plan_completes_sc(self):
        run = run_chaos(litmus(), self.PLAN, seed=5)
        assert run.verdict == Verdict.COMPLETED_SC


class TestCampaign:
    def test_campaign_is_reproducible(self):
        first = ChaosCampaign(seed=7, rounds=4).run()
        second = ChaosCampaign(seed=7, rounds=4).run()
        assert ([r.verdict for r in first.runs]
                == [r.verdict for r in second.runs])
        assert first.summary() == second.summary()

    def test_default_campaign_is_all_acceptable(self):
        report = ChaosCampaign(seed=7, rounds=4).run()
        assert report.ok, report.summary()
        for run in report.runs:
            assert run.verdict in Verdict.ACCEPTABLE

    def test_summary_tallies_every_run(self):
        report = ChaosCampaign(seed=3, rounds=3).run()
        summary = report.summary()
        assert "3 runs" in summary
        assert summary.strip().endswith(("OK", "FAIL"))

    def test_fixed_plan_is_replayed_every_round(self):
        plan = FaultPlan().delay(0.5, cycles=200)
        report = ChaosCampaign(seed=0, rounds=2, plan=plan,
                               tests=(litmus(),)).run()
        assert all(r.plan is plan for r in report.runs)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ChaosCampaign(rounds=0)
        with pytest.raises(ValueError):
            ChaosCampaign(tests=())
