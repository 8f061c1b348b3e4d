"""Chaos campaigns: litmus tests under sampled fault plans.

The resilience claim this module checks is binary: under *any* fault
plan, a run must either

* **complete** with a sequentially-consistent history and the correct
  final values (the SC checker and forbidden-outcome predicates from
  :mod:`repro.verify` judge this), or
* **fail cleanly** with :class:`~repro.core.controller.NodeFailedError`
  — a node died or became unreachable and the affected application was
  terminated, survivors unharmed.

It must never *hang* (caught by the simulated-time deadline /
:class:`~repro.core.controller.DeadlineExceeded`) and never *silently
corrupt* (caught by the SC checker).  :func:`run_chaos` runs one
(test, plan, seed) triple through the conformance driver
(:func:`repro.verify.runner.run_litmus`), which classifies it into a
:class:`~repro.verify.runner.Verdict`; :class:`ChaosCampaign`
samples many plans from one seed and aggregates — same seed, same
plans, same verdicts, so a campaign is a reproducible artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from repro.faults.injector import FaultInjector, RetryPolicy
from repro.faults.plan import FaultPlan
from repro.verify.litmus import LITMUS_SUITE, LitmusTest
from repro.verify.runner import Verdict, run_litmus


#: Default simulated-cycle budget per chaos run.  Litmus machines
#: finish in well under a million cycles even through pauses and
#: back-off storms; a run still alive at 20M cycles is hung.
DEFAULT_DEADLINE = 20_000_000


@dataclass
class ChaosRun:
    """Outcome of one litmus test under one fault plan."""

    test: LitmusTest
    plan: FaultPlan
    seed: int
    verdict: str
    detail: str
    violations: "list[str]"
    fault_stats: "dict[str, int]"
    #: The run's :class:`~repro.obs.tracing.TraceCollector` when the
    #: run was traced (``trace=True``), else ``None``.  Deliberately
    #: excluded from :meth:`describe` so traced and untraced campaigns
    #: stay byte-identical on the reproducibility key.
    trace: "object | None" = None

    @property
    def ok(self) -> bool:
        """True for the two acceptable verdicts."""
        return self.verdict in Verdict.ACCEPTABLE

    def describe(self) -> str:
        """One stable line per run (diffable across invocations)."""
        text = "%-22s %-12s seed=%-6d %s" % (self.test.name, self.verdict,
                                             self.seed, self.plan.describe())
        if self.detail:
            text += "\n    %s" % self.detail
        for violation in self.violations:
            text += "\n    %s" % violation
        return text


def run_chaos(test: LitmusTest, plan: FaultPlan, seed: int = 0,
              retry: "RetryPolicy | None" = None,
              deadline: int = DEFAULT_DEADLINE,
              trace: bool = False) -> ChaosRun:
    """Run one litmus test under one fault plan and classify the outcome.

    Builds the fault plane (the plan, the run seed, the retry policy
    and the hang deadline) and hands it to the conformance driver,
    :func:`repro.verify.runner.run_litmus`, without the barrier
    invariant walks: a hard-failed node legitimately freezes its half
    of the protocol state, which the machine-wide walks would flag.
    ``trace=True`` returns the run's span trees as ``trace`` (see
    ``run_litmus``); verdicts and fault stats are identical either way.
    """
    injector = FaultInjector(plan, seed=seed, retry=retry,
                             deadline=deadline)
    result = run_litmus(test, check_invariants=False, faults=injector,
                        trace=trace)
    return ChaosRun(test=test, plan=plan, seed=seed, verdict=result.verdict,
                    detail=result.detail, violations=result.violations,
                    fault_stats=injector.stats.to_dict(), trace=result.trace)


@dataclass
class ChaosReport:
    """Aggregated outcome of one campaign."""

    seed: int
    runs: "list[ChaosRun]"

    @property
    def failures(self) -> "list[ChaosRun]":
        """Runs with unacceptable verdicts (HUNG / CORRUPT)."""
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Stable multi-line report: every run, then the tally."""
        counts: "dict[str, int]" = {}
        for run in self.runs:
            counts[run.verdict] = counts.get(run.verdict, 0) + 1
        lines = [run.describe() for run in self.runs]
        tally = ", ".join("%s=%d" % (v, counts[v]) for v in sorted(counts))
        lines.append("chaos campaign: seed=%d, %d runs (%s) -> %s"
                     % (self.seed, len(self.runs), tally,
                        "OK" if self.ok else "FAIL"))
        return "\n".join(lines)


class ChaosCampaign:
    """Sample fault plans from one seed and run litmus tests under them.

    ``plan=None`` samples a fresh random plan per round via
    :meth:`FaultPlan.sample`; a fixed plan replays the same clauses
    every round (only the injector seed varies).  Tests are cycled
    round-robin from ``tests`` (default: the bundled litmus suite).
    The whole campaign is a pure function of its arguments.
    """

    def __init__(self, seed: int = 0, rounds: int = 8,
                 tests: "tuple[LitmusTest, ...]" = LITMUS_SUITE,
                 plan: "FaultPlan | None" = None,
                 retry: "RetryPolicy | None" = None,
                 deadline: int = DEFAULT_DEADLINE,
                 trace: bool = False) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not tests:
            raise ValueError("no tests to run")
        self.seed = seed
        self.rounds = rounds
        self.tests = tuple(tests)
        self.plan = plan
        self.retry = retry
        self.deadline = deadline
        self.trace = trace

    def run(self) -> ChaosReport:
        """Execute every round; deterministic in the campaign seed."""
        rng = random.Random(self.seed)
        runs = []
        for i in range(self.rounds):
            test = self.tests[i % len(self.tests)]
            run_seed = rng.randrange(2 ** 31)
            plan = self.plan
            if plan is None:
                plan = FaultPlan.sample(rng, num_nodes=test.num_nodes)
            runs.append(run_chaos(test, plan, seed=run_seed,
                                  retry=self.retry, deadline=self.deadline,
                                  trace=self.trace))
        return ChaosReport(seed=self.seed, runs=runs)
