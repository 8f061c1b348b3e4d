"""Randomized schedule fuzzing with automatic shrinking.

:func:`fuzz` draws bounded random :class:`SchedulePerturbation`\\ s from
a seeded PRNG and cycles them across the litmus suite — same seed, same
schedules, same verdicts.  When a schedule makes a test fail,
:func:`shrink` greedily minimizes it (zeroing, then halving, entries)
to the smallest schedule that still reproduces the failure, so a bug
report points at the one skew or jitter hop that matters rather than a
wall of random numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.engine import SchedulePerturbation
from repro.verify.litmus import LITMUS_SUITE, LitmusTest
from repro.verify.runner import run_litmus


@dataclass
class FuzzFailure:
    """One reproduced-and-shrunk fuzz failure."""

    test: LitmusTest
    round: int
    schedule: SchedulePerturbation
    shrunk: SchedulePerturbation
    violations: "list[str]"

    def describe(self) -> str:
        text = ("%s (round %d)\n  original: %s\n  shrunk:   %s"
                % (self.test.name, self.round, self.schedule.describe(),
                   self.shrunk.describe()))
        for violation in self.violations:
            text += "\n  %s" % violation
        return text


def fuzz(rounds: int, seed: int,
         tests: "tuple[LitmusTest, ...]" = LITMUS_SUITE
         ) -> "list[FuzzFailure]":
    """Run ``rounds`` random schedules across ``tests``; returns the
    failures found, each with a shrunk reproducing schedule."""
    rng = random.Random(seed)
    failures = []
    for i in range(rounds):
        test = tests[i % len(tests)]
        schedule = SchedulePerturbation.random(rng, test.num_cpus)
        result = run_litmus(test, schedule)
        if not result.ok:
            failures.append(FuzzFailure(
                test=test, round=i, schedule=schedule,
                shrunk=shrink(test, schedule),
                violations=result.violations))
    return failures


def _fails(test: LitmusTest, schedule: SchedulePerturbation) -> bool:
    schedule.reset()
    return not run_litmus(test, schedule).ok


def _replace(schedule: SchedulePerturbation, kind: str, index: int,
             value: int) -> SchedulePerturbation:
    offsets = list(schedule.cpu_offsets)
    jitter = list(schedule.net_jitter)
    (offsets if kind == "cpu" else jitter)[index] = value
    return SchedulePerturbation(cpu_offsets=offsets, net_jitter=jitter)


def shrink(test: LitmusTest, schedule: SchedulePerturbation,
           max_passes: int = 8) -> SchedulePerturbation:
    """Greedily minimize a failing schedule.

    Each pass first tries to *zero* every nonzero entry (dropping it
    from the schedule entirely), then to *halve* what remains; a change
    is kept only if the test still fails under it.  Passes repeat until
    a fixpoint (or ``max_passes``).  If ``schedule`` does not actually
    fail (a flaky report), it is returned unchanged.
    """
    if not _fails(test, schedule):
        return schedule
    current = schedule
    for _ in range(max_passes):
        changed = False
        for kind, entries in (("cpu", current.cpu_offsets),
                              ("net", current.net_jitter)):
            for index in range(len(entries)):
                value = (current.cpu_offsets if kind == "cpu"
                         else current.net_jitter)[index]
                if value == 0:
                    continue
                for smaller in (0, value // 2):
                    if smaller == value:
                        continue
                    candidate = _replace(current, kind, index, smaller)
                    if _fails(test, candidate):
                        current = candidate
                        changed = True
                        break
        if not changed:
            break
    return current
