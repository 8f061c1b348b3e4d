"""Conformance execution: one test, one schedule, an optional fault
plane, three nets.

:func:`run_litmus` is the one driver of the litmus suite, the fuzzer and
the chaos campaigns (:mod:`repro.faults.campaign`).  It builds the
test's tiny machine (under a fault plane when given one), attaches the
value tap, installs machine-wide invariant walks at every barrier
release, runs the workload under an optional schedule perturbation,
classifies how the run ended (:class:`Verdict`), and then checks three
independent oracles:

1. the generic per-location SC checker over the recorded history
   (:func:`repro.verify.checker.check_history`);
2. the coherence invariant walks (directory/tags/PIT/caches agree at
   every barrier — a raised walk is reported, not propagated);
3. the test's shape-specific forbidden-outcome predicate over the
   registers its loads bound.

:func:`bounded_schedules` enumerates a small deterministic set of
perturbations (start-time skews and network jitter patterns) and
:func:`run_suite` runs every test under every one of them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.controller import DeadlineExceeded, NodeFailedError
from repro.obs import tracing
from repro.obs.events import EventSink
from repro.sim.engine import SchedulePerturbation
from repro.sim.invariants import InvariantViolation, install_barrier_checks
from repro.sim.machine import Machine
from repro.verify.checker import check_history
from repro.verify.litmus import LITMUS_SUITE, LitmusTest, LitmusWorkload
from repro.verify.tracker import ValueTracker


class Verdict:
    """The four ways a conformance run can end (string constants).

    Without a fault plane only the first and the last can happen."""

    COMPLETED_SC = "COMPLETED_SC"    # finished, history SC, values right
    FAILED_CLEAN = "FAILED_CLEAN"    # NodeFailedError / clean termination
    HUNG = "HUNG"                    # deadline exceeded — a protocol bug
    CORRUPT = "CORRUPT"              # finished or crashed with bad values

    #: Verdicts a resilient protocol is allowed to produce.
    ACCEPTABLE = frozenset({COMPLETED_SC, FAILED_CLEAN})


@dataclass
class LitmusResult:
    """Outcome of one litmus test (or chaos scenario) under one
    schedule."""

    test: LitmusTest
    schedule: "SchedulePerturbation | None"
    verdict: str
    #: How a HUNG or FAILED_CLEAN run ended (empty otherwise).
    detail: str
    #: Everything that makes the run CORRUPT.
    violations: "list[str]"
    #: The recorded history the registers bind from.
    history: list = field(default_factory=list, repr=False, compare=False)
    #: The run's :class:`~repro.obs.tracing.TraceCollector` when it was
    #: traced, else ``None``.
    trace: "object | None" = None

    @property
    def ok(self) -> bool:
        """True for the two acceptable verdicts."""
        return self.verdict in Verdict.ACCEPTABLE

    @cached_property
    def registers(self) -> "tuple[tuple[int, ...], ...]":
        """Per-thread litmus values the loads saw, bound on first read.

        One tuple per thread, loads in program order (empty for threads
        without loads; empty overall for a scenario, which binds no
        registers).  A chaos report never reads them."""
        if getattr(self.test, "make_workload", None) is not None:
            return ()
        return _bind_registers(self.test, self.history)

    def describe(self) -> str:
        sched = (self.schedule.describe()
                 if self.schedule is not None else "unperturbed")
        status = "ok" if self.ok else "FAIL"
        text = "%-22s %-4s regs=%r [%s]" % (self.test.name, status,
                                            self.registers, sched)
        for violation in self.violations:
            text += "\n    %s" % violation
        return text


def run_litmus(test: LitmusTest,
               schedule: "SchedulePerturbation | None" = None,
               check_invariants: bool = True, faults=None,
               trace: bool = False) -> LitmusResult:
    """Run one litmus test under one schedule, classify how it ended and
    check all oracles.

    ``faults`` is a :class:`~repro.faults.injector.FaultInjector` for
    the machine to carry; its ``fault_inject`` events land in the same
    history as the values.  A test with a ``make_workload()`` hook (the
    serving family's 2PC scenario) runs that workload instead of a
    :class:`LitmusWorkload` and binds no registers; one with a
    ``check(events, machine)`` hook adds that judge's findings.

    ``trace=True`` builds the machine under a fresh
    :class:`~repro.obs.tracing.TraceCollector` scope (seeded with the
    fault plane's seed) and returns the collector as ``trace`` — a
    failing run then comes with the span tree of the transaction that
    hung or aborted, annotated with the faults injected into it.
    Tracing is passive: verdicts are identical either way.
    """
    seed = faults.seed if faults is not None else 0
    scope = tracing.collecting(seed=seed) if trace else nullcontext()
    with scope as collector:
        machine = Machine(test.build_config(), policy=test.policy,
                          schedule=schedule, faults=faults)
        try:
            sink = EventSink(capacity=100_000)
            tracker = ValueTracker(machine, sink)
            if faults is not None:
                # Injected faults land in the same history as the values.
                faults.sink = sink
            if check_invariants:
                install_barrier_checks(machine)
            make = getattr(test, "make_workload", None)
            workload = make() if make is not None else LitmusWorkload(test)
            try:
                machine.run(workload)
                verdict, detail, violations = Verdict.COMPLETED_SC, "", []
            except RuntimeError as exc:
                verdict, detail, violations = _ended(exc, machine)
            finally:
                tracker.detach()
                if collector is not None:
                    # An aborted run leaves its transaction open: unwind
                    # it (tagged) before the collector's scope closes.
                    collector.unwind("run aborted")

            # The judges read the history and the machine; close it
            # after them.
            events = sink.events
            if sink.dropped:
                violations.append("history truncated: %d events dropped"
                                  % sink.dropped)
            violations += check_history(events, machine._line_shift)
            check = getattr(test, "check", None)
            if check is not None:
                violations += check(events, machine)
            result = LitmusResult(test=test, schedule=schedule,
                                  verdict=verdict, detail=detail,
                                  violations=violations, history=events,
                                  trace=collector)
            # Each net reports on its own: a finished run's registers
            # are judged even when its history is not SC.
            if (verdict == Verdict.COMPLETED_SC
                    and test.forbidden is not None
                    and test.forbidden(result.registers)):
                violations.append("forbidden outcome: registers %r"
                                  % (result.registers,))
            if violations:
                # Even a clean failure must leave an SC prefix behind; a
                # bad history always escalates to CORRUPT.
                result.verdict = Verdict.CORRUPT
        finally:
            machine.close()
    return result


def _ended(exc: RuntimeError, machine) -> "tuple[str, str, list[str]]":
    """``(verdict, detail, violations)`` of a run that raised ``exc``."""
    name = type(exc).__name__
    if isinstance(exc, DeadlineExceeded):
        return Verdict.HUNG, str(exc), []
    if isinstance(exc, NodeFailedError):
        return Verdict.FAILED_CLEAN, "%s: %s" % (name, exc), []
    if isinstance(exc, InvariantViolation):
        return Verdict.CORRUPT, "", list(exc.problems)
    if machine.failed_nodes and str(exc).startswith("deadlock"):
        # A node died holding up a barrier: the survivors block forever
        # by design.  That is a clean partial failure, not a protocol
        # hang — the dead node is known and reported.
        return (Verdict.FAILED_CLEAN,
                "nodes %s failed; surviving CPUs blocked on a barrier the "
                "dead node can never reach" % sorted(machine.failed_nodes),
                [])
    # Protocol errors and engine deadlocks are conformance failures too:
    # a mutation may crash the machine instead of corrupting values, and
    # the run must report that, not die.
    return Verdict.CORRUPT, "", ["machine raised %s: %s" % (name, exc)]


def _bind_registers(test: LitmusTest, events) -> "tuple[tuple[int, ...], ...]":
    """Map the recorded history back to per-thread litmus registers.

    The tracker's write values are global version numbers; each CPU's
    writes appear in program order, so the n-th write event of a CPU is
    its thread's n-th planned store — which recovers the version ->
    litmus-value mapping.  Reads bind registers the same way, after
    skipping each CPU's ``len(locations)`` warm-up reads.
    """
    thread_of_cpu = {cpu: i for i, cpu in enumerate(test.cpu_of_thread())}
    value_of = {0: 0}  # version -> litmus value; 0 is the initial value
    writes_seen: "dict[int, int]" = {}
    reads: "dict[int, list[int]]" = {}
    for event in events:
        kind = event.get("kind")
        cpu = event.get("cpu")
        if kind == "write":
            thread = test.threads[thread_of_cpu[cpu]]
            index = writes_seen.get(cpu, 0)
            writes_seen[cpu] = index + 1
            if index < len(thread.store_values):
                value_of[event["version"]] = thread.store_values[index]
        elif kind == "read":
            reads.setdefault(cpu, []).append(event["version"])
    skip = len(test.locations)
    registers = []
    for i, cpu in enumerate(test.cpu_of_thread()):
        observed = reads.get(cpu, [])[skip:]
        registers.append(tuple(value_of.get(v, v) for v in observed))
    return tuple(registers)


def bounded_schedules(num_cpus: int) -> "list[SchedulePerturbation]":
    """A small deterministic set of perturbations for one test.

    Covers: the unperturbed order, forward and reverse CPU start-time
    staggers at two magnitudes (below and above the remote-fetch
    latency), constant and alternating network jitter, and a combined
    skew+jitter schedule.
    """
    def stagger(step):
        return tuple(i * step for i in range(num_cpus))

    def rstagger(step):
        return tuple((num_cpus - 1 - i) * step for i in range(num_cpus))

    return [
        SchedulePerturbation(),
        SchedulePerturbation(cpu_offsets=stagger(137)),
        SchedulePerturbation(cpu_offsets=rstagger(137)),
        SchedulePerturbation(cpu_offsets=stagger(1009)),
        SchedulePerturbation(cpu_offsets=rstagger(1009)),
        SchedulePerturbation(net_jitter=(60,)),
        SchedulePerturbation(net_jitter=(0, 90, 30, 150)),
        SchedulePerturbation(cpu_offsets=stagger(251),
                             net_jitter=(45, 0, 110)),
    ]


@dataclass
class SuiteResult:
    """Every (test, schedule) outcome of one suite run."""

    results: "list[LitmusResult]"

    @property
    def failures(self) -> "list[LitmusResult]":
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        tests = {r.test.name for r in self.results}
        text = ("litmus suite: %d tests x schedules = %d runs, %d failures"
                % (len(tests), len(self.results), len(self.failures)))
        for failure in self.failures:
            text += "\n" + failure.describe()
        return text


def run_suite(tests: "tuple[LitmusTest, ...]" = LITMUS_SUITE
              ) -> SuiteResult:
    """Run litmus tests, each under the bounded schedule set."""
    return SuiteResult(results=[
        run_litmus(test, schedule) for test in tests
        for schedule in bounded_schedules(test.num_cpus)])
