"""Litmus execution: one test, one schedule, three nets.

:func:`run_litmus` builds the test's tiny machine, attaches the value
tap, installs machine-wide invariant walks at every barrier release,
runs the workload under an optional schedule perturbation, and then
checks three independent oracles:

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

from dataclasses import dataclass

from repro.obs.events import EventSink
from repro.sim.engine import SchedulePerturbation
from repro.sim.invariants import InvariantViolation, install_barrier_checks
from repro.sim.machine import Machine
from repro.verify.checker import check_history
from repro.verify.litmus import LITMUS_SUITE, LitmusTest, LitmusWorkload
from repro.verify.tracker import ValueTracker


@dataclass
class LitmusResult:
    """Outcome of one litmus test under one schedule."""

    test: LitmusTest
    schedule: "SchedulePerturbation | None"
    violations: "list[str]"
    #: Per-thread tuples of observed litmus values, loads in program
    #: order (empty tuples for threads without loads).
    registers: "tuple[tuple[int, ...], ...]"

    @property
    def ok(self) -> bool:
        return not self.violations

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
               check_invariants: bool = True) -> LitmusResult:
    """Run one litmus test under one schedule and check all oracles."""
    machine = Machine(test.build_config(), policy=test.policy,
                      schedule=schedule)
    try:
        history = History(machine)
        violations: "list[str]" = []
        if check_invariants:
            install_barrier_checks(machine)
        workload = LitmusWorkload(test)
        try:
            machine.run(workload)
        except InvariantViolation as exc:
            violations = list(exc.problems)
        except RuntimeError as exc:
            # Protocol errors and engine deadlocks are conformance failures
            # too — a mutation may crash the machine instead of corrupting
            # values, and the suite must report that, not die.
            violations = ["machine raised %s: %s"
                          % (type(exc).__name__, exc)]
        finally:
            history.tracker.detach()

        registers = history.judge(test, violations)
        if test.forbidden is not None and not violations:
            if test.forbidden(registers):
                violations.append("forbidden outcome: registers %r"
                                  % (registers,))
        return LitmusResult(test=test, schedule=schedule,
                            violations=violations, registers=registers)
    finally:
        machine.close()


class History:
    """A litmus run's value history: tapped before the run (detach
    ``tracker`` after it), then judged."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.sink = EventSink(capacity=100_000)
        self.tracker = ValueTracker(machine, self.sink)

    def judge(self, test, violations: "list[str]", bind: bool = True):
        """Append the truncation line, the SC checker's findings and the
        test's own ``check`` findings (2PC atomicity, say) to
        ``violations``; return the bound registers if ``bind``."""
        sink = self.sink
        if sink.dropped:
            violations.append("history truncated: %d events dropped"
                              % sink.dropped)
        violations += check_history(sink.events, self.machine._line_shift)
        check = getattr(test, "check", None)
        if check is not None:
            violations += check(sink.events, self.machine)
        return _bind_registers(test, sink.events) if bind else None


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


def run_suite(tests: "tuple[LitmusTest, ...]" = LITMUS_SUITE,
              explore: bool = True) -> SuiteResult:
    """Run litmus tests; ``explore`` adds the bounded schedule set per
    test (otherwise each runs once, unperturbed)."""
    results = []
    for test in tests:
        schedules = (bounded_schedules(test.num_cpus) if explore
                     else [None])
        for schedule in schedules:
            results.append(run_litmus(test, schedule))
    return SuiteResult(results=results)
