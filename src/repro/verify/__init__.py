"""Protocol conformance subsystem: litmus tests, schedule fuzzing, and
a sequential-consistency checker.

The simulator resolves every memory reference atomically in timestamp
order, so a *correct* machine is sequentially consistent per location:
every read must observe the value of the latest write in resolution
order.  This package turns that into an executable oracle:

* :mod:`repro.verify.litmus`   — a tiny litmus-test DSL (per-CPU
  programs of loads/stores/delays with expected-outcome predicates) and
  the bundled suite covering S-COMA, LA-NUMA, CC-NUMA, sibling
  invalidation, dynamic home migration and page-out races.
* :mod:`repro.verify.tracker`  — the value tap: an ``access`` probe on
  the machine that records every read's *observed* value and
  every write's installed value into an EventSink history.
* :mod:`repro.verify.checker`  — validates a recorded history against
  the legal writes-serialization order.
* :mod:`repro.verify.runner`   — runs litmus tests under bounded
  schedule perturbation (CPU start-time skew + network jitter) with
  machine-wide invariant walks at every barrier.
* :mod:`repro.verify.fuzz`     — a deterministic randomized schedule
  fuzzer with automatic shrinking to a minimal reproducing schedule.
* :mod:`repro.verify.mutations` — protocol mutations (e.g. skip an
  invalidation) used to prove the checkers are not vacuous.
"""

from repro.verify.checker import check_history
from repro.verify.fuzz import FuzzFailure, fuzz, shrink
from repro.verify.litmus import (LITMUS_SUITE, LitmusTest, Thread, delay,
                                 ld, st, suite_by_name)
from repro.verify.mutations import MUTATIONS, apply_mutation
from repro.verify.runner import (LitmusResult, SuiteResult, bounded_schedules,
                                 run_litmus, run_suite)
from repro.verify.tracker import ValueTracker

__all__ = [
    "LITMUS_SUITE", "LitmusTest", "Thread", "ld", "st", "delay",
    "suite_by_name", "ValueTracker", "check_history", "LitmusResult",
    "SuiteResult", "bounded_schedules", "run_litmus", "run_suite",
    "FuzzFailure", "fuzz", "shrink", "MUTATIONS", "apply_mutation",
]
