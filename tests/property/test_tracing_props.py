"""Property-based tests for the tracing layer's zero-perturbation
invariant: instrumenting a run must never change its simulated results.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import tracing
from repro.obs.tracing import TraceCollector, compute_breakdown
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload

#: Cheap-but-distinct cells for the identity property (tiny preset runs
#: take well under a second each).
_CELLS = [("fft", "scoma"), ("fft", "lanuma"), ("mp3d", "scoma"),
          ("water-nsq", "dyn-fcfs")]


@given(st.sampled_from(_CELLS), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=6, deadline=None)
def test_instrumented_run_stats_are_byte_identical(cell, seed):
    """A run under a trace collector (and no metrics registry) produces
    a MachineStats snapshot byte-identical to an uninstrumented run —
    tracing observes, it never perturbs."""
    workload, policy = cell
    plain = Machine(MachineConfig(), policy=policy).run(
        make_workload(workload, "tiny"))
    with tracing.collecting(seed=seed) as collector:
        traced = Machine(MachineConfig(), policy=policy).run(
            make_workload(workload, "tiny"))
    assert collector.finished > 0
    assert traced.stats.to_dict() == plain.stats.to_dict()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_breakdown_sums_to_duration_for_arbitrary_trees(data):
    """compute_breakdown charges every cycle of the root window exactly
    once, whatever the (possibly overlapping, possibly out-of-window)
    child spans look like."""
    collector = TraceCollector(seed=data.draw(st.integers(0, 1000)))
    begin = data.draw(st.integers(0, 1000))
    duration = data.draw(st.integers(1, 1000))
    root = collector.begin("miss", "local", 0, begin)
    kinds = st.sampled_from(["queue", "network", "home", "inval", "mem"])
    for _ in range(data.draw(st.integers(0, 8))):
        lo = data.draw(st.integers(begin - 50, begin + duration + 50))
        hi = data.draw(st.integers(lo, begin + duration + 100))
        collector.add("child", data.draw(kinds), 0, lo, hi)
    collector.end(root, begin + duration)
    (trace,) = collector.slowest()
    assert sum(trace.breakdown.values()) == duration
    assert trace.breakdown == compute_breakdown(trace)
