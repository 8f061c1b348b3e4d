"""Observability integration: zero overhead when disabled, identical
results either way (the satellite acceptance checks for ``repro.obs``).
"""

import json
import time

import pytest

from repro import obs
from repro.harness.session import ExperimentSpec, execute_spec

#: Dyn-LRU with no page-cache cap, so it runs without a SCOMA sibling.
TINY = ExperimentSpec(workload="water-spa", policy="dyn-lru", preset="tiny",
                      cache_fraction=None)


def stats_blob(result):
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def test_stats_byte_identical_with_and_without_registry():
    baseline = stats_blob(execute_spec(TINY))
    with obs.collecting():
        instrumented = stats_blob(execute_spec(TINY))
    assert instrumented == baseline
    # And disabled again afterwards (collecting() restored the None).
    assert stats_blob(execute_spec(TINY)) == baseline


def test_machine_resolves_no_handles_without_registry():
    from repro.sim.machine import Machine
    import repro
    from repro.workloads import make_workload
    machine = Machine(repro.tiny_config(), policy="scoma")
    machine.run(make_workload("fft", "tiny"))
    assert machine.probes.run == machine.probes.access == ()
    kernel = machine.nodes[0].kernel
    assert "fault" not in vars(kernel)
    assert "page_out_client" not in vars(kernel)
    controller = machine.nodes[0].controller
    assert "fetch" not in vars(controller)


def test_access_latency_histogram_is_the_outermost_access_probe():
    import repro
    from repro.sim.machine import Machine
    from repro.workloads import make_workload
    seen = []

    def slower(call, cpu, vaddr, is_write, now):
        done = call(cpu, vaddr, is_write, now) + 5
        seen.append(done - now)
        return done

    with obs.collecting() as registry:
        machine = Machine(repro.tiny_config(), policy="scoma")
        machine.probes.add("access", slower)
        machine.run(make_workload("fft", "tiny"))
    (_labels, hist), = obs.find_metrics(registry.to_dict()["histograms"],
                                        "sim.access_latency_cycles")
    assert hist["count"] == machine.stats.references
    # It observed the completion the earlier probe adjusted.
    assert hist["sum"] == sum(seen)


def test_disabled_path_within_coarse_overhead_bound():
    """The no-registry run must cost no more than 1.05x the collecting
    run: collection does a strict superset of the disabled path's work,
    so this coarsely bounds the no-op overhead without needing a
    pre-instrumentation binary to compare against.

    The arms alternate run by run, so host drift lands on both arms
    alike instead of deciding the verdict between two blocks."""
    def timed(enabled):
        start = time.perf_counter()
        if enabled:
            with obs.collecting():
                execute_spec(TINY)
        else:
            execute_spec(TINY)
        return time.perf_counter() - start

    timed(False)                         # warm caches/imports
    samples = {False: [], True: []}
    for _ in range(3):
        for enabled in (False, True):
            samples[enabled].append(timed(enabled))
    disabled = sorted(samples[False])[1]
    enabled = sorted(samples[True])[1]
    assert disabled <= enabled * 1.05, (
        "disabled run (%.4fs) slower than instrumented run (%.4fs)"
        % (disabled, enabled))


def test_collected_metrics_cover_all_three_layers():
    with obs.collecting() as registry:
        execute_spec(TINY)
    snap = registry.to_dict()
    families = set()
    for section in ("counters", "gauges", "histograms", "series"):
        for key in snap[section]:
            families.add(key.split("{")[0])
    # Simulator, coherence core and kernel must all report.
    assert "sim.access_latency_cycles" in families
    assert "sim.resource_utilization" in families
    assert "core.protocol_messages" in families
    assert "core.pit_fast_ratio" in families
    assert "kernel.fault_service_cycles" in families
    assert "kernel.frame_pool.real_in_use" in families


def test_cache_full_actions_counted_for_capped_policy():
    import repro
    spec = ExperimentSpec(workload="water-spa", policy="dyn-lru",
                          preset="tiny", cache_fraction=None,
                          config=repro.tiny_config(page_cache_frames=3))
    with obs.collecting() as registry:
        result = execute_spec(spec)
    snap = registry.to_dict()
    demotes = snap["counters"].get(
        "core.cache_full_actions{action=demote,policy=dyn-lru}", 0)
    assert demotes == sum(n.mode_demotions for n in result.stats.nodes)
    pageouts = snap["counters"].get("kernel.page_outs{demote=true}", 0)
    assert pageouts == demotes


def test_a_run_that_raises_keeps_its_wild_write_count():
    """The firewall's counter is rolled up from the model's stats even
    when the blocked write ends the run."""
    from repro.core.controller import WildWriteError
    from repro.sim.ops import OP_WRITE
    from repro.workloads.base import Workload
    from tests.conftest import Harness

    class WildWrite(Workload):
        name = "wild-write"

        def __init__(self, cpu, vaddr):
            super().__init__()
            self.cpu, self.vaddr = cpu, vaddr

        def setup(self, layout, num_cpus):
            pass  # writes into the harness's region

        def generator(self, cpu_id, num_cpus):
            return iter([(OP_WRITE, self.vaddr)] if cpu_id == self.cpu
                        else [])

    with obs.collecting() as registry:
        h = Harness()
        page = h.page_homed_at(1)
        vaddr = h.vaddr(page, 0)
        h.write(h.cpu_on_node(0), vaddr)
        h.entry_at(1, page).allowed_writers = {0}
        with pytest.raises(WildWriteError):
            h.machine.run(WildWrite(h.cpu_on_node(2), vaddr))
    counters = registry.to_dict()["counters"]
    assert counters["core.wild_writes_blocked"] == 1
