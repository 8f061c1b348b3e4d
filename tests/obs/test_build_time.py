"""Observers are read once, when the machine is built.

``Machine.__init__`` makes one ``repro.obs.attach`` call, which
registers the installed metrics registry's and trace collector's
probes; the model below the machine (controllers, kernels, command
channels, the fault plane, the serving workloads) holds neither and
only fires probe points.  So
observers installed after the build see nothing of the run, and
observers installed before it see all of it: the digests below pin the
whole metrics snapshot and span export of one faulted txn2pc run, the
``faults.*`` counters, the command-channel spans and the fault marks
included.
"""

import hashlib
import json

from repro import obs
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import tracing
from repro.sim.machine import Machine
from repro.workloads.serving import chaos_scenarios

#: sha256 of the sorted-key metrics snapshot (``host.*`` wall-clock
#: gauges dropped) and of the span JSONL of :func:`_build_and_run`.
METRICS_SHA256 = (
    "e52e8b38d74a45584cbb4584fe3692f56450c67e91fc715293e3a3343c11b80a")
SPANS_SHA256 = (
    "a66b7fc82072471a21e197066494a62ffaea82ec2a8e778b08aa32ebddc314ee")


def _build():
    """A txn2pc machine under a plan that drops, duplicates (the
    command channel's dedup path) and delays hops."""
    scenario = chaos_scenarios()["txn2pc"]
    plan = (FaultPlan().drop(0.2).duplicate(0.5, kinds=["COMMAND"])
            .delay(0.2, 40))
    machine = Machine(scenario.build_config(), policy=scenario.policy,
                      faults=FaultInjector(plan, seed=11))
    return machine, scenario.make_workload()


def _snapshot(registry):
    snap = registry.to_dict()
    snap["gauges"] = {key: value for key, value in snap["gauges"].items()
                      if not key.startswith("host.")}
    return snap


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_observers_installed_after_build_record_nothing():
    machine, workload = _build()
    with obs.collecting() as registry, \
            tracing.collecting(seed=5) as collector:
        machine.run(workload)
    assert machine.faults.stats.judged > 0
    assert registry.to_dict() == obs.MetricsRegistry().to_dict()
    assert collector.started == collector.span_count == 0


def test_observers_installed_before_build_see_the_whole_run():
    with obs.collecting() as registry, \
            tracing.collecting(seed=5) as collector:
        machine, workload = _build()
        assert [probe.__module__ for probe in machine.probes.run] == [
            "repro.obs.metrics"]
        assert collector.mark in machine.probes.mark
        machine.run(workload)
    snap = _snapshot(registry)
    counters = snap["counters"]
    assert counters["faults.dedup_drops"] == 7
    assert sum(value for key, value in counters.items()
               if key.startswith("faults.retransmit")) == 88
    assert counters["serving.requests{op=txn}"] == 8
    spans = collector.sink.to_jsonl()
    assert spans.count('"channel_send"') == 24
    assert spans.count('"channel_recv"') == 24
    assert spans.count('"retry"') == 88
    assert spans.count('"fault:drop"') == 88
    assert _sha256(json.dumps(snap, sort_keys=True)) == METRICS_SHA256
    assert _sha256(spans) == SPANS_SHA256
