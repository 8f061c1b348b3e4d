"""The registry's in-place histograms and run-end settle are exact.

The metrics probes update their histograms in place and set the
per-request serving counters once, when the run ends.  A reference
observer here does it the plain way, one ``Histogram.observe`` (and,
per request, one counter, gauge and series update) per access, fetch
and request, and must read the same on a kvstore, a txn2pc and an fft
run, and on a txn2pc run that raises part-way.
"""

import pytest

import repro
from repro import obs
from repro.core.controller import DeadlineExceeded
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.injector import FaultInjector
from repro.obs.registry import MetricsRegistry
from repro.sim.machine import Machine
from repro.workloads import make_workload

#: Families the reference observer records, by snapshot section.
FAMILIES = {
    "histograms": ("sim.access_latency_cycles", "core.fetch_latency_cycles",
                   "serving.request_latency_cycles"),
    "counters": ("serving.requests",),
    "gauges": ("serving.requests_total",),
    "series": ("serving.completed_requests",),
}


class ReferenceObserver:
    """Records the compared families with one registry call per event.

    Its probes attach from a ``run`` probe registered after the build,
    so they see the completions the registry's own probes see.
    """

    def __init__(self, machine):
        self.registry = MetricsRegistry()
        self.machine = machine
        machine.probes.add("run", self.run)
        machine.probes.add("fetch", self.fetch)
        self.fetch_latency = self.registry.histogram(
            "core.fetch_latency_cycles")

    def run(self, call, workload):
        registry, machine = self.registry, self.machine
        access_latency = registry.histogram(
            "sim.access_latency_cycles", policy=machine.policy.name)
        plan = getattr(workload, "request_plan", None)
        requests = in_flight = None
        if plan is not None:
            requests = [iter(p) for p in plan(len(machine.cpus))]
            in_flight = [None] * len(requests)
            completed = registry.series("serving.completed_requests")
            total = registry.gauge("serving.requests_total")

        def access(call, cpu, vaddr, is_write, now):
            done = call(cpu, vaddr, is_write, now)
            access_latency.observe(done - now)
            if requests is None:
                return done
            cid = cpu.cpu_id
            if in_flight[cid] is None:
                planned = next(requests[cid], None)
                if planned is None:
                    return done
                in_flight[cid] = [planned[0], planned[1], now]
            request = in_flight[cid]
            request[1] -= 1
            if request[1] == 0:
                in_flight[cid] = None
                registry.histogram("serving.request_latency_cycles",
                                   op=request[0]).observe(done - request[2])
                registry.counter("serving.requests", op=request[0]).inc()
                total.set(total.value + 1)
                completed.sample(done, total.value)
            return done
        machine.probes.add("access", access)
        return call(workload)

    def fetch(self, call, entry, lip, want_excl, has_copy, now):
        done = call(entry, lip, want_excl, has_copy, now)
        self.fetch_latency.observe(done - now)
        return done


def compared(registry):
    """The compared families of ``registry``'s snapshot."""
    snap = registry.to_dict()
    return {section: {key: value for key, value in snap[section].items()
                      if key.partition("{")[0] in names}
            for section, names in FAMILIES.items()}


def run_both(app, preset="tiny", faults=None):
    """Run ``app`` on the tiny machine with the registry and the
    reference observer; the two snapshots' compared families, and the
    error the run raised."""
    with obs.collecting() as registry:
        machine = Machine(repro.tiny_config(), policy="scoma", faults=faults)
    reference = ReferenceObserver(machine)
    error = None
    try:
        machine.run(make_workload(app, preset))
    except DeadlineExceeded as exc:
        error = exc
    finally:
        machine.close()
    return compared(registry), compared(reference.registry), error


# kvstore at small completes 4,800 requests, past the completion
# series' 2,048 points, so its stride doubles and the tap skips
# sample calls.
@pytest.mark.parametrize("app, preset", [
    ("kvstore", "tiny"), ("kvstore", "small"), ("txn2pc", "tiny"),
    ("fft", "tiny")])
def test_registry_equals_one_observe_per_event(app, preset):
    got, want, error = run_both(app, preset)
    assert error is None
    assert got == want
    hists = got["histograms"]
    assert hists["core.fetch_latency_cycles"]["count"] > 0
    (access,) = [h for key, h in hists.items()
                 if key.startswith("sim.access_latency_cycles")]
    assert access["count"] == sum(access["counts"]) > 0
    if app != "fft":
        assert got["gauges"]["serving.requests_total"] > 0
        assert got["series"]["serving.completed_requests"]["points"]
    if preset == "small":
        assert got["series"]["serving.completed_requests"]["stride"] > 1


def test_a_run_that_raises_reports_what_it_saw():
    # Every message from cycle 50,000 on is lost, with no retransmission:
    # the run raises part-way, after some transactions completed.
    plan = FaultPlan().drop(1.0, start=50_000)
    got, want, error = run_both(
        "txn2pc",
        faults=FaultInjector(plan, seed=0, retry=RetryPolicy.disabled()))
    assert isinstance(error, DeadlineExceeded)
    assert got == want
    assert got["gauges"]["serving.requests_total"] > 0
    assert sum(got["counters"].values()) == \
        got["gauges"]["serving.requests_total"]
