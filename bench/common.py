"""Shared pieces of the benchmark: paths, the metric catalogue,
statistics, digests and bench-side spans."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

#: The program's layers: the packages under ``src/repro``.
LAYERS = ("sim", "mem", "core", "interconnect", "kernel", "workloads",
          "obs", "verify", "faults", "harness")
#: Host time no layer owns: the benchmark's own code and the profiler.
OTHER = "other"


@dataclass(frozen=True)
class Metric:
    """One named measurement.

    ``kind`` decides how ``compare.py`` judges it: ``host`` values are
    noisy host measurements gated by ``bound`` (the share of the parent
    median by which they may worsen); ``exact`` values are deterministic
    and must repeat exactly; ``info`` values are noisy and never gated.
    """

    name: str
    unit: str
    better: str
    kind: str
    bound: "float | None" = None


#: Bound of the host-time metrics.  On a shared 2-vCPU host the speed
#: of the machine drifts between runs a few minutes apart: over ten
#: runs the quartile distance over the median of a host time reached
#: 3-11% (consecutive runs) and up to 20% (runs spread over 13
#: minutes).  No statistic taken inside one run removes that, so the
#: largest bound BENCHMARK.json allows is used.
HOST_TIME_BOUND = 0.25

#: End-to-end metrics every workload reports (BENCHMARK.json
#: ``end_to_end``; printed on ``--trace 0``).
E2E = (
    Metric("wall_s", "s", "lower", "host", HOST_TIME_BOUND),
    Metric("work_per_s", "1/s", "higher", "host", HOST_TIME_BOUND),
    Metric("setup_s", "s", "lower", "host", HOST_TIME_BOUND),
    # The campaign's peak moves a few percent with the seed, which
    # permutes the order its cells allocate in.
    Metric("peak_rss_mb", "MB", "lower", "host", 0.15),
)

#: End-to-end metrics only some workloads have.  They land in the
#: result files and are judged by compare.py, not by BENCHMARK.json,
#: whose metrics every workload must report.
EXTRA = (
    Metric("warm_ms", "ms", "lower", "host", HOST_TIME_BOUND),
    Metric("cell_p50_s", "s", "lower", "host", HOST_TIME_BOUND),
    Metric("cell_p75_s", "s", "lower", "host", HOST_TIME_BOUND),
    Metric("run_p50_ms", "ms", "lower", "host", HOST_TIME_BOUND),
    Metric("run_p99_ms", "ms", "lower", "host", HOST_TIME_BOUND),
    Metric("sim_cycles", "cycles", "lower", "exact"),
    Metric("table1_max_err_pct", "%", "lower", "exact"),
    Metric("req_mean_cycles", "cycles", "lower", "exact"),
    Metric("fail_ratio", "ratio", "lower", "exact"),
)

#: Exact counters read from the program's public statistics
#: (MachineStats, resource_report(), FaultStats, registry snapshots).
COUNTERS = (
    Metric("mem.l1_hit_ratio", "ratio", "higher", "exact"),
    Metric("mem.l2_hit_ratio", "ratio", "higher", "exact"),
    Metric("mem.tlb_misses_per_kref", "1/kref", "lower", "exact"),
    Metric("mem.bus_util_max", "ratio", "lower", "exact"),
    Metric("core.remote_misses_per_kref", "1/kref", "lower", "exact"),
    Metric("core.upgrades_per_kref", "1/kref", "lower", "exact"),
    Metric("core.invalidations_per_kref", "1/kref", "lower", "exact"),
    Metric("core.dir_cache_hit_ratio", "ratio", "higher", "exact"),
    Metric("core.pit_fast_ratio", "ratio", "higher", "exact"),
    Metric("core.ctrl_util_max", "ratio", "lower", "exact"),
    Metric("interconnect.ni_util_max", "ratio", "lower", "exact"),
    Metric("kernel.page_faults", "count", "lower", "exact"),
    Metric("kernel.client_page_outs", "count", "lower", "exact"),
    Metric("kernel.util_max", "ratio", "lower", "exact"),
    Metric("sim.barrier_waits", "count", "lower", "exact"),
    Metric("sim.lock_acquires", "count", "lower", "exact"),
    Metric("faults.judged", "count", "lower", "exact"),
    Metric("faults.dropped", "count", "lower", "exact"),
    Metric("faults.retransmissions", "count", "lower", "exact"),
    Metric("faults.retry_exhausted", "count", "lower", "exact"),
    Metric("faults.retransmit_ratio", "ratio", "lower", "exact"),
    Metric("verify.sc_ratio", "ratio", "higher", "exact"),
    Metric("obs.requests_observed", "count", "higher", "exact"),
    Metric("harness.cache_hit_ratio", "ratio", "higher", "exact"),
)

#: Per-layer metrics of the traced run (BENCHMARK.json ``per_layer``;
#: printed on ``--trace 1``).
PER_LAYER = tuple(
    metric
    for layer in LAYERS + (OTHER,)
    for metric in (
        Metric(layer + ".self_s", "s", "lower", "info"),
        Metric(layer + ".share", "ratio", "lower", "info"),
        Metric(layer + ".calls_per_kitem", "calls/kitem", "lower", "exact"),
    )
) + COUNTERS + (Metric("trace_overhead_pct", "%", "lower", "info"),)

CATALOGUE = {metric.name: metric for metric in E2E + EXTRA + PER_LAYER}


def quartiles(values) -> "tuple[float, float]":
    """First and third quartile (both the value itself for one sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, p: int) -> float:
    """The ``p``-th percentile (1..99) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def digest(obj) -> str:
    """Short content hash of a JSON-safe object (key order ignored)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Spans:
    """Bench-side spans: name, start, end and the enclosing span.

    Kept in memory and written as JSONL when the run ends.  Times are
    seconds from the creation of this object.
    """

    def __init__(self) -> None:
        self.records: "list[dict]" = []
        self._stack: "list[int]" = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float, **attrs) -> dict:
        """Record a finished span under the innermost open one."""
        record = {"id": len(self.records),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": start, "end": end}
        record.update(attrs)
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs):
        record = self.add(name, self.now(), None, **attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    def durations(self, name: str, **match) -> "list[float]":
        """Seconds of every finished span called ``name`` whose
        attributes include ``match``."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None
                and all(r.get(k) == v for k, v in match.items())]

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
