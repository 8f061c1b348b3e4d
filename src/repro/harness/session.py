"""Parallel campaign engine: ``ExperimentSpec`` + ``Session``.

The paper's evaluation is a *campaign*: a grid of (workload, policy)
cells, each an independent :class:`~repro.sim.machine.Machine` run.  The
only true dependency is that a workload's SCOMA run must finish before
its capped policies (SCOMA-70, Dyn-*) can derive the per-node page-cache
caps (section 4.2).  The campaign is therefore a two-stage DAG:

* **stage 1** — every SCOMA run, plus every policy that needs no cap
  (LANUMA, CC-NUMA), fans out across a ``multiprocessing`` worker pool;
* **stage 2** — as each workload's SCOMA result lands, its capped
  policies are scheduled immediately (no global barrier between stages).

Cells are described by a frozen :class:`ExperimentSpec` and executed by
a :class:`Session`, which also maintains a content-addressed on-disk
result cache keyed by a stable hash of ``(spec, MachineConfig)``:
re-running ``evaluate`` after a config tweak only recomputes the cells
whose inputs changed.  The scheduler is deterministic in its *outputs* —
``--jobs 4`` produces byte-identical statistics to ``--jobs 1``; only
the wall clock changes.

Quick use::

    from repro.harness.session import ExperimentSpec, Session

    session = Session(jobs=4, cache_dir=".prism-cache")
    result = session.run(ExperimentSpec("fft", "scoma", preset="small"))
    suites = session.run_campaign(("fft", "lu"), preset="small")
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import tempfile
import time
from dataclasses import dataclass

from repro import obs
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.stats import MachineStats
from repro.workloads import make_workload

#: Bump when the cached stats schema or simulator semantics change in a
#: way that invalidates previously cached results.
CACHE_SCHEMA = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One campaign cell: a workload under a policy on a machine.

    Immutable and hashable by content; the canonical description of a
    run for the scheduler, the worker handoff and the result cache.
    ``config=None`` means the default :class:`MachineConfig` (resolved
    explicitly, so a spec with ``config=None`` and one with
    ``config=MachineConfig()`` are the same cache entry).  ``seed`` is
    folded into the cache key for forward compatibility; the bundled
    SPLASH kernels are deterministic and ignore it.
    """

    workload: str
    policy: str
    preset: str = "default"
    config: "MachineConfig | None" = None
    page_cache_override: "tuple[int, ...] | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.page_cache_override is not None
                and not isinstance(self.page_cache_override, tuple)):
            object.__setattr__(self, "page_cache_override",
                               tuple(self.page_cache_override))

    def __hash__(self) -> int:
        # MachineConfig is a mutable dataclass and therefore unhashable;
        # hash the canonical content key instead (equal specs have equal
        # payloads, so the eq/hash contract holds).
        return hash(self.cache_key())

    def resolved_config(self) -> MachineConfig:
        """The machine configuration this spec runs on (never None)."""
        return self.config if self.config is not None else MachineConfig()

    def to_payload(self) -> "dict[str, object]":
        """JSON-safe dict describing this spec, config fully resolved.

        This is both the worker-handoff format and the cache-key
        content; invert with :meth:`from_payload`.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "preset": self.preset,
            "seed": self.seed,
            "page_cache_override":
                (list(self.page_cache_override)
                 if self.page_cache_override is not None else None),
            "config": self.resolved_config().to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: "dict[str, object]") -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        override = payload["page_cache_override"]
        return cls(workload=payload["workload"], policy=payload["policy"],
                   preset=payload["preset"], seed=payload["seed"],
                   page_cache_override=(tuple(override)
                                        if override is not None else None),
                   config=MachineConfig.from_dict(payload["config"]))

    def cache_key(self) -> str:
        """Stable content hash of (spec, resolved MachineConfig)."""
        canonical = json.dumps({"schema": CACHE_SCHEMA, **self.to_payload()},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def execute_spec(spec: ExperimentSpec, collect_metrics: bool = False,
                 trace_cells: bool = False, attach=None) -> RunResult:
    """The one cell runner: build, observe, run and close a cell's machine.

    ``collect_metrics`` runs the cell under a fresh
    :func:`repro.obs.collecting` registry and puts the snapshot on
    ``RunResult.metrics``.  ``trace_cells`` (implies metrics) also
    installs a :class:`~repro.obs.tracing.TraceCollector` seeded with
    the spec seed, so the snapshot carries the ``trace.*`` roll-ups
    (per-segment critical-path histograms).  ``attach`` is the seam for
    observers that need the live machine: it is called with the built
    machine before the run (``repro run --trace-out`` and
    ``--check-invariants`` use it).  None of these changes the
    statistics; the machine is closed whatever happens.
    """
    if collect_metrics or trace_cells:
        from repro.obs import tracing
        with obs.collecting() as registry:
            wall = registry.histogram("harness.cell_wall_seconds",
                                      buckets=obs.TIME_BUCKETS_SECONDS)
            begin = time.perf_counter()
            if trace_cells:
                with tracing.collecting(seed=spec.seed):
                    result = execute_spec(spec, attach=attach)
            else:
                result = execute_spec(spec, attach=attach)
            wall.observe(time.perf_counter() - begin)
        result.metrics = registry.to_dict()
        return result
    override = (list(spec.page_cache_override)
                if spec.page_cache_override is not None else None)
    machine = Machine(spec.resolved_config(), policy=spec.policy,
                      page_cache_override=override)
    try:
        if attach is not None:
            attach(machine)
        return machine.run(make_workload(spec.workload, spec.preset))
    finally:
        machine.close()


def _worker_run(payload: "dict[str, object]",
                collect_metrics: bool = False,
                trace_cells: bool = False) -> "dict[str, object]":
    """Pool worker: simulate one cell, return JSON-safe stats.

    Takes and returns plain dicts so the worker handoff goes through
    the exact same serialization as the result cache — a parallel run
    cannot diverge from a sequential one by construction.  The two
    observer flags are deliberately *not* part of the payload: they do
    not affect the simulation result, so they must not perturb the
    cache key.
    """
    started = time.perf_counter()
    result = execute_spec(ExperimentSpec.from_payload(payload),
                          collect_metrics, trace_cells)
    return {"stats": result.stats.to_dict(),
            "metrics": result.metrics,
            "seconds": time.perf_counter() - started}


class ResultCache:
    """Content-addressed on-disk cache of finished runs.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is
    :meth:`ExperimentSpec.cache_key`; each file holds the spec payload
    (for inspection) and the full :class:`MachineStats` dict.  Writes
    are atomic (temp file + rename) so concurrent sessions sharing a
    cache directory never observe torn entries.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def load_with_metrics(
            self, spec: ExperimentSpec, collect_metrics: bool = False,
            trace_cells: bool = False
    ) -> "tuple[MachineStats | None, dict[str, object] | None]":
        """Cached ``(stats, metrics snapshot)`` for ``spec``.

        An entry serves a request only if it holds what was asked for:
        with ``collect_metrics`` it must carry a snapshot, with
        ``trace_cells`` a snapshot with the ``trace.*`` roll-ups.  A
        plain lookup takes any entry, snapshot or not.  An entry that
        falls short, or cannot be read back, is a miss: the cell runs
        again and overwrites it.
        """
        try:
            with open(self._path(spec.cache_key())) as fh:
                entry = json.load(fh)
            if entry["schema"] == CACHE_SCHEMA:
                stats = MachineStats.from_dict(entry["stats"])
                metrics = entry.get("metrics")
                if metrics is None:
                    short = collect_metrics or trace_cells
                else:
                    short = trace_cells and not any(
                        key.startswith("trace.") for key in metrics["gauges"])
                if not short:
                    self.hits += 1
                    return stats, metrics
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self.misses += 1
        return None, None

    def store(self, spec: ExperimentSpec, stats: MachineStats,
              metrics: "dict[str, object] | None" = None) -> None:
        """Persist one finished cell (atomic, last writer wins)."""
        path = self._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "spec": spec.to_payload(),
                 "stats": stats.to_dict()}
        if metrics is not None:
            entry["metrics"] = metrics
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            # dumps, not dump: json.dump streams through the pure-Python
            # encoder; dumps takes the C one.  The bytes are the same.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1


class _Scheduler:
    """Dispatches specs to a worker pool (or runs them inline).

    ``submit`` enqueues a cell; ``drain`` yields completion events in
    completion order and keeps going until everything submitted —
    including cells submitted *from inside* the drain loop, which is how
    stage-2 work chains off stage-1 results — has finished.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._events: "queue.Queue" = queue.Queue()
        self._outstanding = 0
        self._pool = None
        if session.jobs > 1:
            import multiprocessing

            self._pool = multiprocessing.Pool(session.jobs)

    def submit(self, tag, spec: ExperimentSpec) -> None:
        """Schedule one cell; its completion event carries ``tag``."""
        self._outstanding += 1
        cache = self._session.cache
        collect = self._session.collect_metrics
        trace = self._session.trace_cells
        stats, metrics = (cache.load_with_metrics(spec, collect, trace)
                          if cache is not None else (None, None))
        if stats is not None:
            self._events.put((tag, spec, stats, metrics, True, 0.0, None))
        elif self._pool is None:
            try:
                out = _worker_run(spec.to_payload(), collect, trace)
            except Exception as exc:                # noqa: BLE001
                self._events.put((tag, spec, None, None, False, 0.0, exc))
            else:
                self._events.put((tag, spec,
                                  MachineStats.from_dict(out["stats"]),
                                  out["metrics"],
                                  False, out["seconds"], None))
        else:
            def _done(out, tag=tag, spec=spec):
                self._events.put((tag, spec,
                                  MachineStats.from_dict(out["stats"]),
                                  out["metrics"],
                                  False, out["seconds"], None))

            def _fail(exc, tag=tag, spec=spec):
                self._events.put((tag, spec, None, None, False, 0.0, exc))

            self._pool.apply_async(_worker_run,
                                   (spec.to_payload(), collect, trace),
                                   callback=_done, error_callback=_fail)

    def drain(self):
        """Yield ``(tag, spec, stats, metrics, cached, seconds)``
        events."""
        try:
            while self._outstanding:
                (tag, spec, stats, metrics,
                 cached, seconds, exc) = self._events.get()
                self._outstanding -= 1
                if exc is not None:
                    raise exc
                if not cached and self._session.cache is not None:
                    self._session.cache.store(spec, stats, metrics)
                yield tag, spec, stats, metrics, cached, seconds
        finally:
            self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


class Session:
    """Executes :class:`ExperimentSpec` cells, possibly in parallel.

    ``jobs`` is the worker-pool width (1 = run everything in-process,
    no pool); ``cache_dir`` enables the on-disk :class:`ResultCache`;
    ``progress`` takes a
    :class:`~repro.harness.report.CampaignProgress` for live per-cell
    lines.  Results are deterministic: the same specs produce the same
    statistics at any ``jobs`` width, with or without a warm cache.

    ``collect_metrics`` makes every simulated cell run under a fresh
    :mod:`repro.obs` registry; the snapshot lands on
    ``RunResult.metrics`` and rides along in the result cache.  It does
    not change cache keys or statistics.  ``trace_cells``
    additionally runs each simulated cell under a causal trace
    collector so the snapshot includes the ``trace.*`` critical-path
    roll-ups (this is what feeds the ``repro top`` segment column);
    it implies metrics collection and is equally invisible to the
    statistics and the cache key.  A cached cell serves a session only
    if its entry holds what the session collects; otherwise the cell
    runs again and its entry is overwritten.
    """

    def __init__(self, jobs: int = 1, cache_dir: "str | None" = None,
                 progress=None, collect_metrics: bool = False,
                 trace_cells: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.collect_metrics = collect_metrics
        self.trace_cells = trace_cells

    # -- cache counters --------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Cells served from the result cache so far."""
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        """Cache lookups that had to simulate."""
        return self.cache.misses if self.cache is not None else 0

    # -- entry points ----------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Run one cell (through the cache if one is configured)."""
        return self.run_suite([spec])[0]

    def run_suite(self, specs) -> "list[RunResult]":
        """Run independent, fully-specified cells; results match the
        input order.

        Cells here must not need derived inputs — a capped policy spec
        must carry an explicit ``page_cache_override``.  Use
        :meth:`run_workload_suite` / :meth:`run_campaign` for the
        SCOMA-first dependency handling.
        """
        specs = list(specs)
        if self.progress is not None:
            self.progress.expect(len(specs))
        scheduler = _Scheduler(self)
        for index, spec in enumerate(specs):
            scheduler.submit(index, spec)
        results: "list[RunResult | None]" = [None] * len(specs)
        for index, spec, stats, metrics, cached, seconds in scheduler.drain():
            results[index] = RunResult(workload=spec.workload,
                                       policy=spec.policy,
                                       config=spec.resolved_config(),
                                       stats=stats, metrics=metrics)
            if self.progress is not None:
                self._note_cell_metrics(spec, metrics)
                self.progress.cell_done(spec.workload, spec.policy,
                                        seconds, cached)
        self._note_cache_progress()
        return results

    def run_workload_suite(self, workload: str, policies=None,
                           preset: str = "default",
                           config: "MachineConfig | None" = None,
                           cache_fraction: float = 0.7):
        """One workload under a policy set (SCOMA first, then fan-out)."""
        suites = self.run_campaign((workload,), policies=policies,
                                   preset=preset, config=config,
                                   cache_fraction=cache_fraction)
        return suites[workload]

    def run_campaign(self, apps, policies=None, preset: str = "default",
                     config: "MachineConfig | None" = None,
                     cache_fraction: float = 0.7):
        """Every application's policy suite as a two-stage DAG.

        Stage 1 fans out each workload's SCOMA run plus every policy
        that needs no page-cache cap; as each SCOMA result completes,
        that workload's capped policies (stage 2) are scheduled
        immediately.  Returns ``{app: SuiteResult}`` with the policies
        of every suite in canonical (SCOMA-first) order regardless of
        completion order.
        """
        from repro.harness.runner import (CAPPED_POLICIES, PAPER_POLICIES,
                                          SuiteResult,
                                          derive_page_cache_caps)
        if policies is None:
            policies = PAPER_POLICIES
        apps = tuple(apps)
        ordered = ["scoma"] + [p for p in policies if p != "scoma"]
        capped = [p for p in ordered if p in CAPPED_POLICIES]
        suites = {app: SuiteResult(workload=app, preset=preset)
                  for app in apps}
        if self.progress is not None:
            self.progress.expect(len(apps) * len(ordered))

        scheduler = _Scheduler(self)
        for app in apps:
            for policy in ordered:
                if policy not in CAPPED_POLICIES:
                    scheduler.submit(app, ExperimentSpec(
                        workload=app, policy=policy, preset=preset,
                        config=config))

        for app, spec, stats, metrics, cached, seconds in scheduler.drain():
            result = RunResult(workload=spec.workload, policy=spec.policy,
                               config=spec.resolved_config(), stats=stats,
                               metrics=metrics)
            suites[app].results[spec.policy] = result
            if self.progress is not None:
                self._note_cell_metrics(spec, metrics)
                self.progress.cell_done(spec.workload, spec.policy,
                                        seconds, cached)
            if spec.policy == "scoma":
                caps = derive_page_cache_caps(result, cache_fraction)
                suites[app].page_cache_caps = caps
                for policy in capped:
                    scheduler.submit(app, ExperimentSpec(
                        workload=app, policy=policy, preset=preset,
                        config=config, page_cache_override=tuple(caps)))

        # Completion order is nondeterministic under a pool; re-impose
        # the canonical policy order so rendered output is byte-stable.
        for suite in suites.values():
            suite.results = {p: suite.results[p] for p in ordered
                             if p in suite.results}
        self._note_cache_progress()
        return suites

    def _note_cache_progress(self) -> None:
        if self.progress is not None and self.cache is not None:
            self.progress.note_cache(self.cache.hits, self.cache.misses)

    def _note_cell_metrics(self, spec: ExperimentSpec, metrics) -> None:
        """Feed a completed cell's metrics snapshot to the progress
        object when it wants one (duck-typed ``cell_metrics`` hook —
        the live ``repro top`` view derives its rolling latency
        breakdowns from these).  Called right *before* the cell's
        ``cell_done`` so the view renders each cell exactly once."""
        if metrics is None:
            return
        hook = getattr(self.progress, "cell_metrics", None)
        if hook is not None:
            hook(spec.workload, spec.policy, metrics)
