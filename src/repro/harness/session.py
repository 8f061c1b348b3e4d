"""Parallel campaign engine: ``ExperimentSpec`` + ``Session``.

The paper's evaluation is a *campaign*: a grid of (workload, policy)
cells, each an independent :class:`~repro.sim.machine.Machine` run.  The
only dependency is section 4.2's cap: SCOMA-70 and the Dyn-* policies
cap each node's page cache at a fraction (``cache_fraction``, 0.7) of
the client frames it allocated in the same run under SCOMA.  The
session's scheduler resolves the cap for every job: a capped cell waits
for its SCOMA sibling, then runs with the per-node caps; every other
cell fans out across a ``multiprocessing`` worker pool at once.

A :class:`Session` also keeps a content-addressed on-disk result cache
keyed by a stable hash of the spec, its ``MachineConfig`` and the
model's source: a re-run recomputes only the cells whose inputs
changed.  Outputs are deterministic — ``--jobs 4`` produces
byte-identical statistics to ``--jobs 1``; only the wall clock changes.

Quick use::

    from repro.harness.session import ExperimentSpec, Session

    session = Session(jobs=4, cache_dir=".prism-cache")
    result = session.run(ExperimentSpec("fft", "scoma-70", preset="small"))
    suites = session.run_campaign(("fft", "lu"), preset="small")
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import queue
import tempfile
import time
from dataclasses import dataclass

from repro import obs
from repro.harness.runner import CAPPED_POLICIES, PAPER_POLICIES, SuiteResult
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.stats import MachineStats
from repro.workloads import make_workload

#: The packages whose source decides a cell's statistics.
MODEL_PACKAGES = ("sim", "core", "mem", "kernel", "interconnect",
                  "workloads")


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """SHA-256 of the model's source, read once per process.

    It covers ``repro/<package>`` for each of :data:`MODEL_PACKAGES`.
    Every cache key folds it in, so no entry serves a simulator other
    than the one that produced it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for package in MODEL_PACKAGES:
        for path in sorted(glob.glob(os.path.join(root, package, "**",
                                                  "*.py"), recursive=True)):
            with open(path, "rb") as fh:
                digest.update(os.path.relpath(path, root).encode()
                              + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """One campaign cell: a workload under a policy on a machine.

    Immutable and hashable by content; the canonical description of a
    run for the scheduler, the worker handoff and the result cache.
    ``config=None`` means the default :class:`MachineConfig` (resolved
    explicitly, so a spec with ``config=None`` and one with
    ``config=MachineConfig()`` are the same cache entry).  ``seed`` is
    folded into the cache key for forward compatibility; the bundled
    SPLASH kernels are deterministic and ignore it.  ``cache_fraction``
    caps a policy of ``CAPPED_POLICIES`` at that fraction of its SCOMA
    sibling's client frames (section 4.2); ``None`` leaves the cap to
    ``config.page_cache_frames``.  Other policies always read ``None``.
    """

    workload: str
    policy: str
    preset: str = "default"
    config: "MachineConfig | None" = None
    cache_fraction: "float | None" = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in CAPPED_POLICIES:
            object.__setattr__(self, "cache_fraction", None)

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
            "cache_fraction": self.cache_fraction,
            "config": self.resolved_config().to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: "dict[str, object]") -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(workload=payload["workload"], policy=payload["policy"],
                   preset=payload["preset"], seed=payload["seed"],
                   cache_fraction=payload["cache_fraction"],
                   config=MachineConfig.from_dict(payload["config"]))

    def cache_key(self) -> str:
        """Stable content hash of the spec, its config and the model."""
        canonical = json.dumps({"model": model_digest(),
                                **self.to_payload()},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def execute_spec(spec: ExperimentSpec, collect_metrics: bool = False,
                 trace_cells: bool = False, attach=None,
                 caps: "list[int] | None" = None) -> RunResult:
    """The one cell runner: build, observe, run and close a cell's machine.

    ``caps`` are a capped spec's per-node page-cache caps, from
    :meth:`Session.page_cache_caps`; it never runs one without them.
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
    if (caps is None) != (spec.cache_fraction is None):
        raise ValueError("%s/%s: caps %r do not fit cache_fraction %r "
                         "(resolve them from the SCOMA sibling)"
                         % (spec.workload, spec.policy, caps,
                            spec.cache_fraction))
    if collect_metrics or trace_cells:
        from repro.obs import tracing
        with obs.collecting() as registry:
            wall = registry.histogram("harness.cell_wall_seconds",
                                      buckets=obs.TIME_BUCKETS_SECONDS)
            begin = time.perf_counter()
            if trace_cells:
                with tracing.collecting(seed=spec.seed):
                    result = execute_spec(spec, attach=attach, caps=caps)
            else:
                result = execute_spec(spec, attach=attach, caps=caps)
            wall.observe(time.perf_counter() - begin)
        result.metrics = registry.to_dict()
        return result
    machine = Machine(spec.resolved_config(), policy=spec.policy,
                      page_cache_override=caps)
    try:
        if attach is not None:
            attach(machine)
        return machine.run(make_workload(spec.workload, spec.preset))
    finally:
        machine.close()


def _worker_run(payload: "dict[str, object]",
                caps: "list[int] | None" = None,
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
                          collect_metrics, trace_cells, caps=caps)
    return {"stats": result.stats.to_dict(),
            "metrics": result.metrics,
            "seconds": time.perf_counter() - started}


class ResultCache:
    """Content-addressed on-disk cache of finished runs.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is
    :meth:`ExperimentSpec.cache_key`; each file holds the spec payload
    (for inspection), the full :class:`MachineStats` dict and, for a
    capped cell, the page-cache caps it ran with.  Writes are atomic
    (temp file + rename) so concurrent sessions sharing a cache
    directory never observe torn entries.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def load(self, spec: ExperimentSpec, collect_metrics: bool = False,
             trace_cells: bool = False):
        """Cached ``(stats, metrics snapshot, caps)`` for ``spec``.

        An entry serves a request only if it holds what was asked for:
        with ``collect_metrics`` it must carry a snapshot, with
        ``trace_cells`` a snapshot with the ``trace.*`` roll-ups.  A
        plain lookup takes any entry, snapshot or not.  An entry that
        falls short, or cannot be read back, is a miss (None): the cell
        runs again and overwrites it.
        """
        try:
            with open(self._path(spec.cache_key())) as fh:
                entry = json.load(fh)
            stats = MachineStats.from_dict(entry["stats"])
            caps = (entry["caps"] if spec.cache_fraction is not None
                    else None)
            metrics = entry.get("metrics")
            if metrics is None:
                short = collect_metrics or trace_cells
            else:
                short = trace_cells and not any(
                    key.startswith("trace.") for key in metrics["gauges"])
            if not short:
                self.hits += 1
                return stats, metrics, caps
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self.misses += 1
        return None

    def store(self, spec: ExperimentSpec, stats: MachineStats,
              metrics: "dict[str, object] | None" = None,
              caps: "list[int] | None" = None) -> None:
        """Persist one finished cell (atomic, last writer wins)."""
        path = self._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"spec": spec.to_payload(), "stats": stats.to_dict()}
        if metrics is not None:
            entry["metrics"] = metrics
        if caps is not None:
            entry["caps"] = caps
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


class _Scheduler:
    """Runs a batch of specs on a worker pool (or inline); the only
    code that turns a ``cache_fraction`` into page-cache caps.

    A capped cell that misses the cache waits for its SCOMA sibling
    (same workload, preset, config and seed), then runs capped at
    ``cache_fraction`` of the sibling's peak client S-COMA frames at
    each node, at least one.  A sibling the batch lacks runs too,
    unobserved and unreported.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._events: "queue.Queue" = queue.Queue()
        self._outstanding = 0
        #: sibling cache key -> (sibling, [(fraction, then(caps))])
        self._waiting: "dict[str, tuple]" = {}
        self._pool = None
        if session.jobs > 1:
            import multiprocessing

            self._pool = multiprocessing.Pool(session.jobs)

    def run(self, specs):
        """Yield ``(index, spec, stats, metrics, caps, cached, seconds)``
        for every spec, in completion order."""
        try:
            for index, spec in enumerate(specs):
                self._submit(index, spec)
            if self._waiting:
                batch = {spec.cache_key() for spec in specs
                         if spec.policy == "scoma"}
                for key, (sibling, _) in list(self._waiting.items()):
                    if key not in batch:
                        self._submit(None, sibling, observe=False)
            while self._outstanding:
                (tag, spec, stats, metrics, caps,
                 cached, seconds, exc) = self._events.get()
                self._outstanding -= 1
                if exc is not None:
                    raise exc
                if not cached and self._session.cache is not None:
                    self._session.cache.store(spec, stats, metrics, caps)
                if spec.policy == "scoma" and self._waiting:
                    _, waiters = self._waiting.pop(spec.cache_key(),
                                                   (None, ()))
                    for fraction, then in waiters:
                        then([max(1, int(node.scoma_client_frames_peak
                                         * fraction))
                              for node in stats.nodes])
                if tag is not None:
                    yield tag, spec, stats, metrics, caps, cached, seconds
        finally:
            self.close()

    def resolve(self, spec: ExperimentSpec) -> "list[int]":
        """The caps of one capped cell, from its SCOMA sibling (run
        unobserved, or read from the cache)."""
        resolved = []
        self._wait(spec, resolved.append)
        for _ in self.run(()):
            pass
        return resolved[0]

    def _wait(self, spec: ExperimentSpec, then) -> None:
        """Call ``then(caps)`` once ``spec``'s SCOMA sibling is done."""
        sibling = ExperimentSpec(spec.workload, "scoma", preset=spec.preset,
                                 config=spec.config, seed=spec.seed)
        _, waiters = self._waiting.setdefault(sibling.cache_key(),
                                              (sibling, []))
        waiters.append((spec.cache_fraction, then))

    def _submit(self, tag, spec: ExperimentSpec, observe: bool = True) -> None:
        """Schedule one cell; its completion event carries ``tag``
        (None: run for its caps only, unreported)."""
        self._outstanding += 1
        collect = observe and self._session.collect_metrics
        trace = observe and self._session.trace_cells
        cache = self._session.cache
        hit = (cache.load(spec, collect, trace)
               if cache is not None else None)
        if hit is not None:
            self._events.put((tag, spec, *hit, True, 0.0, None))
        elif spec.cache_fraction is None:
            self._dispatch(tag, spec, None, collect, trace)
        else:
            self._wait(spec, lambda caps: self._dispatch(tag, spec, caps,
                                                         collect, trace))

    def _dispatch(self, tag, spec: ExperimentSpec, caps, collect: bool,
                  trace: bool) -> None:
        """Run one cell in-process, or hand it to the pool."""
        def done(out):
            self._events.put((tag, spec, MachineStats.from_dict(out["stats"]),
                              out["metrics"], caps, False, out["seconds"],
                              None))

        def fail(exc):
            self._events.put((tag, spec, None, None, None, False, 0.0, exc))

        args = (spec.to_payload(), caps, collect, trace)
        if self._pool is not None:
            self._pool.apply_async(_worker_run, args, callback=done,
                                   error_callback=fail)
            return
        try:
            out = _worker_run(*args)
        except Exception as exc:                    # noqa: BLE001
            fail(exc)
        else:
            done(out)

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

    ``collect_metrics`` and ``trace_cells`` run every simulated cell
    the way :func:`execute_spec` describes (``trace_cells`` feeds the
    ``repro top`` segment column); the snapshot rides along in the
    result cache, and neither flag changes cache keys or statistics.
    A cached cell serves a session only if its entry holds what the
    session collects; otherwise it runs again and is overwritten.
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
        """Run cells; results match the input order."""
        specs = list(specs)
        if self.progress is not None:
            self.progress.expect(len(specs))
        results: "list[RunResult | None]" = [None] * len(specs)
        for (index, spec, stats, metrics, caps,
             cached, seconds) in _Scheduler(self).run(specs):
            results[index] = RunResult(workload=spec.workload,
                                       policy=spec.policy,
                                       config=spec.resolved_config(),
                                       stats=stats, metrics=metrics,
                                       page_cache_caps=caps)
            if self.progress is not None:
                # The live ``repro top`` view takes each snapshot (a
                # duck-typed hook) before the cell's line.
                hook = getattr(self.progress, "cell_metrics", None)
                if hook is not None and metrics is not None:
                    hook(spec.workload, spec.policy, metrics)
                self.progress.cell_done(spec.workload, spec.policy,
                                        seconds, cached)
        if self.progress is not None and self.cache is not None:
            self.progress.note_cache(self.cache.hits, self.cache.misses)
        return results

    def page_cache_caps(self, spec: ExperimentSpec) -> "list[int] | None":
        """Per-node page-cache caps for :func:`execute_spec` to run with.

        None for an uncapped ``spec``; for callers that build the
        machine themselves."""
        if spec.cache_fraction is None:
            return None
        return _Scheduler(self).resolve(spec)

    def run_workload_suite(self, workload: str, policies=None,
                           preset: str = "default",
                           config: "MachineConfig | None" = None):
        """One workload under a policy set (see :meth:`run_campaign`)."""
        suites = self.run_campaign((workload,), policies=policies,
                                   preset=preset, config=config)
        return suites[workload]

    def run_campaign(self, apps, policies=None, preset: str = "default",
                     config: "MachineConfig | None" = None):
        """Every application's policy suite, as one batch.

        Returns ``{app: SuiteResult}``; every suite holds SCOMA (the
        normalization baseline) first, then ``policies`` in order.
        """
        if policies is None:
            policies = PAPER_POLICIES
        ordered = ["scoma"] + [p for p in policies if p != "scoma"]
        specs = [ExperimentSpec(app, policy, preset=preset, config=config)
                 for app in apps for policy in ordered]
        suites = {app: SuiteResult(workload=app, preset=preset)
                  for app in apps}
        for spec, result in zip(specs, self.run_suite(specs)):
            suite = suites[spec.workload]
            suite.results[spec.policy] = result
            if result.page_cache_caps is not None:
                suite.page_cache_caps = result.page_cache_caps
        return suites
