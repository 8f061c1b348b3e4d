#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collects module / class / function
docstring summaries, and renders a compact API reference.  Run from the
repository root::

    python tools/gen_api_docs.py > docs/API.md
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def first_line(doc: "str | None") -> str:
    if not doc:
        return ""
    return doc.strip().splitlines()[0].rstrip(".")


def describe_module(path: pathlib.Path) -> "list[str]":
    rel = path.relative_to(SRC.parent)
    module = str(rel.with_suffix("")).replace("/", ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    if module.endswith("__main__"):
        return []
    tree = ast.parse(path.read_text())
    lines = ["## `%s`" % module, ""]
    summary = first_line(ast.get_docstring(tree))
    if summary:
        lines += [summary + ".", ""]
    rows = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            rows.append(("class `%s`" % node.name,
                         first_line(ast.get_docstring(node))))
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    rows.append(("`%s.%s()`" % (node.name, member.name),
                                 first_line(ast.get_docstring(member))))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            rows.append(("`%s()`" % node.name,
                         first_line(ast.get_docstring(node))))
    if rows:
        lines += ["| item | summary |", "|---|---|"]
        lines += ["| %s | %s |" % (item, summary.replace("|", "\\|"))
                  for item, summary in rows]
        lines.append("")
    return lines


#: Hand-authored guide sections rendered ahead of the generated
#: per-module reference.
GUIDE = """\
## Running campaigns in parallel

The evaluation campaign is a grid of (workload, policy) cells; the
`repro.harness.session` module schedules them.  The one dependency is
section 4.2's page-cache cap: SCOMA-70 and the Dyn-* policies cap each
node's page cache at a fraction of the client frames the same run
allocated under SCOMA.  The session's scheduler resolves it for every
job: a capped cell that misses the cache waits for its SCOMA sibling
(taken from the batch, or run unreported when the batch lacks it), and
is scheduled with the per-node caps the moment the sibling lands.

```python
from repro.harness.session import ExperimentSpec, Session

session = Session(jobs=4, cache_dir=".prism-cache")
result = session.run(ExperimentSpec("fft", "scoma-70", preset="small"))
suite  = session.run_workload_suite("fft", preset="small")
suites = session.run_campaign(("fft", "lu"), preset="small")
```

* **`ExperimentSpec`** — a frozen dataclass naming one cell: `workload`,
  `policy`, `preset`, `config` (a `MachineConfig`, or `None` for the
  default), `cache_fraction` (0.7 for a capped policy, `None` for the
  others or for an absolute `config.page_cache_frames` cap) and
  `seed`.  Specs are immutable, content-hashable (`spec.cache_key()`),
  and serialize to plain dicts (`to_payload()` / `from_payload()`) for
  the worker handoff.
* **`Session(jobs=N)`** — `N` worker processes via `multiprocessing`
  (`jobs=1` runs in-process).  Outputs are deterministic: `--jobs 4` is
  byte-identical to `--jobs 1`; only the wall clock changes.
* **Result cache** — `Session(cache_dir=...)` keeps a content-addressed
  on-disk cache at `<dir>/<key[:2]>/<key>.json`, keyed by a stable
  SHA-256 of `(spec, MachineConfig, model source)`, where the model
  source is a digest of `repro/{sim,core,mem,kernel,interconnect,
  workloads}`.  A re-run after a config tweak only recomputes the cells
  whose inputs changed, an edit to the model recomputes them all, and a
  capped cell is served without its SCOMA sibling; consult
  `session.cache_hits` / `session.cache_misses`.
* **Progress** — pass `progress=CampaignProgress()` (from
  `repro.harness.report`) for live per-cell lines and a wall-clock
  summary.
* **CLI** — `python -m repro run|suite|evaluate` accept `--jobs N`,
  `--cache-dir DIR` (default `.prism-cache`) and `--no-cache`.

## Observability

`repro.obs` is the unified observability layer: a metrics registry
(counters, gauges, log-bucket latency histograms, bounded utilization
time series, all organized as labeled families like
`core.protocol_messages{kind=READ_REQ,node=3}`) plus a structured-event
sink with JSONL export.  Both are strictly opt-in.  Install, then
build: `Machine.__init__` makes one call, `repro.obs.attach`, which
registers the installed registry (`repro.obs.metrics`) and trace
collector on the machine's probe points.  The model holds neither: it
fires the points, and every metric comes from a probe or from a
counter the model keeps anyway, rolled up when the run ends.  With
none installed the points stay empty, so the hot path pays no call and
results are byte-identical either way.

```python
from repro import obs

with obs.collecting() as registry:
    machine = Machine(config, policy="scoma")
    machine.run(workload)
snapshot = registry.to_dict()          # JSON-safe, stable key order
```

* **Observed layers** — the simulator (access-latency histograms
  per policy, per-epoch resource-utilization series), the coherence
  core (protocol message mix, fetch latencies, cache-full decisions,
  migrations, PIT fast-lookup ratios), the kernel (fault-service
  timers by fault kind, page-out counters, frame-pool gauges), the
  fault plane (`faults.*`) and the serving workloads (per-request
  latency against each workload's `request_plan`).
* **Campaign telemetry** — `Session(collect_metrics=True)` snapshots a
  fresh registry around every simulated cell; the snapshot lands on
  `RunResult.metrics` and rides along in the result cache (it is *not*
  part of the cache key).  A cached entry serves a session only if it
  holds what the session collects.  `execute_spec` is the one cell
  runner: it builds, observes, runs and closes every harness cell's
  machine, and its `attach` hook takes the observers that need the
  live machine (an event recorder, the barrier invariant walks).  A
  capped cell needs its `caps=` from `session.page_cache_caps(spec)`;
  without them `execute_spec` raises rather than run it uncapped.
  Render with `repro.harness.tables.metrics_table` or
  export with `repro.harness.export.save_metrics` (`metrics.json`).
* **Probe bus** — every observer of a machine registers callables on
  `machine.probes` (`repro.sim.probes`) at a fixed set of points:
  `run`, `access`, `miss`, `upgrade`, `fetch`, `fault`, `cache_full`,
  `pageout`, `send` (wrapped: a probe gets the next callable and
  returns the result, possibly adjusted) and `migrate`, `node_fail`,
  `barrier`, `mark` (events;
  `mark` carries a protocol step's inner intervals to the causal
  tracer).  Probes fire in registration order; with none registered
  the machine runs its plain methods.
* **Structured events** — `repro.obs.events.EventSink`, the one store,
  ring-buffers typed events (`access`, `fault`, `pageout`, `migrate`,
  `node_fail`, `span`, ... per `EVENT_SCHEMA`) with monotonic sequence
  numbers that survive drops; `validate_event()` / `validate_jsonl()`
  check an exported trace end to end (strict: unknown fields and
  non-monotonic sequence numbers are rejected, and spans must be
  causally whole).  `repro.obs.recorder.TraceRecorder` is a set of probes
  that emit into a sink.
* **Causal tracing** — `repro.obs.tracing.TraceCollector` follows each
  coherence transaction end-to-end as a span tree (miss/upgrade/fault
  roots; queue-wait, network-hop, home-service, invalidation-fan-out,
  retransmit children) with deterministic ids and simulated-time
  stamps.  `compute_breakdown` charges every cycle of a transaction to
  exactly one critical-path segment (the per-trace segment cycles sum
  to the transaction latency), roll-ups land in the metrics registry
  as `trace.segment_cycles{segment=...,policy=...}`, and each finished
  transaction's spans go to the collector's `sink` as `span` events,
  exported as JSONL or Chrome/Perfetto `trace_event` JSON.
* **CLI** — `repro trace <workload>` records a traced run, prints the
  campaign-wide latency attribution and the `--top N` slowest
  transactions as span trees, and exports with `--out` / `--chrome`;
  `repro top` runs a campaign under a live terminal dashboard
  (per-cell p50/p99, cache counters, worker utilization, rolling
  critical-path mix); `repro run ... --trace-out FILE` writes a
  schema-valid JSONL event trace and `--metrics-out FILE` a metrics
  snapshot; `repro metrics <workload> --policy P` prints per-policy
  latency histograms and frame-pool occupancy from cached snapshots
  (re-simulating, then caching, cells that lack one) — `--filter
  NAME_GLOB` and `--format json|csv|table` switch to a flat,
  machine-readable per-metric listing; `--metrics` on
  `run`/`suite`/`evaluate` collects snapshots campaign-wide.  The
  end-of-campaign summary line reports result-cache hit/miss counters.

See [OBSERVABILITY.md](OBSERVABILITY.md) for the full tour — metrics,
events and tracing side by side, with a worked Perfetto export.

## Verification

`repro.verify` is the protocol conformance subsystem: a litmus-test DSL
with ~18 bundled tests (message-passing, store-buffer, IRIW, sibling
sharing, migration and pageout races across S-COMA / LA-NUMA /
CC-NUMA), a bounded schedule explorer plus a seeded randomized fuzzer
with automatic shrinking, a per-location sequential-consistency checker
over recorded read/write values, and mutation self-tests that prove the
whole stack is non-vacuous.  Run it with `repro verify [--suite litmus]
[--fuzz N --seed S] [--test NAME]`, or turn on machine-wide invariant
walks at every barrier with `repro run ... --check-invariants`.  See
[VERIFICATION.md](VERIFICATION.md) for the DSL, the checker's soundness
argument and extension recipes.

## Faults & chaos

`repro.faults` is the fault-injection and resilience subsystem: a
declarative `FaultPlan` DSL (drop / duplicate / delay / reorder message
classes with a probability inside a simulated-time window, pause and
resume nodes, partition links, hard-fail a node at a chosen cycle), a
deterministic seeded `FaultInjector` that applies the plan at every
network delivery, and the recovery machinery the protocol needs to
survive it — per-request timeouts with bounded exponential-backoff
retransmission (`RetryPolicy`), per-link sequence numbers with
receiver-side duplicate suppression, and graceful degradation that
prunes a hard-failed node from directory sharer lists and PIT
forwarding hints so survivors fail fast with
`UnreachableNodeError` instead of hanging.  `ChaosCampaign` samples
plans from one seed and runs the litmus suite under them through the
same driver as `repro verify` (`repro.verify.runner.run_litmus`, handed
the injector); every run must complete sequentially consistent or fail
cleanly
(`NodeFailedError`) — never hang (simulated-time deadline), never
silently corrupt (SC checker).  Without an injector neither a hop
nor a scheduler turn tests for the fault plane, and results are
byte-identical.  Run it with
`repro chaos --seed S [--rounds N] [--plan FILE] [--no-retry]`; all
injector activity surfaces as `faults.*` counters and `fault_inject` /
`node_fail` structured events.  See [FAULTS.md](FAULTS.md) for the
fault model, the plan JSON format and the verdict taxonomy.

## Performance

The reference path is aggressively optimised but every fast path is
required to leave simulated results byte-identical; see
[PERFORMANCE.md](PERFORMANCE.md) for the hot-path design rules, the
`bench/` benchmark, the CI gates on its exact per-layer call counts
and on a wall-clock floor, and a cProfile recipe for single cells.
Workload generators can compress constant-stride reference sequences
into run ops (`OP_RUN`, whose store flags let one run mix loads and
stores) via `SharedArray.read_run`/`write_run` or
`repro.workloads.base.coalesce`.
"""


def main() -> int:
    out = ["# API reference",
           "",
           "Generated from docstrings by `tools/gen_api_docs.py`;",
           "regenerate after changing the public API.",
           "",
           GUIDE]
    for path in sorted(SRC.rglob("*.py")):
        out += describe_module(path)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
