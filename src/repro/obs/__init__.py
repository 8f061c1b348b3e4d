"""``repro.obs``: the unified observability layer.

Three substrates, all strictly opt-in:

* **Metrics** (:mod:`repro.obs.registry`) — counters, gauges,
  log-bucket histograms and bounded time series, organized as labeled
  families in a :class:`MetricsRegistry`;
* **Events** (:mod:`repro.obs.events`) — a typed, ordered, ring-buffered
  structured-event sink with JSONL export and schema validation: the
  one store and the one validator;
* **Causal tracing** (:mod:`repro.obs.tracing`) — span trees following
  each coherence transaction end to end, with deterministic ids, an
  exact critical-path latency breakdown, and JSONL (as ``span``
  events in an event sink) / Chrome trace export.

Install, then build: :func:`collecting` installs a registry for the
duration of a ``with`` block, and ``Machine.__init__`` calls
:func:`attach` once, registering the installed registry
(:mod:`repro.obs.metrics`) and trace collector on its probe points.
An observer installed later records nothing of that machine's run,
and with none installed no probe is registered::

    from repro import obs

    with obs.collecting() as registry:
        machine = Machine(config, policy="scoma")
        machine.run(workload)
    snapshot = registry.to_dict()

The campaign harness does this around each cell of a
``Session(collect_metrics=True)``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.events import (EVENT_SCHEMA, EventSink, validate_event,
                              validate_jsonl)
from repro.obs.registry import (LATENCY_BUCKETS_CYCLES,
                                TIME_BUCKETS_SECONDS, Counter, Gauge,
                                Histogram, MetricsRegistry, Series,
                                find_metrics, metric_key, parse_key,
                                quantile)

__all__ = [
    "EVENT_SCHEMA", "EventSink", "LATENCY_BUCKETS_CYCLES",
    "TIME_BUCKETS_SECONDS", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "Series", "attach", "collecting", "current",
    "find_metrics", "metric_key", "parse_key", "quantile",
    "validate_event", "validate_jsonl",
]

#: The process-wide registry, or None (observability disabled).
_REGISTRY: "MetricsRegistry | None" = None


def current() -> "MetricsRegistry | None":
    """The installed registry, or None."""
    return _REGISTRY


def attach(machine) -> None:
    """Register the installed registry and collector on a machine."""
    registry, collector = _REGISTRY, tracing.current()
    if registry is not None:
        metrics.attach(registry, machine)
    if collector is not None:
        collector.attach(machine)


@contextmanager
def collecting(registry: "MetricsRegistry | None" = None):
    """Install a registry for the duration of a ``with`` block.

    Yields the registry (a fresh one unless given) and restores the
    previously installed registry — if any — on exit.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = previous


# Imported last: the collector reads the installed registry from here.
from repro.obs import metrics, tracing  # noqa: E402
