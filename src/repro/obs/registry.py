"""Process-wide metrics registry: counters, gauges, histograms, series.

A :class:`MetricsRegistry` is a flat namespace of metric *families*: a
family is a metric name plus a set of labels (``misses{policy=scoma,
level=l2}``).  Four metric kinds cover the simulator's needs:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-write-wins instantaneous values (occupancy);
* :class:`Histogram` — fixed log-scale buckets for latency
  distributions (cycles or seconds);
* :class:`Series` — bounded ``(time, value)`` samples for per-epoch
  utilization curves (stride-doubling keeps memory bounded while
  preserving the whole run's shape).

Snapshots (:meth:`MetricsRegistry.to_dict`) are plain JSON-safe dicts
keyed by ``name{label=value,...}`` strings with sorted labels, so they
hash and diff stably; ``repro metrics``, ``repro top`` and the campaign
reports read them as they are, with :func:`find_metrics` and
:func:`quantile`.

Instrumented code takes its metric handles from ``machine.registry``
once, when it is built; with no registry installed that is ``None``,
and each site pays one ``None`` test.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default latency buckets (cycles): log2 scale from 1 to 64Ki.  Covers
#: L1 hits (1-2 cy) through contended multi-party faults (tens of
#: thousands of cycles).
LATENCY_BUCKETS_CYCLES = tuple(1 << i for i in range(17))

#: Default wall-clock buckets (seconds): log2 scale from 1 ms to ~2 min.
TIME_BUCKETS_SECONDS = tuple(0.001 * (1 << i) for i in range(18))

#: Snapshot schema version (bump on incompatible layout changes).
SNAPSHOT_SCHEMA = 1

#: Series capacity before stride-doubling kicks in.
SERIES_MAX_POINTS = 2048


def metric_key(name: str, labels: "dict[str, object]") -> str:
    """Canonical family key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    body = ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))
    return "%s{%s}" % (name, body)


def parse_key(key: str) -> "tuple[str, dict[str, str]]":
    """Invert :func:`metric_key` (label values come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    labels: "dict[str, str]" = {}
    for pair in body[:-1].split(","):
        if pair:
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        self.value += amount


class Gauge:
    """An instantaneous value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus overflow).

    ``buckets`` are inclusive upper bounds in ascending order; an
    observation larger than the last bound lands in the overflow slot,
    so ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets=LATENCY_BUCKETS_CYCLES) -> None:
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets) or not self.buckets:
            raise ValueError("buckets must be non-empty and ascending")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class Series:
    """A bounded time series of ``(time, value)`` samples.

    When :data:`SERIES_MAX_POINTS` is reached, every other retained
    point is discarded and the sampling stride doubles — the series
    keeps covering the whole run at progressively coarser resolution
    instead of silently truncating the tail.
    """

    __slots__ = ("points", "stride", "_skip")

    def __init__(self) -> None:
        self.points: "list[list]" = []
        self.stride = 1
        self._skip = 0

    def sample(self, time, value) -> None:
        """Record one sample (subject to the current stride)."""
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.points.append([time, value])
        if len(self.points) >= SERIES_MAX_POINTS:
            self.points = self.points[::2]
            self.stride *= 2


class MetricsRegistry:
    """A namespace of labeled metric families.

    The accessors are get-or-create: ``registry.counter("x", mode="a")``
    returns the same :class:`Counter` on every call with the same name
    and labels.
    """

    def __init__(self) -> None:
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}
        self._series: "dict[str, Series]" = {}

    # -- family accessors ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """The counter family member for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge family member for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        """The histogram family member for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                buckets if buckets is not None else LATENCY_BUCKETS_CYCLES)
        return metric

    def series(self, name: str, **labels) -> Series:
        """The time-series family member for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        metric = self._series.get(key)
        if metric is None:
            metric = self._series[key] = Series()
        return metric

    # -- snapshots -------------------------------------------------------

    def to_dict(self) -> "dict[str, object]":
        """JSON-safe snapshot of every metric (stable key order after a
        ``sort_keys`` dump)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {
                k: {"buckets": list(h.buckets), "counts": list(h.counts),
                    "sum": h.sum, "count": h.count}
                for k, h in self._histograms.items()},
            "series": {k: {"stride": s.stride,
                           "points": [list(p) for p in s.points]}
                       for k, s in self._series.items()},
        }

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._series))


# ---------------------------------------------------------------------------
# Snapshot helpers (operate on to_dict() output, no registry needed).
# ---------------------------------------------------------------------------

def find_metrics(section: "dict[str, object]",
                 name: str) -> "list[tuple[dict[str, str], object]]":
    """All ``(labels, value)`` members of family ``name`` in a snapshot
    section (``snapshot["counters"]``, ``snapshot["histograms"]``...)."""
    out = []
    for key, value in sorted(section.items()):
        base, labels = parse_key(key)
        if base == name:
            out.append((labels, value))
    return out


def quantile(hist: "dict[str, object]", q: float):
    """Approximate q-quantile of a snapshot histogram dict.

    Returns the upper bound of the bucket containing the quantile (the
    conventional upper-bound estimate for fixed-bucket histograms), or
    0 for an empty histogram.  Overflow observations report the last
    bound (a floor, flagged nowhere — keep an eye on the overflow
    count when it matters).

    Every edge is defined rather than raised: a missing ``count`` key
    is recomputed from ``counts`` (series-style partial snapshots), an
    empty histogram reports 0 at every q, and the rank is floored at
    one sample so a single-sample (or all-equal) histogram reports its
    one populated bucket at every q — including q=0 with empty leading
    buckets.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got %r" % q)
    counts = hist.get("counts") or ()
    total = hist.get("count")
    if total is None:
        total = sum(counts)
    if not total:
        return 0
    rank = q * total
    if rank < 1:
        rank = 1
    seen = 0
    buckets = hist["buckets"]
    for bound, count in zip(buckets, counts):
        seen += count
        if seen >= rank:
            return bound
    return buckets[-1]

