"""Unit tests for the metrics registry."""

import json

import pytest

from repro import obs
from repro.obs.registry import (LATENCY_BUCKETS_CYCLES, SERIES_MAX_POINTS,
                                Histogram, MetricsRegistry, find_metrics,
                                metric_key, parse_key, quantile)


def test_metric_key_sorts_labels():
    assert metric_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"
    assert metric_key("m", {}) == "m"
    name, labels = parse_key("m{a=1,b=2}")
    assert name == "m"
    assert labels == {"a": "1", "b": "2"}
    assert parse_key("m") == ("m", {})


def test_counter_and_gauge():
    reg = MetricsRegistry()
    reg.counter("hits").inc()
    reg.counter("hits").inc(4)
    reg.gauge("depth").set(7)
    assert reg.counter("hits").value == 5
    assert reg.gauge("depth").value == 7


def test_labeled_families_are_distinct_members():
    reg = MetricsRegistry()
    reg.counter("misses", policy="scoma", level="l2").inc()
    reg.counter("misses", policy="lanuma", level="l2").inc(2)
    snap = reg.to_dict()
    members = find_metrics(snap["counters"], "misses")
    assert members == [({"level": "l2", "policy": "lanuma"}, 2),
                       ({"level": "l2", "policy": "scoma"}, 1)]


def test_histogram_buckets_and_quantiles():
    hist = Histogram(buckets=(1, 2, 4, 8))
    for value in (0, 1, 2, 3, 5, 100):
        hist.observe(value)
    # counts has one extra overflow slot.
    assert hist.counts == [2, 1, 1, 1, 1]
    assert hist.count == 6
    assert hist.sum == 111
    assert hist.quantile(0.0) == 1
    # The overflow observation reports the last finite bound.
    assert hist.quantile(1.0) == 8


def test_default_latency_buckets_are_log2():
    reg = MetricsRegistry()
    hist = reg.histogram("lat")
    assert hist.buckets == LATENCY_BUCKETS_CYCLES
    assert LATENCY_BUCKETS_CYCLES[0] == 1
    assert all(b == 2 * a for a, b in zip(LATENCY_BUCKETS_CYCLES,
                                          LATENCY_BUCKETS_CYCLES[1:]))


def test_series_stride_doubling_bounds_memory():
    reg = MetricsRegistry()
    series = reg.series("util")
    for t in range(10 * SERIES_MAX_POINTS):
        series.sample(t, t / 10.0)
    assert len(series.points) <= SERIES_MAX_POINTS
    assert series.stride > 1
    # Still covers the whole run: first point early, last point late.
    assert series.points[0][0] < SERIES_MAX_POINTS
    assert series.points[-1][0] > 8 * SERIES_MAX_POINTS


def test_snapshot_round_trips_through_json():
    reg = MetricsRegistry()
    reg.counter("c", k="v").inc(3)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(17)
    reg.series("s").sample(5, 0.5)
    snap = json.loads(json.dumps(reg.to_dict(), sort_keys=True))
    back = MetricsRegistry.from_dict(snap)
    assert back.to_dict() == reg.to_dict()
    assert len(back) == len(reg) == 4


def test_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    assert reg.counter("x", a="1") is reg.counter("x", a="1")
    assert reg.counter("x", a="1") is not reg.counter("x", a="2")


def test_quantile_helper_validates_and_handles_empty():
    empty = {"buckets": [1, 2], "counts": [0, 0, 0], "count": 0}
    assert quantile(empty, 0.5) == 0
    with pytest.raises(ValueError):
        quantile(empty, 1.5)
    with pytest.raises(ValueError):
        quantile(empty, -0.1)


def test_find_metrics_without_matches_returns_empty_list():
    reg = MetricsRegistry()
    reg.counter("hits", policy="scoma").inc()
    snap = reg.to_dict()
    assert find_metrics(snap["counters"], "misses") == []
    assert find_metrics({}, "anything") == []
    # Prefixes are not families: "hit" must not match "hits".
    assert find_metrics(snap["counters"], "hit") == []


def test_collecting_installs_and_restores():
    assert obs.current() is None
    given = MetricsRegistry()
    with obs.collecting(given) as reg:
        assert reg is given
        assert obs.current() is reg
        with obs.collecting() as inner:
            assert obs.current() is inner
            assert inner is not reg
        assert obs.current() is reg
    assert obs.current() is None


def test_quantile_edge_cases_are_defined_not_raised():
    # Missing "count" key (series-style partial snapshot): recomputed
    # from counts.
    partial = {"buckets": [1, 2, 4], "counts": [0, 3, 0, 0]}
    assert quantile(partial, 0.5) == 2
    # Single sample: every q reports its one populated bucket.
    single = {"buckets": [1, 2, 4], "counts": [0, 0, 1, 0], "count": 1}
    for q in (0.0, 0.5, 0.99, 1.0):
        assert quantile(single, q) == 4
    # All mass in one bucket behind empty leading buckets: q=0 must not
    # report the empty leading bucket.
    skewed = {"buckets": [1, 2, 4, 8], "counts": [0, 0, 5, 0, 0],
              "count": 5}
    assert quantile(skewed, 0.0) == 4
    assert quantile(skewed, 1.0) == 4
    # Pure-overflow histogram reports the last finite bound.
    overflow = {"buckets": [1, 2], "counts": [0, 0, 3], "count": 3}
    assert quantile(overflow, 0.5) == 2
    # Histogram object path agrees with the snapshot path.
    hist = Histogram(buckets=(1, 2, 4))
    hist.observe(3)
    assert hist.quantile(0.0) == hist.quantile(1.0) == 4


def test_series_quantile_edge_cases():
    from repro.obs import series_quantile

    assert series_quantile([], 0.5) == 0
    assert series_quantile([[10, 7]], 0.0) == 7
    assert series_quantile([[10, 7]], 1.0) == 7
    allequal = [[t, 3] for t in range(5)]
    for q in (0.0, 0.5, 1.0):
        assert series_quantile(allequal, q) == 3
    spread = [[t, v] for t, v in enumerate((5, 1, 9, 3, 7))]
    assert series_quantile(spread, 0.0) == 1
    assert series_quantile(spread, 0.5) == 5
    assert series_quantile(spread, 1.0) == 9
    with pytest.raises(ValueError):
        series_quantile(spread, 2.0)
