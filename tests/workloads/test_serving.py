"""Serving workload family: Zipfian generator properties, kernel
validity, and the serving metrics tap.

The Zipfian properties are the satellite contract: same-seed streams
are byte-identical, raising the skew monotonically concentrates mass
on the hottest ranks, and hot-key churn/drift never leaves the key
space.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.config import MachineConfig, tiny_config
from repro.sim.machine import Machine
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_UNLOCK, OP_WRITE)
from repro.workloads import SERVING_APPLICATIONS, make_workload
from repro.workloads.serving import ZipfianStream, chaos_scenarios
from tests.conftest import expand_op

NUM_CPUS = 8
PAGE = 1024

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)
KEYS = st.integers(min_value=2, max_value=2048)
SKEWS = st.floats(min_value=0.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# ZipfianStream properties.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, num_keys=KEYS, skew=SKEWS,
       churn=st.integers(min_value=0, max_value=64),
       drift=st.integers(min_value=0, max_value=64))
def test_same_seed_streams_identical(seed, num_keys, skew, churn, drift):
    a = ZipfianStream(num_keys, skew=skew, churn_interval=churn,
                      drift=drift, seed=seed)
    b = ZipfianStream(num_keys, skew=skew, churn_interval=churn,
                      drift=drift, seed=seed)
    ka = a.sample(97) + a.sample(31)
    kb = b.sample(97) + b.sample(31)
    assert ka == kb


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, num_keys=KEYS,
       lo=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       delta=st.floats(min_value=0.01, max_value=2.0, allow_nan=False))
def test_skew_monotonically_concentrates_mass(seed, num_keys, lo, delta):
    # Same seed => same uniforms, so a larger skew can only *lower*
    # each draw's rank (the steeper CDF crosses every u earlier) —
    # rank-wise dominance, which implies every top-k mass fraction is
    # monotone in the skew.
    flat = ZipfianStream(num_keys, skew=lo, seed=seed)
    steep = ZipfianStream(num_keys, skew=lo + delta, seed=seed)
    r_flat = flat.ranks(512)
    r_steep = steep.ranks(512)
    assert all(s <= f for s, f in zip(r_steep, r_flat))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, num_keys=KEYS, skew=SKEWS,
       churn=st.integers(min_value=1, max_value=32),
       drift=st.integers(min_value=1, max_value=10 ** 6))
def test_churn_never_emits_out_of_range_keys(seed, num_keys, skew,
                                             churn, drift):
    stream = ZipfianStream(num_keys, skew=skew, churn_interval=churn,
                           drift=drift, seed=seed)
    keys = stream.sample(4 * churn + 7)
    assert min(keys) >= 0
    assert max(keys) < num_keys


def test_churn_actually_rotates_the_hot_set():
    # With an extreme skew nearly every request hits rank 0; drift
    # must still move the *identity* of that hot key across epochs.
    stream = ZipfianStream(128, skew=5.0, churn_interval=16, drift=8,
                           seed=3)
    keys = stream.sample(64)
    epochs = [set(keys[i:i + 16]) for i in range(0, 64, 16)]
    assert any(epochs[0] != later for later in epochs[1:])


def test_zipfian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfianStream(0)
    with pytest.raises(ValueError):
        ZipfianStream(8, skew=-0.5)
    with pytest.raises(ValueError):
        ZipfianStream(8, churn_interval=-1)


# ---------------------------------------------------------------------------
# Kernel validity (mirrors tests/workloads/test_workloads.py).
# ---------------------------------------------------------------------------

def build(app, preset="tiny", num_cpus=NUM_CPUS):
    wl = make_workload(app, preset)
    ipc = GlobalIpcServer(num_nodes=4, page_bytes=PAGE)
    layout = AddressSpaceLayout(ipc, PAGE)
    wl.setup(layout, num_cpus)
    return wl, layout


def collect_ops(wl, cpu_id, num_cpus=NUM_CPUS):
    ops = []
    for op in wl.generator(cpu_id, num_cpus):
        ops.extend(expand_op(op))
    return ops


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_ops_are_wellformed(app):
    wl, layout = build(app)
    legal = {OP_COMPUTE, OP_READ, OP_WRITE, OP_BARRIER, OP_LOCK, OP_UNLOCK}
    for cpu in range(NUM_CPUS):
        for kind, arg in collect_ops(wl, cpu):
            assert kind in legal
            assert isinstance(arg, int)
            if kind in (OP_READ, OP_WRITE):
                assert layout.is_mapped(arg // PAGE)


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_barrier_sequences_identical_across_cpus(app):
    wl, _ = build(app)
    sequences = []
    for cpu in range(NUM_CPUS):
        sequences.append([op[1] for op in collect_ops(wl, cpu)
                          if op[0] == OP_BARRIER])
    for seq in sequences[1:]:
        assert seq == sequences[0]
    assert sequences[0], "%s has no barriers" % app


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_locks_balanced_and_no_barrier_while_locked(app):
    wl, _ = build(app)
    for cpu in range(NUM_CPUS):
        held = set()
        for op in collect_ops(wl, cpu):
            if op[0] == OP_LOCK:
                assert op[1] not in held
                held.add(op[1])
            elif op[0] == OP_UNLOCK:
                assert op[1] in held
                held.remove(op[1])
            elif op[0] == OP_BARRIER:
                assert not held
        assert not held


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_every_cpu_does_shared_work(app):
    wl, layout = build(app)
    for cpu in range(NUM_CPUS):
        shared = sum(1 for op in collect_ops(wl, cpu)
                     if op[0] in (OP_READ, OP_WRITE)
                     and layout.gpage_of(op[1] // PAGE) is not None)
        assert shared > 20, "%s: cpu %d has no shared traffic" % (app, cpu)


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_deterministic(app):
    wl1, _ = build(app)
    wl2, _ = build(app)
    for cpu in (0, NUM_CPUS - 1):
        assert collect_ops(wl1, cpu) == collect_ops(wl2, cpu)


@pytest.mark.parametrize("app", ["txn2pc"])
def test_coalesced_generators_match_their_raw_streams(app):
    # coalesce_stream wrapping must expand back to the raw stream
    # op for op.
    wl, _ = build(app)
    for cpu in (0, NUM_CPUS - 1):
        raw = []
        for op in wl._stream(cpu, NUM_CPUS):
            raw.extend(expand_op(op))
        assert collect_ops(wl, cpu) == raw


def test_kvstore_ops_match_the_request_plan():
    # Every CPU's ops expand to the per-request references built here
    # from the drawn plan: the shard's index line, then the value's
    # lines (read by a get, written by a put); each batch ends in a
    # compute gap and its barrier.  The batch arrays setup builds are
    # the same references.
    wl, _ = build("kvstore")
    nshards, vl = wl.num_shards, wl.value_lines
    for cpu in range(NUM_CPUS):
        expected = []
        for bid, (keys, gets) in enumerate(wl._plans[cpu]):
            batch = []
            for key, get in zip(keys, gets):
                shard = key % nshards
                batch.append((OP_READ, wl.index.addr(shard)))
                value = wl.shards[shard]
                kind = OP_READ if get else OP_WRITE
                batch.extend((kind, value.addr((key // nshards) * vl + i))
                             for i in range(vl))
            addrs, writes = wl._batches[cpu][bid]
            assert [(OP_WRITE if w else OP_READ, a)
                    for a, w in zip(addrs, writes)] == batch
            expected += batch + [(OP_COMPUTE, 40), (OP_BARRIER, bid)]
        assert collect_ops(wl, cpu) == expected


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_presets_scale_down(app):
    tiny, _ = build(app, "tiny")
    serving, _ = build(app, "serving")
    tiny_refs = sum(1 for op in collect_ops(tiny, 0)
                    if op[0] in (OP_READ, OP_WRITE))
    serving_refs = sum(1 for op in collect_ops(serving, 0)
                      if op[0] in (OP_READ, OP_WRITE))
    assert serving_refs > tiny_refs


@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_descriptions_populated(app):
    info = make_workload(app, "tiny").describe()
    assert info["description"]
    assert info["problem"]


# ---------------------------------------------------------------------------
# The serving metrics tap.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_serving_tap_reports_request_latency_and_throughput(app):
    with obs.collecting() as registry:
        machine = Machine(tiny_config(), policy="scoma")
        machine.run(make_workload(app, "tiny"))
    snapshot = registry.to_dict()
    hists = obs.find_metrics(snapshot["histograms"],
                             "serving.request_latency_cycles")
    assert hists, "no request-latency histograms recorded"
    total = sum(h["count"] for _labels, h in hists)
    assert total > 0
    for _labels, hist in hists:
        p50 = obs.quantile(hist, 0.50)
        p99 = obs.quantile(hist, 0.99)
        assert 0 < p50 <= p99
    series = obs.find_metrics(snapshot["series"],
                              "serving.completed_requests")
    assert series
    points = series[0][1]["points"]
    assert points[-1][1] == total, "throughput curve lost requests"
    counters = obs.find_metrics(snapshot["counters"], "serving.requests")
    assert sum(count for _labels, count in counters) == total


def test_kvstore_tap_counts_match_the_plan():
    wl = make_workload("kvstore", "tiny")
    with obs.collecting() as registry:
        Machine(tiny_config(), policy="scoma").run(wl)
    expected = sum(len(keys) for keys, _gets in wl._plans[0]) \
        * len(Machine(tiny_config()).cpus)
    snapshot = registry.to_dict()
    counters = obs.find_metrics(snapshot["counters"], "serving.requests")
    assert sum(count for _labels, count in counters) == expected


def assert_plan_covers_every_reference(machine, workload):
    # The tap ignores accesses past a CPU's plan, so a plan that drifts
    # from the ops would lose requests unnoticed.
    stats = machine.run(workload).stats
    plan = workload.request_plan(len(machine.cpus))
    assert [sum(accesses for _op, accesses in requests)
            for requests in plan] == [cpu.references for cpu in stats.cpus]
    machine.close()


@pytest.mark.parametrize("preset", ["tiny", "small"])
@pytest.mark.parametrize("app", SERVING_APPLICATIONS)
def test_request_plan_covers_every_reference(app, preset):
    assert_plan_covers_every_reference(Machine(MachineConfig()),
                                       make_workload(app, preset))


def test_chaos_request_plan_covers_every_reference():
    scenario = chaos_scenarios()["txn2pc"]
    workload = scenario.make_workload()
    assert workload.use_command_channels
    assert_plan_covers_every_reference(
        Machine(scenario.build_config(), policy=scenario.policy), workload)


def test_no_registry_means_no_tap_and_identical_stats():
    # The bind hook must be inert without a registry: same stats as a
    # run that never had the hook.
    a = Machine(tiny_config(), policy="scoma") \
        .run(make_workload("kvstore", "tiny")).stats.to_dict()
    with obs.collecting():
        b = Machine(tiny_config(), policy="scoma") \
            .run(make_workload("kvstore", "tiny")).stats.to_dict()
    assert a == b


def test_serving_summary_renders_and_is_quiet_without_metrics():
    from repro.obs.metrics import serving_summary
    assert serving_summary({"histograms": {}, "series": {}}) == []
    with obs.collecting() as registry:
        Machine(tiny_config(), policy="scoma") \
            .run(make_workload("txn2pc", "tiny"))
    lines = serving_summary(registry.to_dict())
    assert any("p50" in line and "p99" in line for line in lines)
    assert any("throughput" in line for line in lines)
