"""Validity tests for all application kernels.

Every workload must: emit only legal ops at legal addresses, hit the
same barriers in the same order on every CPU, balance lock/unlock
pairs, and be deterministic.
"""

import pytest

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_UNLOCK, OP_WRITE)
from repro.workloads import APPLICATIONS, make_workload
from tests.conftest import expand_op

NUM_CPUS = 8
PAGE = 1024


def build(app, preset="tiny"):
    wl = make_workload(app, preset)
    ipc = GlobalIpcServer(num_nodes=4, page_bytes=PAGE)
    layout = AddressSpaceLayout(ipc, PAGE)
    wl.setup(layout, NUM_CPUS)
    return wl, layout


def collect_ops(wl, cpu_id):
    # Expand block run ops so every op is a single (kind, arg) pair.
    ops = []
    for op in wl.generator(cpu_id, NUM_CPUS):
        ops.extend(expand_op(op))
    return ops


@pytest.mark.parametrize("app", APPLICATIONS)
def test_ops_are_wellformed(app):
    wl, layout = build(app)
    legal = {OP_COMPUTE, OP_READ, OP_WRITE, OP_BARRIER, OP_LOCK, OP_UNLOCK}
    for cpu in range(NUM_CPUS):
        for op in collect_ops(wl, cpu):
            assert isinstance(op, tuple) and len(op) == 2
            kind, arg = op
            assert kind in legal
            assert isinstance(arg, int)
            if kind in (OP_READ, OP_WRITE):
                assert layout.is_mapped(arg // PAGE), \
                    "%s: unmapped address %d" % (app, arg)
            if kind == OP_COMPUTE:
                assert arg >= 0


@pytest.mark.parametrize("app", APPLICATIONS)
def test_barrier_sequences_identical_across_cpus(app):
    wl, _ = build(app)
    sequences = []
    for cpu in range(NUM_CPUS):
        seq = [op[1] for op in collect_ops(wl, cpu) if op[0] == OP_BARRIER]
        sequences.append(seq)
    for seq in sequences[1:]:
        assert seq == sequences[0]
    assert sequences[0], "%s has no barriers" % app


@pytest.mark.parametrize("app", APPLICATIONS)
def test_locks_balanced_and_nested_correctly(app):
    wl, _ = build(app)
    for cpu in range(NUM_CPUS):
        held = set()
        for op in collect_ops(wl, cpu):
            if op[0] == OP_LOCK:
                assert op[1] not in held, "recursive lock"
                held.add(op[1])
            elif op[0] == OP_UNLOCK:
                assert op[1] in held, "unlock of unheld lock"
                held.remove(op[1])
            elif op[0] == OP_BARRIER:
                assert not held, "%s: barrier while holding a lock" % app
        assert not held, "%s: cpu %d ends holding %r" % (app, cpu, held)


@pytest.mark.parametrize("app", APPLICATIONS)
def test_every_cpu_does_work(app):
    wl, _ = build(app)
    for cpu in range(NUM_CPUS):
        refs = sum(1 for op in collect_ops(wl, cpu)
                   if op[0] in (OP_READ, OP_WRITE))
        assert refs > 0, "%s: cpu %d performs no references" % (app, cpu)


@pytest.mark.parametrize("app", APPLICATIONS)
def test_deterministic(app):
    wl1, _ = build(app)
    wl2, _ = build(app)
    for cpu in (0, NUM_CPUS - 1):
        assert collect_ops(wl1, cpu) == collect_ops(wl2, cpu)


@pytest.mark.parametrize("app", APPLICATIONS)
def test_shared_traffic_exists(app):
    """Each kernel must actually exercise globally shared memory."""
    wl, layout = build(app)
    shared_refs = 0
    for cpu in range(NUM_CPUS):
        for op in collect_ops(wl, cpu):
            if op[0] in (OP_READ, OP_WRITE):
                if layout.gpage_of(op[1] // PAGE) is not None:
                    shared_refs += 1
    assert shared_refs > 100


@pytest.mark.parametrize("app", APPLICATIONS)
def test_presets_scale_down(app):
    tiny, _ = build(app, "tiny")
    small, _ = build(app, "small")
    tiny_refs = sum(1 for op in collect_ops(tiny, 0)
                    if op[0] in (OP_READ, OP_WRITE))
    small_refs = sum(1 for op in collect_ops(small, 0)
                     if op[0] in (OP_READ, OP_WRITE))
    assert small_refs > tiny_refs


def test_make_workload_rejects_unknown():
    with pytest.raises(ValueError):
        make_workload("sorbet")
    with pytest.raises(ValueError):
        make_workload("fft", "enormous")


def test_descriptions_populated():
    for app in APPLICATIONS:
        wl = make_workload(app, "tiny")
        info = wl.describe()
        assert info["description"]
        assert info["paper_problem"]
        assert info["problem"]


def test_coalesce_stream_expands_to_exact_input():
    from repro.sim.ops import OP_RUN
    from repro.workloads.base import coalesce_stream
    from tests.conftest import run_flags

    stream = [
        (OP_READ, 0), (OP_READ, 32), (OP_READ, 64),      # stride-32 run
        (OP_WRITE, 96),                                  # a store joins it
        (OP_COMPUTE, 10),                                # flushes
        (OP_READ, 200), (OP_READ, 100),                  # negative stride
        (OP_BARRIER, 0),
        (OP_LOCK, 1), (OP_WRITE, 0), (OP_WRITE, 64),     # stride jump
        (OP_WRITE, 128), (OP_UNLOCK, 1),
        (OP_READ, 500),                                  # trailing single
    ]
    out = list(coalesce_stream(iter(stream)))
    # Runs actually formed where strides were constant...
    fused = [run_flags(op) for op in out]
    assert (OP_RUN, 0, 32, 4, b"\0\0\0\1") in fused
    assert (OP_RUN, 0, 64, 3, b"\1\1\1") in fused
    assert (OP_READ, 500) in fused
    # ...and the expansion is op-for-op identical to the input.
    expanded = []
    for op in out:
        expanded.extend(expand_op(op))
    assert expanded == stream


@pytest.mark.parametrize("app",
                         ["ocean", "radix", "water-nsq", "water-spa",
                          "mp3d", "barnes"])
def test_coalesced_generators_match_their_raw_streams(app):
    # The kernels wrap their raw per-reference streams in
    # coalesce_stream; the wrapped generator must expand back to the
    # raw stream exactly (same kinds, addresses, order).
    wl, _layout = build(app)
    assert hasattr(wl, "_stream"), "%s lost its raw stream" % app
    for cpu in (0, NUM_CPUS - 1):
        raw = []
        for op in wl._stream(cpu, NUM_CPUS):
            raw.extend(expand_op(op))
        assert collect_ops(wl, cpu) == raw
