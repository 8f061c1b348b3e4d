"""Tests for the synthetic workload generator."""

import tracemalloc

import pytest

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.invariants import check_machine
from repro.sim.ops import OP_BARRIER, OP_READ, OP_WRITE
from repro.workloads.base import coalesce
from repro.workloads.synthetic import PATTERNS, SyntheticWorkload
from tests.conftest import expand_op

NUM_CPUS = 8


def expanded(ops):
    """Expand block run ops back to single references for inspection."""
    for op in ops:
        for single in expand_op(op):
            yield single


def build(pattern, **kw):
    wl = SyntheticWorkload(pattern, shared_kb=32,
                           refs_per_cpu_per_iter=200, iterations=2, **kw)
    ipc = GlobalIpcServer(4, 1024)
    layout = AddressSpaceLayout(ipc, 1024)
    wl.setup(layout, NUM_CPUS)
    return wl, layout


@pytest.mark.parametrize("pattern", PATTERNS)
def test_patterns_emit_valid_ops(pattern):
    wl, layout = build(pattern)
    for cpu in range(NUM_CPUS):
        refs = 0
        for op in expanded(wl.generator(cpu, NUM_CPUS)):
            if op[0] in (OP_READ, OP_WRITE):
                refs += 1
                assert layout.is_mapped(op[1] // 1024)
        assert refs > 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_patterns_barrier_aligned(pattern):
    wl, _ = build(pattern)
    seqs = []
    for cpu in range(NUM_CPUS):
        seqs.append([op[1] for op in wl.generator(cpu, NUM_CPUS)
                     if op[0] == OP_BARRIER])
    assert all(seq == seqs[0] for seq in seqs)


def test_block_pattern_stays_in_own_block():
    wl, _ = build("block")
    per_cpu_lines = wl.num_lines // NUM_CPUS
    for cpu in (0, 3, NUM_CPUS - 1):
        base = wl.array.vbase + cpu * per_cpu_lines * 32
        end = base + per_cpu_lines * 32
        for op in expanded(wl.generator(cpu, NUM_CPUS)):
            if op[0] in (OP_READ, OP_WRITE):
                assert base <= op[1] < end


def test_producer_consumer_alternates():
    wl, _ = build("producer_consumer")
    ops = list(expanded(wl.generator(2, NUM_CPUS)))
    phases = []
    current = []
    for op in ops:
        if op[0] == OP_BARRIER:
            phases.append(current)
            current = []
        elif op[0] in (OP_READ, OP_WRITE):
            current.append(op)
    assert all(op[0] == OP_WRITE for op in phases[0])   # produce
    assert all(op[0] == OP_READ for op in phases[1])    # consume
    # The consume phase reads the *upstream* CPU's block.
    per_cpu_lines = wl.num_lines // NUM_CPUS
    upstream_base = wl.array.vbase + 1 * per_cpu_lines * 32
    assert phases[1][0][1] == upstream_base


def test_migratory_rotates_ownership():
    wl, _ = build("migratory")
    first_iter_lines = set()
    for op in expanded(wl.generator(0, NUM_CPUS)):
        if op[0] in (OP_READ, OP_WRITE):
            first_iter_lines.add(op[1])
        if op[0] == OP_BARRIER:
            break
    second_iter_lines = set()
    seen_barrier = False
    for op in expanded(wl.generator(0, NUM_CPUS)):
        if op[0] == OP_BARRIER:
            if seen_barrier:
                break
            seen_barrier = True
        elif seen_barrier and op[0] in (OP_READ, OP_WRITE):
            second_iter_lines.add(op[1])
    assert first_iter_lines.isdisjoint(second_iter_lines)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SyntheticWorkload("zigzag")
    with pytest.raises(ValueError):
        SyntheticWorkload("block", sweep_fraction=0.0)
    with pytest.raises(ValueError):
        SyntheticWorkload("block", write_fraction=1.5)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_runs_coherently_on_a_machine(pattern):
    cfg = MachineConfig(num_nodes=2, cpus_per_node=2)
    machine = Machine(cfg, policy="dyn-lru",
                      page_cache_override=[4, 4])
    wl = SyntheticWorkload(pattern, shared_kb=16,
                           refs_per_cpu_per_iter=150, iterations=2)
    result = machine.run(wl)
    assert result.stats.references > 0
    assert check_machine(machine) == []


def test_op_streams_stay_bounded_on_the_paper_geometry():
    # hot-32x8's workload on 32 x 8 CPUs, no simulation: setup plus the
    # first op of every CPU.  setup keeps only the seeded draws (write
    # flags as bytes), and each generator builds its sweep's ops from
    # them one chunk at a time, with no per-reference list.
    # Measured: 3.0 MiB; 7.0 MiB when each generator first built its
    # iteration's addresses as an array('q') (or as numpy arrays), and
    # 29.9 MiB when setup built every iteration's line indices and each
    # generator a whole iteration's op tuples.
    num_cpus = 256
    wl = SyntheticWorkload("block", shared_kb=256,
                           refs_per_cpu_per_iter=2000, iterations=2, seed=0)
    layout = AddressSpaceLayout(GlobalIpcServer(32, 4096), 4096)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wl.setup(layout, num_cpus)
        gens = [wl.generator(cpu, num_cpus) for cpu in range(num_cpus)]
        for gen in gens:
            next(gen)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 5 * 2 ** 20, "%.1f MiB" % (grown / 2 ** 20)


@pytest.mark.parametrize("imbalance", [0.0, 0.6, 2.5])
@pytest.mark.parametrize("sweep_fraction, refs", [
    (1.0, 256),     # span 128: two whole laps
    (1.0, 200),     # a lap and a part
    (1.0, 129),     # a lap and a lone reference
    (0.5, 192),     # span 64: three whole laps
    (0.39, 101),    # span 49
    (0.05, 20),     # span 6
    (0.01, 9),      # span 1: one stride-0 run
])
def test_block_sweep_expands_like_coalesce(imbalance, sweep_fraction,
                                           refs):
    # The sweep's ops come straight from the write flags, one run per
    # lap; they must be the ops coalesce fuses from the per-reference
    # addresses, and expand to those references.
    wl = SyntheticWorkload("block", shared_kb=32,
                           sweep_fraction=sweep_fraction,
                           refs_per_cpu_per_iter=refs, iterations=2,
                           imbalance=imbalance, write_fraction=0.4)
    wl.setup(AddressSpaceLayout(GlobalIpcServer(4, 1024), 1024), NUM_CPUS)
    span = wl._span()
    per_cpu = wl.num_lines // NUM_CPUS
    for cpu in range(NUM_CPUS):
        for it, (offsets, writes) in enumerate(wl._draws[cpu]):
            assert offsets is None and isinstance(writes, bytes)
            addrs = [wl.array.addr(cpu * per_cpu + i % span)
                     for i in range(len(writes))]
            ops = [op for chunk in wl._plan_block(cpu, it, None, writes)
                   for op in chunk]
            assert ops == [op for chunk in coalesce(addrs, writes)
                           for op in chunk]
            assert list(expanded(ops)) == [(OP_WRITE if w else OP_READ, a)
                                           for a, w in zip(addrs, writes)]


def test_hot_32x8_pass_is_one_op_per_lap():
    # The benchmark's hot-32x8 pass: 256 CPUs sweep 32-line blocks,
    # 2000 references an iteration, two iterations.  Each CPU's
    # iteration is 63 laps (the last of 16 references), a compute and
    # a barrier: 256 * 2 * 65 ops for 1,024,000 references.
    num_cpus = 256
    wl = SyntheticWorkload("block", shared_kb=256,
                           refs_per_cpu_per_iter=2000, iterations=2, seed=0)
    wl.setup(AddressSpaceLayout(GlobalIpcServer(32, 4096), 4096), num_cpus)
    ops = refs = 0
    for cpu in range(num_cpus):
        for op in wl.generator(cpu, num_cpus):
            ops += 1
            refs += sum(single[0] in (OP_READ, OP_WRITE)
                        for single in expand_op(op))
    assert refs == 1_024_000
    assert ops == 33_280
