"""Robustness: the machine stays coherent and sensible across
geometries far from the default (line size, page size, node counts,
asymmetric caches)."""

from dataclasses import replace

import pytest

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.invariants import check_machine
from repro.sim.machine import Machine
from repro.workloads import make_workload
from repro.workloads.synthetic import SyntheticWorkload

GEOMETRIES = {
    "wide-lines": MachineConfig(
        num_nodes=2, cpus_per_node=2, page_bytes=512, line_bytes=64,
        l1=CacheConfig(512, 64, 2), l2=CacheConfig(1024, 64, 2),
        tlb_entries=8, directory_cache_entries=32),
    "tiny-pages": MachineConfig(
        num_nodes=2, cpus_per_node=2, page_bytes=128, line_bytes=32,
        l1=CacheConfig(256, 32, 2), l2=CacheConfig(512, 32, 2),
        tlb_entries=8, directory_cache_entries=32),
    "many-nodes": MachineConfig(
        num_nodes=8, cpus_per_node=1, page_bytes=256, line_bytes=32,
        l1=CacheConfig(256, 32, 2), l2=CacheConfig(512, 32, 2),
        tlb_entries=8, directory_cache_entries=32),
    "direct-mapped-l1": MachineConfig(
        num_nodes=2, cpus_per_node=2, page_bytes=256, line_bytes=32,
        l1=CacheConfig(256, 32, 1), l2=CacheConfig(1024, 32, 4),
        tlb_entries=8, directory_cache_entries=32),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("policy", ("scoma", "lanuma", "dyn-lru"))
def test_geometry(name, policy):
    cfg = GEOMETRIES[name]
    cap = 4 if policy == "dyn-lru" else None
    machine = Machine(
        replace(cfg, page_cache_frames=cap) if cap else cfg, policy=policy)
    result = machine.run(make_workload("water-spa", "tiny"))
    assert result.stats.execution_cycles > 0
    assert check_machine(machine) == []


@pytest.mark.parametrize("seed", (1, 7, 99))
def test_workload_seeds(seed):
    cfg = GEOMETRIES["many-nodes"]
    machine = Machine(cfg, policy="scoma")
    wl = SyntheticWorkload("random", shared_kb=16,
                           refs_per_cpu_per_iter=200, iterations=2,
                           seed=seed)
    machine.run(wl)
    assert check_machine(machine) == []


def test_single_cpu_machine_still_works():
    cfg = MachineConfig(
        num_nodes=1, cpus_per_node=1, page_bytes=256, line_bytes=32,
        l1=CacheConfig(256, 32, 2), l2=CacheConfig(512, 32, 2),
        tlb_entries=8, directory_cache_entries=16)
    machine = Machine(cfg, policy="scoma")
    result = machine.run(make_workload("lu", "tiny"))
    # Everything is home-local: no remote traffic at all.
    assert result.stats.remote_misses == 0
    assert check_machine(machine) == []


def test_scoma_stays_best_on_alternate_geometry():
    cfg = GEOMETRIES["many-nodes"]
    results = {}
    for policy in ("scoma", "lanuma"):
        machine = Machine(cfg, policy=policy)
        results[policy] = machine.run(
            make_workload("lu", "tiny")).stats.execution_cycles
    assert results["scoma"] <= results["lanuma"]
