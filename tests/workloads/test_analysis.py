"""Tests for the workload profiler — and via it, assertions about each
kernel's memory-system character."""

import pytest

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import APPLICATIONS, make_workload
from repro.workloads.analysis import profile_workload
from repro.workloads.synthetic import SyntheticWorkload

NUM_CPUS = 8


def profile(app, **kw):
    return profile_workload(make_workload(app, "tiny"),
                            num_cpus=NUM_CPUS, **kw)


def test_counts_are_consistent():
    p = profile("fft")
    assert p.reads + p.writes == p.references
    assert p.shared_refs + p.private_refs == p.references
    assert p.min_cpu_refs <= p.max_cpu_refs


def test_fft_is_shared_heavy_and_balanced():
    p = profile("fft")
    assert p.shared_fraction > 0.4
    assert p.imbalance < 1.5
    assert p.barriers == 6  # the six steps


def test_radix_writes_shared_pages_from_many_cpus():
    p = profile("radix")
    # The scatter makes destination pages written by many CPUs.
    assert p.write_shared_pages > 0
    assert p.avg_sharing_degree > 2.0


def test_lu_is_all_shared():
    p = profile("lu")
    assert p.private_refs == 0
    assert p.shared_fraction == 1.0


def test_water_uses_locks_ocean_does_not():
    assert profile("water-nsq").lock_acquires > 0
    assert profile("barnes").lock_acquires > 0
    assert profile("ocean").lock_acquires == 0


def test_ocean_neighbour_sharing_is_narrow():
    p = profile("ocean")
    # Stencil halos: most grid pages touched by only 1-2 CPUs.
    narrow = sum(count for degree, count in p.sharing_histogram.items()
                 if degree <= 2)
    assert narrow > sum(p.sharing_histogram.values()) / 2


def test_synthetic_block_is_unshared():
    wl = SyntheticWorkload("block", shared_kb=32,
                           refs_per_cpu_per_iter=100, iterations=1)
    p = profile_workload(wl, num_cpus=NUM_CPUS)
    assert p.avg_sharing_degree == 1.0
    assert p.write_shared_pages == 0


def test_synthetic_migratory_is_fully_shared():
    wl = SyntheticWorkload("migratory", shared_kb=32,
                           refs_per_cpu_per_iter=100, iterations=NUM_CPUS)
    p = profile_workload(wl, num_cpus=NUM_CPUS)
    assert p.avg_sharing_degree == pytest.approx(NUM_CPUS)
    assert p.write_shared_pages == p.shared_pages


def test_summary_keys():
    summary = profile("mp3d").summary()
    for key in ("references", "shared_fraction", "avg_sharing_degree",
                "imbalance", "barriers"):
        assert key in summary


@pytest.mark.parametrize("app", APPLICATIONS)
def test_profile_counts_every_simulated_reference(app):
    # Every reference of a run op counts, each with its own store flag:
    # the profile's mix is the one the machine executes.
    config = MachineConfig()
    p = profile_workload(make_workload(app, "tiny"),
                         num_cpus=config.num_nodes * config.cpus_per_node)
    machine = Machine(config, policy="scoma")
    try:
        cpus = machine.run(make_workload(app, "tiny")).stats.cpus
    finally:
        machine.close()
    assert (p.reads, p.writes) == (sum(c.reads for c in cpus),
                                   sum(c.writes for c in cpus))
