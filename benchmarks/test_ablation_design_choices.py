"""Ablations for the design choices DESIGN.md calls out.

* home-page-status flags (section 3.3 optimization): cheaper repeat
  faults under a paging-heavy policy;
* lazy home migration (section 3.5): a migratory synthetic workload
  where chasing the hot requester pays;
* CC-NUMA extension mode vs LA-NUMA (section 3.2 / 4.3): the measured
  cost of the extra PIT translation layer;
* directory-cached client frame numbers (section 4.3 mitigation): the
  invalidation path's hash search replaced by the fast PIT path.
"""

from dataclasses import replace

import pytest

from repro.sim.config import MachineConfig
from repro.sim.latency import LatencyModel
from repro.sim.machine import Machine
from repro.workloads.synthetic import SyntheticWorkload

from conftest import run_spec


def test_home_status_flag_benefit(benchmark):
    """Repeat client faults skip the home round-trip when flags are on;
    a thrashing SCOMA-70-style run re-faults constantly."""
    def pair():
        results = {}
        for flag in (False, True):
            cfg = MachineConfig(home_status_flags=flag)
            results[flag] = run_spec("water-nsq", "scoma-70", config=cfg,
                                     cache_fraction=0.4)
        return results

    results = benchmark.pedantic(pair, rounds=1, iterations=1)
    off = results[False].stats
    on = results[True].stats
    print("\nhome-status flags off: %d cycles (%d remote-home faults)"
          % (off.execution_cycles,
             sum(n.page_faults_remote_home for n in off.nodes)))
    print("home-status flags on:  %d cycles (%d remote-home faults)"
          % (on.execution_cycles,
             sum(n.page_faults_remote_home for n in on.nodes)))
    assert (sum(n.page_faults_remote_home for n in on.nodes)
            < sum(n.page_faults_remote_home for n in off.nodes))
    assert on.execution_cycles <= off.execution_cycles * 1.02


def test_lazy_migration_benefit(benchmark):
    """A migratory object pattern: with migration enabled the homes
    chase the current owner and remote traffic at stale homes drops."""
    def pair():
        results = {}
        for enabled in (False, True):
            cfg = MachineConfig(enable_migration=enabled,
                                migration_threshold=48)
            machine = Machine(cfg, policy="scoma")
            wl = SyntheticWorkload("migratory", shared_kb=128,
                                   iterations=8, cycles_per_ref=10)
            results[enabled] = machine.run(wl)
        return results

    results = benchmark.pedantic(pair, rounds=1, iterations=1)
    static = results[False].stats
    lazy = results[True].stats
    migrations = sum(n.homes_migrated_in for n in lazy.nodes)
    print("\nstatic homes:   %d cycles" % static.execution_cycles)
    print("lazy migration: %d cycles (%d migrations, %d forwards)"
          % (lazy.execution_cycles, migrations,
             sum(n.forwarded_requests for n in lazy.nodes)))
    assert migrations > 0


def test_ccnuma_vs_lanuma(benchmark):
    """LA-NUMA = CC-NUMA + PIT translation; the measured gap must be
    positive but small (the paper's section 4.3 conclusion)."""
    def pair():
        return (run_spec("lu", "lanuma"),
                run_spec("lu", "ccnuma"))

    lanuma, ccnuma = benchmark.pedantic(pair, rounds=1, iterations=1)
    overhead = (lanuma.stats.execution_cycles
                / ccnuma.stats.execution_cycles) - 1.0
    print("\nccnuma: %d cycles, lanuma: %d cycles, PIT overhead %.2f%%"
          % (ccnuma.stats.execution_cycles,
             lanuma.stats.execution_cycles, 100 * overhead))
    assert -0.02 < overhead < 0.10


def test_directory_client_frames_mitigation(benchmark):
    """Section 4.3: with a DRAM PIT, caching client frame numbers in the
    directory recovers part of the invalidation-path cost."""
    def pair():
        results = {}
        for mitigate in (False, True):
            cfg = replace(MachineConfig(directory_caches_client_frames=mitigate),
                          latency=LatencyModel(pit_access=10, pit_hash=40))
            results[mitigate] = run_spec("water-nsq", "scoma", config=cfg)
        return results

    results = benchmark.pedantic(pair, rounds=1, iterations=1)
    plain = results[False].stats.execution_cycles
    mitigated = results[True].stats.execution_cycles
    print("\nDRAM PIT, hash reverse:   %d cycles" % plain)
    print("DRAM PIT, dir frame nums: %d cycles (%.2f%% faster)"
          % (mitigated, 100 * (1 - mitigated / plain)))
    assert mitigated <= plain * 1.02
