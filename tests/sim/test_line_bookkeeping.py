"""Per-line bookkeeping is invisible in simulated results.

Node presence is a bitmask of local CPU ids per line, a directory line
without sharers shares one empty frozenset, and each cache set keeps
its LRU order in a short list.  The digests below are the sha256 of
``MachineStats.to_dict()`` for runs that reach the representations'
edges, recorded with the earlier set-per-line representation:

* more than 8 CPUs per node, so presence masks use bits above 7;
* write-shared runs on 12 nodes, where the order in which the home
  walks a sharer set (its invalidation issue order) moves the timing:
  issuing in ascending node order instead changes the digest.  The
  capped run pages client frames out, so sharer sets are emptied by
  ``discard`` and refilled; swapping an emptied set for a fresh one
  reorders them and changes that digest too.
"""

import hashlib
import json
import os
import tracemalloc

import pytest

from repro.sim.config import MachineConfig, tiny_config
from repro.sim.invariants import check_machine
from repro.sim.machine import Machine
from repro.workloads.serving import KvStoreWorkload
from repro.workloads.synthetic import SyntheticWorkload


def _random_writes(shared_kb):
    return SyntheticWorkload("random", shared_kb=shared_kb, iterations=2,
                             write_fraction=0.3, refs_per_cpu_per_iter=300,
                             seed=5)


CASES = {
    "12-cpu-nodes-scoma": (
        tiny_config(cpus_per_node=12), "scoma", 4,
        "625dfb4e0cd5ac679641838eaf7a22e10cacf30274ef841faa944968b7cadbab"),
    "12-cpu-nodes-lanuma": (
        tiny_config(cpus_per_node=12), "lanuma", 4,
        "669eee3c4f2bb545100e4c0480bba5c8200e57d15a696c77e9fcaddda78278d9"),
    "12-nodes-write-shared": (
        tiny_config(num_nodes=12, cpus_per_node=1), "scoma", 2,
        "5b7a10675b8aaa6f2533487232ee07219a2f4bdc0bd61f573da4becda5a2a3ad"),
    "12-nodes-write-shared-capped": (
        tiny_config(num_nodes=12, cpus_per_node=1, page_cache_frames=2),
        "scoma", 2,
        "529bbe4e83c26625b80a8b649aaa98754c0390024f84da4c553a53ff3c8b0540"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_digest_is_unchanged(case):
    config, policy, shared_kb, digest = CASES[case]
    machine = Machine(config, policy=policy)
    try:
        stats = machine.run(_random_writes(shared_kb)).stats
        assert check_machine(machine) == []
    finally:
        machine.close()
    assert sum(n.invalidations_received for n in stats.nodes) > 500
    text = json.dumps(stats.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_wide_node_masks_use_high_bits():
    machine = Machine(tiny_config(cpus_per_node=12), policy="lanuma")
    try:
        machine.run(_random_writes(4))
        masks = [mask for node in machine.nodes
                 for mask in node.presence._holders.values()]
    finally:
        machine.close()
    assert any(mask >> 8 for mask in masks)
    assert all(0 < mask < 1 << 12 for mask in masks)


#: Upper bounds, in KiB, on what a small serving run leaves allocated
#: from each group of files.  Measured with CPython 3.11: 304, 104 and
#: 109 KiB; with an OrderedDict per cache set 1003 KiB, with a set per
#: presence entry 212 KiB, and with a set per directory line 141 KiB
#: (219 KiB with tuple directory-cache keys as well).
BOOKKEEPING_KIB = {
    ("mem/cache.py",): 400,
    ("sim/machine.py",): 150,
    ("core/directory.py", "core/controller.py"): 125,
}


def test_per_line_bookkeeping_stays_small():
    """The caches' LRU sets, the presence masks and the sharer sets,
    counted by tracemalloc at the line that allocated them, with the
    machine still alive after a small write-heavy serving run."""
    workload = KvStoreWorkload(get_fraction=0.2, seed=0, num_keys=192,
                               num_shards=8, requests_per_cpu=60, batches=1,
                               churn_interval=64, drift=8)
    tracemalloc.start()
    try:
        machine = Machine(MachineConfig(), policy="scoma")
        machine.run(workload)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    machine.close()
    by_file = {stat.traceback[0].filename.replace(os.sep, "/"): stat.size
               for stat in snapshot.statistics("filename")}
    over = {}
    for files, bound in BOOKKEEPING_KIB.items():
        suffixes = tuple("/repro/" + name for name in files)
        kib = sum(size for name, size in by_file.items()
                  if name.endswith(suffixes)) / 1024
        if kib > bound:
            over[files] = round(kib)
    assert over == {}
