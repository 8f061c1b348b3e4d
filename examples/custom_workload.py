#!/usr/bin/env python
"""Tutorial: write your own workload and study it under PRISM's policies.

A workload is a class with two methods:

* ``setup(layout, num_cpus)`` — create shared segments (globalized
  shmget/shmat) and private regions, and precompute whatever plans the
  generators need;
* ``generator(cpu_id, num_cpus)`` — yield the CPU's reference stream:
  reads/writes (by virtual address), compute gaps, barriers, locks.

This one implements a small parallel histogram: every CPU reads its
slice of a shared sample array and increments shared bucket counters
under per-bucket locks, then a reduction phase reads all buckets.
"""

from repro import Machine, MachineConfig
from repro.workloads.base import (SharedArray, Workload, barrier, compute,
                                  lock, unlock)
from repro.workloads.rng import RandomState


class HistogramWorkload(Workload):
    """Parallel histogram: read samples, lock-protected bucket updates."""

    name = "histogram"
    description = "Shared-bucket histogram (tutorial workload)"
    paper_problem = "n/a"

    def __init__(self, samples: int = 16384, buckets: int = 64,
                 seed: int = 7) -> None:
        super().__init__()
        self.n = samples
        self.buckets = buckets
        self.seed = seed
        self.problem = "%d samples, %d buckets" % (samples, buckets)

    def setup(self, layout, num_cpus: int) -> None:
        self.samples = SharedArray(layout, key=1, num_elems=self.n,
                                   elem_bytes=8)
        self.counts = SharedArray(layout, key=2, num_elems=self.buckets,
                                  elem_bytes=32)
        # The same draws numpy.random.RandomState(seed).randint makes.
        rng = RandomState(self.seed)
        self._bucket_of = rng.randint(0, self.buckets, self.n)

    def generator(self, cpu_id: int, num_cpus: int):
        mine = self.block_range(self.n, cpu_id, num_cpus)
        buckets = self._bucket_of[mine.start:mine.stop]
        for i, bucket in zip(mine, buckets):
            yield self.samples.read(i)
            yield compute(5)
            yield lock(bucket)
            yield self.counts.read(bucket)
            yield self.counts.write(bucket)
            yield unlock(bucket)
        yield barrier(0)
        # Reduction: everyone reads every bucket.
        for bucket in range(self.buckets):
            yield self.counts.read(bucket)
        yield barrier(1)


def main() -> int:
    print("custom workload under three page-mode policies:\n")
    baseline = Machine(MachineConfig(), policy="scoma")
    scoma = baseline.run(HistogramWorkload())
    # Section 4.2's cap: 70% of each node's client frames under SCOMA.
    # (A registered workload gets it from the harness: an ExperimentSpec
    # of a capped policy runs its SCOMA sibling first.)
    caps = [max(1, int(0.7 * node.scoma_client_frames_peak))
            for node in scoma.stats.nodes]

    print("%-9s %15s %14s %10s" % ("policy", "cycles", "remote misses",
                                   "page-outs"))
    print("%-9s %15d %14d %10d" % ("scoma", scoma.stats.execution_cycles,
                                   scoma.stats.remote_misses,
                                   scoma.stats.client_page_outs))
    for policy in ("lanuma", "dyn-lru"):
        machine = Machine(MachineConfig(), policy=policy,
                          page_cache_override=caps)
        result = machine.run(HistogramWorkload())
        print("%-9s %15d %14d %10d"
              % (policy, result.stats.execution_cycles,
                 result.stats.remote_misses,
                 result.stats.client_page_outs))

    print("\nhottest resources under SCOMA:")
    for name, busy in baseline.hottest_resources(3):
        print("  %-16s %4.1f%% busy" % (name, 100 * busy))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
