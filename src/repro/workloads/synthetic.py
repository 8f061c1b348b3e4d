"""Synthetic workload generator.

Parameterized access-pattern kernels for controlled experiments — in
particular the working-set regime study behind the paper's section 6
summary:

    "There is no significant performance difference for working sets
    that fit within the L1/L2 caches.  For working sets larger than the
    L1/L2 caches, S-COMA's page cache acts as a third level cache and
    outperforms LA-NUMA.  For working sets larger than the page cache,
    more paging occurs in S-COMA, and LA-NUMA performs better."

Patterns:

* ``block``    — every CPU repeatedly sweeps its own block of the
  shared array: pure capacity reuse, the S-COMA sweet spot.
* ``random``   — uniform random references over the whole array: sparse
  page touches, the S-COMA memory-consumption worst case.
* ``migratory``— objects are read-modify-written by each CPU in turn:
  ownership migrates, 3-party transfers dominate (and the lazy
  home-migration policy has something to chase).
* ``producer_consumer`` — phase-alternating neighbour pipelines: CPU i
  writes a block that CPU i+1 reads next phase: invalidation traffic.
* ``reuse_vs_stream`` — each iteration alternates a hot reused block
  with a once-through cold stream.  With a constrained page cache the
  stream demotes the hot pages under dyn-lru; the bidirectional policy
  (dyn-bidir) promotes them back — the scenario behind the paper's
  "convert such reuse pages back to S-COMA mode" remark (section 4.3).
"""

from __future__ import annotations

from itertools import chain

from repro.workloads.base import (SharedArray, Workload, barrier, coalesce,
                                  compute)

LINE_BYTES = 32

PATTERNS = ("block", "random", "migratory", "producer_consumer",
            "reuse_vs_stream")


class SyntheticWorkload(Workload):
    """A configurable synthetic access pattern over one shared array."""

    name = "synthetic"
    description = "Parameterized synthetic access pattern"
    paper_problem = "n/a (controlled experiment)"

    def __init__(self, pattern: str = "block",
                 shared_kb: int = 256,
                 sweep_fraction: float = 1.0,
                 iterations: int = 4,
                 write_fraction: float = 0.25,
                 refs_per_cpu_per_iter: int = 2000,
                 cycles_per_ref: int = 10,
                 random_order: bool = False,
                 imbalance: float = 0.0,
                 seed: int = 20260704) -> None:
        """``shared_kb`` sizes the shared array; ``sweep_fraction``
        restricts each CPU's working set to a fraction of its share;
        ``write_fraction`` is the store ratio for the block/random
        patterns."""
        super().__init__()
        if pattern not in PATTERNS:
            raise ValueError("unknown pattern %r; choose from %s"
                             % (pattern, ", ".join(PATTERNS)))
        if not 0.0 < sweep_fraction <= 1.0:
            raise ValueError("sweep_fraction must be in (0, 1]")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if imbalance < 0.0:
            raise ValueError("imbalance must be non-negative")
        self.pattern = pattern
        self.shared_kb = shared_kb
        self.sweep_fraction = sweep_fraction
        self.iterations = iterations
        self.write_fraction = write_fraction
        self.refs_per_cpu_per_iter = refs_per_cpu_per_iter
        #: Per-reference compute gap (honoured by the machine); higher
        #: values model compute-bound codes, lower values memory-bound.
        self.cycles_per_ref = cycles_per_ref
        #: Block pattern: visit the working set in random order instead
        #: of sequentially (defeats the cyclic-sweep LRU worst case).
        self.random_order = random_order
        #: Load imbalance for the block pattern: CPU ``i`` performs
        #: ``refs * (1 + imbalance * i / (n - 1))`` references per
        #: iteration, modelling the skewed per-CPU work of real kernels
        #: (boundary rows, pivot columns).  0 keeps the uniform sweep.
        self.imbalance = imbalance
        self.seed = seed
        self.problem = "%s, %d KB shared, %d iterations" % (
            pattern, shared_kb, iterations)

    def setup(self, layout, num_cpus: int) -> None:
        self.num_lines = self.shared_kb * 1024 // LINE_BYTES
        self.array = SharedArray(layout, key=9100, num_elems=self.num_lines,
                                 elem_bytes=LINE_BYTES)
        self._num_cpus = num_cpus
        import numpy as np

        rng = np.random.RandomState(self.seed)
        #: per-cpu, per-iteration seeded draws ``(line offsets, write
        #: flags)``, either ``None`` where the pattern draws none; the
        #: line indices themselves are built one iteration at a time.
        self._draws = [[self._draw(cpu, it, rng)
                        for it in range(self.iterations)]
                       for cpu in range(num_cpus)]

    # -- pattern planners -------------------------------------------------

    def _writes(self, rng, count: int) -> np.ndarray:
        return rng.rand(count) < self.write_fraction

    def _block_refs(self, cpu: int) -> int:
        refs = self.refs_per_cpu_per_iter
        if self.imbalance and self._num_cpus > 1:
            refs = int(refs * (1.0 + self.imbalance * cpu
                               / (self._num_cpus - 1)))
        return refs

    def _span(self) -> int:
        per_cpu = self.num_lines // self._num_cpus
        return max(1, int(per_cpu * self.sweep_fraction))

    def _draw(self, cpu: int, it: int, rng):
        """The RNG draws of one CPU's iteration, in draw order: line
        offsets (stored as int32: they index the shared array), then
        write flags."""
        import numpy as np

        if self.pattern == "block":
            refs = self._block_refs(cpu)
            offsets = (rng.randint(0, self._span(), refs).astype(np.int32)
                       if self.random_order else None)
            return offsets, self._writes(rng, refs)
        if self.pattern == "random":
            refs = self.refs_per_cpu_per_iter
            return (rng.randint(0, self.num_lines, refs).astype(np.int32),
                    self._writes(rng, refs))
        if self.pattern == "reuse_vs_stream" and it % 2 == 0:
            return None, self._writes(rng, self.refs_per_cpu_per_iter)
        return None, None

    def _plan_block(self, cpu, it, offsets, writes):
        import numpy as np

        base = cpu * (self.num_lines // self._num_cpus)
        if offsets is None:
            offsets = np.arange(len(writes)) % self._span()
        return base + offsets, writes

    def _plan_random(self, cpu, it, offsets, writes):
        return offsets, writes

    def _plan_migratory(self, cpu, it, offsets, writes):
        import numpy as np

        # A pool of "objects" (4 lines each); each iteration every CPU
        # read-modify-writes the objects of a rotating slice, so every
        # object is owned by each CPU in turn.
        num_cpus = self._num_cpus
        obj_lines = 4
        num_objects = self.num_lines // obj_lines
        per_cpu = max(1, num_objects // num_cpus)
        slice_id = (cpu + it) % num_cpus
        objs = np.arange(per_cpu) + slice_id * per_cpu
        lines = (objs[:, None] * obj_lines
                 + np.arange(obj_lines)).ravel() % self.num_lines
        # RMW: every reference pair is a read then a write.
        return np.repeat(lines, 2), np.tile([False, True], len(lines))

    def _plan_producer_consumer(self, cpu, it, offsets, writes):
        import numpy as np

        num_cpus = self._num_cpus
        per_cpu = self.num_lines // num_cpus
        span = self._span()
        if it % 2 == 0:                                        # produce
            return cpu * per_cpu + np.arange(span), np.ones(span, dtype=bool)
        upstream = ((cpu - 1) % num_cpus) * per_cpu + np.arange(span)
        return upstream, np.zeros(span, dtype=bool)

    def _plan_reuse_vs_stream(self, cpu, it, offsets, writes):
        import numpy as np

        per_cpu = self.num_lines // self._num_cpus
        hot_span = max(1, per_cpu // 4)
        base = cpu * per_cpu
        if it % 2 == 0:
            return base + (np.arange(len(writes)) % hot_span), writes
        stream = base + hot_span + np.arange(per_cpu - hot_span)
        return stream, np.zeros(len(stream), dtype=bool)

    # -- generator ---------------------------------------------------------

    def generator(self, cpu_id: int, num_cpus: int):
        # Bounded op chunks per iteration, chained in C: the machine's
        # next() resumes a Python frame only once per chunk.
        return chain.from_iterable(self._iteration_ops(cpu_id))

    def _iteration_ops(self, cpu_id: int):
        for bid, (offsets, writes) in enumerate(self._draws[cpu_id]):
            # coalesce() expands back to exactly the per-line sequence,
            # so the reference stream (and stats) are unchanged.  The
            # iteration's arrays are call arguments, not locals: only
            # coalesce's compact per-op arrays outlive the call.
            yield from coalesce(*self._references(cpu_id, bid, offsets,
                                                  writes))
            yield (compute(50), barrier(bid))

    def _references(self, cpu: int, it: int, offsets, writes):
        """``(addresses, write flags)`` of one CPU's iteration."""
        import numpy as np

        plan = getattr(self, "_plan_" + self.pattern)
        lines, writes = plan(cpu, it, offsets, writes)
        array = self.array
        return (array.vbase + np.asarray(lines, dtype=np.int64)
                * array.elem_bytes), writes
