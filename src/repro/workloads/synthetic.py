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

from array import array
from itertools import chain

from repro.sim.ops import OP_READ, OP_RUN, OP_WRITE
from repro.workloads.base import (SharedArray, Workload, barrier, coalesce,
                                  compute)
from repro.workloads.rng import RandomState

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
        rng = RandomState(self.seed)
        #: per-cpu, per-iteration seeded draws ``(line offsets, write
        #: flags)``, either ``None`` where the pattern draws none; the
        #: references themselves are built one iteration at a time.
        self._draws = [
            [self._draw(cpu, it, rng) for it in range(self.iterations)]
            for cpu in range(num_cpus)]

    # -- pattern planners -------------------------------------------------

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
        write flags (``bytes``, 1 for a store)."""
        if self.pattern == "block":
            refs = self._block_refs(cpu)
            offsets = (array("i", rng.randint(0, self._span(), refs))
                       if self.random_order else None)
            return offsets, rng.below(refs, self.write_fraction)
        if self.pattern == "random":
            refs = self.refs_per_cpu_per_iter
            return (array("i", rng.randint(0, self.num_lines, refs)),
                    rng.below(refs, self.write_fraction))
        if self.pattern == "reuse_vs_stream" and it % 2 == 0:
            return None, rng.below(self.refs_per_cpu_per_iter,
                                   self.write_fraction)
        return None, None

    # Each planner returns one CPU's iteration as op chunks: a sweep
    # (``_sweep``) where the lines repeat in laps, else the coalesced
    # ``(addresses, write flags)``.

    def _plan_block(self, cpu, it, offsets, writes):
        base = cpu * (self.num_lines // self._num_cpus)
        if offsets is None:
            return self._sweep(base, self._span(), writes)
        return coalesce(self._addrs(base + o for o in offsets), writes)

    def _plan_random(self, cpu, it, offsets, writes):
        return coalesce(self._addrs(offsets), writes)

    def _plan_migratory(self, cpu, it, offsets, writes):
        # A pool of "objects" (4 lines each); each iteration every CPU
        # read-modify-writes the objects of a rotating slice, so every
        # object is owned by each CPU in turn.
        num_cpus = self._num_cpus
        obj_lines = 4
        num_objects = self.num_lines // obj_lines
        per_cpu = max(1, num_objects // num_cpus)
        first = (cpu + it) % num_cpus * per_cpu * obj_lines
        lines = [line % self.num_lines
                 for line in range(first, first + per_cpu * obj_lines)]
        # RMW: every line is read, then written.
        return coalesce(self._addrs(line for line in lines
                                    for _rmw in range(2)),
                        b"\0\1" * len(lines))

    def _plan_producer_consumer(self, cpu, it, offsets, writes):
        num_cpus = self._num_cpus
        per_cpu = self.num_lines // num_cpus
        span = self._span()
        if it % 2 == 0:                                        # produce
            return self._sweep(cpu * per_cpu, span, b"\1" * span)
        upstream = (cpu - 1) % num_cpus * per_cpu
        return self._sweep(upstream, span, bytes(span))

    def _plan_reuse_vs_stream(self, cpu, it, offsets, writes):
        per_cpu = self.num_lines // self._num_cpus
        hot_span = max(1, per_cpu // 4)
        base = cpu * per_cpu
        if it % 2 == 0:
            return self._sweep(base, hot_span, writes)
        cold_span = per_cpu - hot_span
        if cold_span <= 0:
            return ()
        return self._sweep(base + hot_span, cold_span, bytes(cold_span))

    def _addrs(self, lines) -> "array[int]":
        """Virtual addresses of shared-array ``lines``."""
        vbase, step = self.array.vbase, self.array.elem_bytes
        return array("q", [vbase + line * step for line in lines])

    def _sweep(self, first: int, span: int, writes: bytes):
        """Op chunks of laps over lines ``first .. first + span - 1``:
        reference ``i`` touches line ``first + i % span`` and is a store
        where ``writes[i]`` is 1.

        A lap is one run op pointing into ``writes`` (no copy): the ops
        :func:`coalesce` makes of the same references, so a lap of one
        or two references is single ops and a one-line span is one
        stride-0 run.  The one chunk is lazy: a CPU holds one op of its
        sweep at a time, and no per-reference list is built.
        """
        step = self.array.elem_bytes
        vbase = self.array.vbase + first * step
        if span == 1:
            span, step = max(len(writes), 1), 0
        return (self._laps(vbase, step, span, writes),)

    @staticmethod
    def _laps(vbase: int, step: int, span: int, writes: bytes):
        n = len(writes)
        for lap in range(0, n, span):
            count = min(span, n - lap)
            if count > 2:
                yield (OP_RUN, vbase, step, count, writes, lap)
                continue
            for i in range(count):
                yield (OP_WRITE if writes[lap + i] else OP_READ,
                       vbase + i * step)

    # -- generator ---------------------------------------------------------

    def generator(self, cpu_id: int, num_cpus: int):
        # Bounded op chunks per iteration, chained in C: the machine's
        # next() resumes a Python frame only once per chunk.
        return chain.from_iterable(self._iteration_ops(cpu_id))

    def _iteration_ops(self, cpu_id: int):
        plan = getattr(self, "_plan_" + self.pattern)
        for bid, (offsets, writes) in enumerate(self._draws[cpu_id]):
            # The chunks expand back to exactly the per-line sequence,
            # so the reference stream (and stats) are unchanged.
            yield from plan(cpu_id, bid, offsets, writes)
            yield (compute(50), barrier(bid))
