"""Radix kernel (SPLASH-2 RADIX: parallel radix sort).

``n`` integer keys are sorted ``digit_bits`` bits at a time.  Each pass:

1. local histogram: every CPU reads its block of keys and counts digit
   occurrences into a private histogram;
2. global prefix: CPUs publish their histograms into a shared array and
   (after a barrier) read all other CPUs' histograms to compute their
   scatter offsets;
3. permutation: every CPU re-reads its keys and writes each to its
   destination slot — a data-dependent scatter across the whole
   destination array, the classic remote-traffic generator of RADIX.

The keys are real random integers and the scatter targets are the real
sorted positions (computed at setup), so the address stream has the
genuine all-to-all structure.

Paper data set: 1M integer keys, radix 1K.  Default here: 64K keys,
radix 256, 2 passes over 16-bit keys.
"""

from __future__ import annotations

from array import array

from repro.workloads.base import (PrivateArray, SharedArray, Workload,
                                  barrier, coalesce_stream, compute)
from repro.workloads.rng import RandomState

INT_BYTES = 4


class RadixWorkload(Workload):
    """Parallel radix sort (see module docstring)."""

    name = "radix"
    description = "Radix sort"
    paper_problem = "1M integer keys, radix 1K"

    def __init__(self, keys: int = 65536, radix: int = 256,
                 key_bits: int = 16, seed: int = 12345) -> None:
        super().__init__()
        self.n = keys
        self.radix = radix
        self.digit_bits = radix.bit_length() - 1
        if 1 << self.digit_bits != radix:
            raise ValueError("radix must be a power of two")
        self.passes = -(-key_bits // self.digit_bits)
        self.seed = seed
        self.problem = "%d integer keys, radix %d" % (keys, radix)

    def setup(self, layout, num_cpus: int) -> None:
        n, radix = self.n, self.radix
        self.src = SharedArray(layout, key=301, num_elems=n,
                               elem_bytes=INT_BYTES)
        self.dst = SharedArray(layout, key=302, num_elems=n,
                               elem_bytes=INT_BYTES)
        self.global_hist = SharedArray(layout, key=303,
                                       num_elems=num_cpus * radix,
                                       elem_bytes=INT_BYTES)
        self.local_hist = [PrivateArray(layout, radix, INT_BYTES)
                           for _ in range(num_cpus)]

        # Compute the real per-pass permutations: each pass sorts the
        # keys stably by its digit.
        keys = RandomState(self.seed).randint(
            0, 1 << (self.passes * self.digit_bits), n)
        #: per pass, ``(digits, dest)``: each key's digit and the slot
        #: the pass scatters it to.
        self._pass_plans = []
        for p in range(self.passes):
            shift = p * self.digit_bits
            digits = array("q", [(key >> shift) & (radix - 1)
                                 for key in keys])
            order = sorted(range(n), key=digits.__getitem__)
            dest = array("q", [0]) * n
            for slot, i in enumerate(order):
                dest[i] = slot
            self._pass_plans.append((digits, dest))
            keys = [keys[i] for i in order]

    def generator(self, cpu_id: int, num_cpus: int):
        # Run-coalesced view of the kernel's stream: op-for-op
        # identical after expansion (see coalesce_stream).
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        n, radix = self.n, self.radix
        src, dst = self.src, self.dst
        lhist = self.local_hist[cpu_id]
        ghist = self.global_hist
        block = self.block_range(n, cpu_id, num_cpus)
        bid = 0
        for p, (digits, dest) in enumerate(self._pass_plans):
            a, b = (src, dst) if p % 2 == 0 else (dst, src)
            dest_list = dest[block.start:block.stop]
            digit_list = digits[block.start:block.stop]
            # 1. Local histogram.
            for r in range(0, radix, 8):
                yield lhist.write(r)
            for i, d in zip(block, digit_list):
                yield a.read(i)
                yield lhist.read(d)
                yield lhist.write(d)
            yield barrier(bid)
            bid += 1
            # 2. Publish local histogram; read everyone's to prefix-sum.
            for r in range(radix):
                yield ghist.write(cpu_id * radix + r)
            yield barrier(bid)
            bid += 1
            for other in range(num_cpus):
                for r in range(0, radix, 8):
                    yield ghist.read(other * radix + r)
            yield compute(2 * radix)
            yield barrier(bid)
            bid += 1
            # 3. Permute: scatter each key to its sorted slot.
            for i, d in zip(block, dest_list):
                yield a.read(i)
                yield lhist.read(digit_list[i - block.start])
                yield b.write(d)
            yield barrier(bid)
            bid += 1
