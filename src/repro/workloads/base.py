"""Workload framework: SPLASH-style reference generators.

The paper drives its simulator with SPLASH-I/II applications under
Augmint (execution-driven simulation of compiled binaries).  This
reproduction replaces that with *application kernels*: Python
implementations of the same algorithms' traversals that emit, per
simulated CPU, the stream of memory references (virtual address,
read/write), compute gaps, barriers and locks the algorithm performs.
Problem sizes are scaled together with the machine's caches (see
DESIGN.md section 2) so the capacity regimes match the paper's.

A workload:

* builds its shared segments and private regions in :meth:`setup`
  (globalized shmget/shmat through the machine's layout — this is the
  "global binding" step, outside the measured parallel phase);
* yields ops from :meth:`generator` for each CPU (the parallel phase).

Addresses are plain integers in the (machine-wide) virtual address
space; :class:`SharedArray` and :class:`PrivateArray` provide element
-> address arithmetic.
"""

from __future__ import annotations

from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_READ_RUN, OP_UNLOCK, OP_WRITE, OP_WRITE_RUN)


class SharedArray:
    """A shared segment interpreted as an array of fixed-size elements."""

    __slots__ = ("vbase", "elem_bytes", "num_elems")

    def __init__(self, layout, key: int, num_elems: int, elem_bytes: int) -> None:
        region = layout.attach_shared(key, num_elems * elem_bytes)
        self.vbase = region.vbase
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems

    def addr(self, index: int) -> int:
        """Virtual address of element ``index``."""
        return self.vbase + index * self.elem_bytes

    def read(self, index: int) -> "tuple[int, int]":
        """A load op for element ``index``."""
        return (OP_READ, self.vbase + index * self.elem_bytes)

    def write(self, index: int) -> "tuple[int, int]":
        """A store op for element ``index``."""
        return (OP_WRITE, self.vbase + index * self.elem_bytes)

    def read_run(self, index: int, count: int,
                 stride: int = 1) -> "tuple[int, int, int, int]":
        """A block-load op: ``count`` loads starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_READ_RUN, self.vbase + index * self.elem_bytes,
                stride * self.elem_bytes, count)

    def write_run(self, index: int, count: int,
                  stride: int = 1) -> "tuple[int, int, int, int]":
        """A block-store op: ``count`` stores starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_WRITE_RUN, self.vbase + index * self.elem_bytes,
                stride * self.elem_bytes, count)

    @property
    def size_bytes(self) -> int:
        """Total segment size."""
        return self.num_elems * self.elem_bytes


class PrivateArray:
    """A per-CPU private array (node-local memory, Local-mode frames)."""

    __slots__ = ("vbase", "elem_bytes", "num_elems")

    def __init__(self, layout, num_elems: int, elem_bytes: int) -> None:
        region = layout.add_private(num_elems * elem_bytes)
        self.vbase = region.vbase
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems

    def addr(self, index: int) -> int:
        """Virtual address of element ``index``."""
        return self.vbase + index * self.elem_bytes

    def read(self, index: int) -> "tuple[int, int]":
        """A load op for element ``index``."""
        return (OP_READ, self.vbase + index * self.elem_bytes)

    def write(self, index: int) -> "tuple[int, int]":
        """A store op for element ``index``."""
        return (OP_WRITE, self.vbase + index * self.elem_bytes)

    def read_run(self, index: int, count: int,
                 stride: int = 1) -> "tuple[int, int, int, int]":
        """A block-load op: ``count`` loads starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_READ_RUN, self.vbase + index * self.elem_bytes,
                stride * self.elem_bytes, count)

    def write_run(self, index: int, count: int,
                  stride: int = 1) -> "tuple[int, int, int, int]":
        """A block-store op: ``count`` stores starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_WRITE_RUN, self.vbase + index * self.elem_bytes,
                stride * self.elem_bytes, count)


class Workload:
    """Base class for all application kernels."""

    #: Short name used by the harness and result tables.
    name = "abstract"
    #: Paper's description (Table 2), for reports.
    description = ""
    #: The paper's problem size (Table 2), for reports.
    paper_problem = ""

    def __init__(self) -> None:
        self._barrier_seq = 0

    # -- to implement ----------------------------------------------------

    def setup(self, layout, num_cpus: int) -> None:
        """Create segments and precompute access plans.  Called once by
        the machine before the parallel phase."""
        raise NotImplementedError

    def generator(self, cpu_id: int, num_cpus: int):
        """Yield ops for one CPU's parallel phase."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def block_range(total: int, cpu_id: int, num_cpus: int) -> range:
        """Contiguous block partition of ``range(total)`` for one CPU."""
        base = total // num_cpus
        extra = total % num_cpus
        start = cpu_id * base + min(cpu_id, extra)
        size = base + (1 if cpu_id < extra else 0)
        return range(start, start + size)

    def describe(self) -> "dict[str, str]":
        """Name/description/problem-size record (Table 2 rows)."""
        return {
            "name": self.name,
            "description": self.description,
            "paper_problem": self.paper_problem,
            "problem": getattr(self, "problem", ""),
        }


#: Most ops in one list :func:`coalesce` yields.  A workload's
#: generator hands the machine these lists through
#: ``itertools.chain.from_iterable``, so only one chunk of op tuples per
#: CPU is alive at a time, however long the stretch of references.
#: Measured on hot-32x8, 64 gave the lowest peak memory of 64/128/256
#: with no wall-clock difference (docs/PERFORMANCE.md).
COALESCE_CHUNK = 64


def coalesce(addrs, writes):
    """Fuse a stretch of references into maximal constant-stride runs.

    ``addrs`` and ``writes`` are equal-length arrays: reference ``i``
    loads (or, where ``writes[i]`` is true, stores) ``addrs[i]``.  The
    ops are the ones :func:`coalesce_stream` yields for the same single
    ops — same-kind runs grown greedily from the left, lone references
    left as plain single ops — so a generator built on it is
    reference-for-reference identical to one yielding the singles; only
    the op count the simulator iterates over shrinks.

    The runs are found here, once, with array arithmetic, and kept as
    compact per-op arrays (kind, base, stride, count); the returned
    iterator builds the op tuples from them in lists of at most
    :data:`COALESCE_CHUNK` ops.  Joined, the lists are the whole op
    list.
    """
    import numpy as np

    addrs = np.asarray(addrs, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    n = len(addrs)
    if n == 0:
        return iter(())
    # Link j joins reference j to j + 1.  A run can take link j only if
    # both ends are the same kind (``same``); it must if the link
    # repeats its predecessor's stride inside a same-kind stretch
    # (``cont``).  Any other same-kind link is taken exactly when the
    # run ending at reference j did not take link j - 1, so between two
    # "anchor" links (``cont`` -> taken, not ``same`` -> not taken) the
    # taken flag alternates.
    stride = np.diff(addrs)
    same = writes[1:] == writes[:-1]
    cont = np.zeros(n - 1, dtype=bool)
    cont[1:] = same[1:] & same[:-1] & (stride[1:] == stride[:-1])
    anchor = cont | ~same
    link = np.arange(n - 1)
    last = np.maximum.accumulate(np.where(anchor, link, -1))
    taken = np.where(anchor, cont,
                     (cont[last] & (last >= 0)) ^ ((link - last) & 1 == 1))
    starts = np.flatnonzero(np.concatenate(([True], ~taken)))
    counts = np.diff(np.append(starts, n)).astype(np.int32)
    kinds = writes[starts]
    ops = np.where(counts > 1,
                   np.where(kinds, OP_WRITE_RUN, OP_READ_RUN),
                   np.where(kinds, OP_WRITE, OP_READ)).astype(np.int8)
    # A lone reference has no stride; a run's stride is its first step.
    strides = np.where(counts > 1, np.append(stride, 0)[starts], 0)
    if -(1 << 31) <= strides.min() and strides.max() < 1 << 31:
        strides = strides.astype(np.int32)
    return _op_chunks(ops, addrs[starts], strides, counts)


def _op_chunks(kinds, bases, strides, counts):
    """The op tuples of :func:`coalesce`'s per-op arrays, in lists of
    at most :data:`COALESCE_CHUNK` ops."""
    for lo in range(0, len(kinds), COALESCE_CHUNK):
        hi = lo + COALESCE_CHUNK
        yield [(op, base) if count == 1 else (op, base, step, count)
               for op, base, step, count in zip(
                   kinds[lo:hi].tolist(), bases[lo:hi].tolist(),
                   strides[lo:hi].tolist(), counts[lo:hi].tolist())]


def coalesce_stream(ops):
    """Fuse ref runs in a *full* op stream (refs mixed with compute,
    barrier and lock ops).

    Like :func:`coalesce`, but takes a stream of op tuples, the
    complete generator output included:
    non-reference ops flush any pending run and pass through unchanged,
    so the expanded stream is op-for-op identical to the input — only
    maximal same-kind constant-stride reference runs collapse into
    ``OP_READ_RUN``/``OP_WRITE_RUN``.  Wrap an existing generator with
    it to get run coalescing without restructuring the kernel::

        def generator(self, cpu_id, num_cpus):
            return coalesce_stream(self._stream(cpu_id, num_cpus))
    """
    run_of = {OP_READ: OP_READ_RUN, OP_WRITE: OP_WRITE_RUN}
    kind = base = prev = stride = None
    count = 0
    for op in ops:
        k = op[0]
        if k == OP_READ or k == OP_WRITE:
            addr = op[1]
            if k == kind and (stride is None or addr - prev == stride):
                if stride is None:
                    stride = addr - prev
                prev = addr
                count += 1
                continue
            if count == 1:
                yield (kind, base)
            elif count:
                yield (run_of[kind], base, stride, count)
            kind, base, prev, stride, count = k, addr, addr, None, 1
            continue
        if count == 1:
            yield (kind, base)
        elif count:
            yield (run_of[kind], base, stride, count)
        kind, stride, count = None, None, 0
        yield op
    if count == 1:
        yield (kind, base)
    elif count:
        yield (run_of[kind], base, stride, count)


def barrier(bid: int) -> "tuple[int, int]":
    """A global-barrier op for barrier ``bid``."""
    return (OP_BARRIER, bid)


def compute(cycles: int) -> "tuple[int, int]":
    """A local-computation op of ``cycles`` cycles."""
    return (OP_COMPUTE, cycles)


def lock(lid: int) -> "tuple[int, int]":
    """An acquire op for lock ``lid``."""
    return (OP_LOCK, lid)


def unlock(lid: int) -> "tuple[int, int]":
    """A release op for lock ``lid``."""
    return (OP_UNLOCK, lid)
