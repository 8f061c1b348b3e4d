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


class PrivateArray:
    """A per-CPU private array (node-local memory, Local-mode frames)."""

    __slots__ = ("vbase", "elem_bytes", "num_elems")

    def __init__(self, layout, num_elems: int, elem_bytes: int) -> None:
        region = layout.add_private(num_elems * elem_bytes)
        self.vbase = region.vbase
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems

    def read(self, index: int) -> "tuple[int, int]":
        """A load op for element ``index``."""
        return (OP_READ, self.vbase + index * self.elem_bytes)

    def write(self, index: int) -> "tuple[int, int]":
        """A store op for element ``index``."""
        return (OP_WRITE, self.vbase + index * self.elem_bytes)


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

    ``addrs`` and ``writes`` are equal-length sequences: reference ``i``
    loads (or, where ``writes[i]`` is true, stores) ``addrs[i]``.  The
    ops are the ones :func:`coalesce_stream` yields for the same single
    ops — same-kind runs grown greedily from the left, lone references
    left as plain single ops — so a generator built on it is
    reference-for-reference identical to one yielding the singles; only
    the op count the simulator iterates over shrinks.

    The ops come in lists of at most :data:`COALESCE_CHUNK` ops, built
    as the caller consumes them; joined, the lists are the whole op
    list.
    """
    run_of = {OP_READ: OP_READ_RUN, OP_WRITE: OP_WRITE_RUN}
    chunk = []
    kind = base = prev = stride = None
    count = 0
    for addr, write in zip(addrs, writes):
        k = OP_WRITE if write else OP_READ
        if k == kind and (count == 1 or addr - prev == stride):
            if count == 1:
                stride = addr - prev
            prev = addr
            count += 1
            continue
        if count:
            chunk.append((kind, base) if count == 1 else
                         (run_of[kind], base, stride, count))
            if len(chunk) == COALESCE_CHUNK:
                yield chunk
                chunk = []
        kind, base, prev, count = k, addr, addr, 1
    if count:
        chunk.append((kind, base) if count == 1 else
                     (run_of[kind], base, stride, count))
    if chunk:
        yield chunk


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
