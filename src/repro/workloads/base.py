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

from itertools import chain

from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_RUN, OP_UNLOCK, OP_WRITE)

#: Flag bytes of the uniform runs of ``read_run`` (0s) and ``write_run``
#: (1s); each grows to twice the longest run, so stays as small as runs.
_UNIFORM = [b"", b""]


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
                 stride: int = 1) -> tuple:
        """A block-load op: ``count`` loads starting at element
        ``index``, ``stride`` elements apart."""
        return self._run(index, count, stride, 0)

    def write_run(self, index: int, count: int,
                  stride: int = 1) -> tuple:
        """A block-store op: ``count`` stores starting at element
        ``index``, ``stride`` elements apart."""
        return self._run(index, count, stride, 1)

    def _run(self, index: int, count: int, stride: int, write: int) -> tuple:
        flags = _UNIFORM[write]
        if len(flags) < count:
            flags = _UNIFORM[write] = bytes((write,)) * (2 * count)
        return (OP_RUN, self.vbase + index * self.elem_bytes,
                stride * self.elem_bytes, count, flags, 0)


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
    """Fuse a stretch of references into constant-stride runs.

    ``addrs`` and ``writes`` are equal-length sequences: reference ``i``
    loads (or, where ``writes[i]`` is 1 or True, stores) ``addrs[i]``.
    A reference starts a run if it and the next two are evenly spaced,
    whatever their kinds, and the run takes every later reference that
    keeps the stride; any other is a single op (with the machine
    preempting between most references, a two-reference run costs more
    than two single ops).  A run op points into ``writes``: no copy.
    Expanded, the ops are the input's references; only the op count the
    simulator iterates over shrinks.

    The ops come in lists of at most :data:`COALESCE_CHUNK` ops, built
    as the caller consumes them; joined, they are the whole op list.
    """
    chunk = []
    i, n = 0, len(addrs)
    while i < n:
        base = addrs[i]
        if i + 2 < n and addrs[i + 1] - base == addrs[i + 2] - addrs[i + 1]:
            stride = addrs[i + 1] - base
            end = i + 3
            while end < n and addrs[end] - addrs[end - 1] == stride:
                end += 1
            chunk.append((OP_RUN, base, stride, end - i, writes, i))
            i = end
        else:
            chunk.append((OP_WRITE if writes[i] else OP_READ, base))
            i += 1
        if len(chunk) == COALESCE_CHUNK:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def coalesce_stream(ops):
    """Fuse ref runs in a *full* op stream (refs mixed with compute,
    barrier and lock ops).

    Like :func:`coalesce`, but takes a stream of op tuples, the
    complete generator output included:
    non-reference ops end a stretch and pass through unchanged, so the
    expanded stream is op-for-op identical to the input — only runs of
    :func:`coalesce`'s rule (three or more evenly spaced references of
    any kinds) collapse into ``OP_RUN`` ops, each with its own flag
    bytes.  Wrap an existing generator with it to get run coalescing
    without restructuring the kernel::

        def generator(self, cpu_id, num_cpus):
            return coalesce_stream(self._stream(cpu_id, num_cpus))
    """
    first = second = prev = stride = flags = None
    count = 0
    for op in chain(ops, ((None,),)):              # None: the end
        k = op[0]
        if k == OP_READ or k == OP_WRITE:
            addr = op[1]
            if count > 1 and addr - prev == stride:
                if count == 2:
                    flags = bytearray((first[0] == OP_WRITE,
                                       second[0] == OP_WRITE))
                flags.append(k == OP_WRITE)
                prev = addr
                count += 1
            elif count == 1:
                second, stride, prev, count = op, addr - prev, addr, 2
            elif count == 2:
                yield first
                first, second, stride, prev = second, op, addr - prev, addr
            else:
                if count:
                    yield (OP_RUN, first[1], stride, count, flags, 0)
                first, prev, count = op, addr, 1
            continue
        if count > 2:
            yield (OP_RUN, first[1], stride, count, flags, 0)
        elif count:
            yield first
            if count == 2:
                yield second
        count = 0
        if k is not None:
            yield op


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
