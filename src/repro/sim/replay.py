"""Trace-compile-then-replay execution engine (``engine = "vector"``).

The interpreter (:class:`~repro.sim.machine.Machine`) resolves every
memory reference with a Python dispatch loop, even though the dominant
case — an L1 hit — is pure arithmetic.  This module lowers each
workload's per-CPU op stream *once* into dense numpy arrays (address,
read/write flag, compute gap, segment table), caches the result
content-addressed alongside the harness's ResultCache, and replays it
with a vectorized dispatcher:

* between synchronization points, each CPU's next references are
  translated in blocks — virtual pages through the CPU's *live* TLB
  map, line states through a dense int8 mirror of its L1 (kept in sync
  by hooks on every :class:`~repro.mem.cache.Cache` mutation);
* maximal prefixes that are provably plain L1 hits are charged with
  array arithmetic (one batch update for clocks, hit counters, LRU
  touches and the latency histogram);
* everything else — L2 hits, misses, upgrades, TLB misses, barriers,
  locks and protocol events — drops into the *existing* interpreter
  slow path (``Machine._access`` and friends), so all coherence and
  tracing machinery is reused unchanged.

A run under a fault plan or a deadline, or with a tap wrapping
``_access``, falls back to the interpreter's op path outright.

Byte-identity with the interpreter is a hard invariant, enforced by the
golden tiny-matrix snapshot and property tests: a reference is claimed
into a batch only under exactly the interpreter's per-reference
conditions (same limit checks, same LRU touches, same counters, same
clock arithmetic).  The mirror may *under*-approximate (predict a miss
for what turns out to be a hit — the slow path then handles it
identically, just slower); it must never over-approximate, which the
mutation hooks guarantee.

Select with ``MachineConfig.engine = "vector"`` (CLI ``--engine``), or
build through :func:`build_machine`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
from bisect import bisect_right
from collections import OrderedDict
from time import perf_counter

import numpy as np

from repro.kernel.frames import IMAGINARY_BASE
from repro.mem.cache import SHADOW_IMAG_OFFSET
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_READ_RUN, OP_UNLOCK, OP_WRITE, OP_WRITE_RUN)

#: Segment-terminator codes in the compiled segment table.
END_STREAM = 0
END_BARRIER = 1
END_LOCK = 2
END_UNLOCK = 3

_END_OF = {OP_BARRIER: END_BARRIER, OP_LOCK: END_LOCK,
           OP_UNLOCK: END_UNLOCK}

#: Max references examined per vectorized claim.
_WINDOW = 4096
#: A claim shorter than this suggests a fine hit/miss interleave where
#: numpy overhead beats the win; fall back to the scalar loop for the
#: next ``_SCALAR_RUN`` references before trying to vectorize again.
_SHORT_CLAIM = 8
_SCALAR_RUN = 64


# ----------------------------------------------------------------------
# Recording: op streams -> dense arrays.
# ----------------------------------------------------------------------

def compile_stream(gen) -> "tuple[np.ndarray, ...]":
    """Lower one CPU's op stream to ``(addr, w, gap, segs, mg, mt)``.

    ``addr``/``w``/``gap`` hold one entry per memory reference (run ops
    are unrolled; ``gap[i]`` is the compute-cycle total between
    reference ``i-1`` and ``i``).  ``segs`` is an ``(S, 5)`` int64 table
    of ``(ref_start, ref_end, tail_gap, end_kind, end_arg)`` rows — one
    per synchronization-bounded segment, where ``tail_gap`` is the
    compute total between the last reference and the terminator and
    ``end_kind`` is one of the ``END_*`` codes.

    Gap totals built from more than one compute op keep their chunk
    structure: the interpreter re-checks the scheduling limit between
    compute ops, so a CPU suspended mid-gap requeues at the *partial*
    sum, and at equal heap keys those intermediate times decide
    cross-CPU order.  ``mg`` is an ``(M, 2)`` table of ``(ref_index,
    chunk)`` rows (in stream order) for every multi-chunk gap; ``mt``
    is the same for multi-chunk tail gaps, keyed by segment index.
    Zero-cycle computes are dropped — they never move the clock, so no
    suspension point can be observed at them.  The compiled form
    expands back to exactly the recorded reference sequence.
    """
    addr_chunks: "list[np.ndarray]" = []
    w_chunks: "list[np.ndarray]" = []
    gap_chunks: "list[np.ndarray]" = []
    cur_addr: "list[int]" = []
    cur_w: "list[int]" = []
    cur_gap: "list[int]" = []
    segs: "list[tuple[int, int, int, int, int]]" = []
    mg_rows: "list[tuple[int, int]]" = []
    mt_rows: "list[tuple[int, int]]" = []
    pending: "list[int]" = []
    total = 0
    seg_start = 0

    def flush_singles() -> None:
        if cur_addr:
            addr_chunks.append(np.array(cur_addr, dtype=np.int64))
            w_chunks.append(np.array(cur_w, dtype=np.uint8))
            gap_chunks.append(np.array(cur_gap, dtype=np.int64))
            del cur_addr[:], cur_w[:], cur_gap[:]

    def take_gap(ref_index: int) -> int:
        if len(pending) > 1:
            mg_rows.extend((ref_index, chunk) for chunk in pending)
        gap = sum(pending)
        del pending[:]
        return gap

    for op in gen:
        kind = op[0]
        if kind == OP_READ or kind == OP_WRITE:
            cur_addr.append(op[1])
            cur_w.append(1 if kind == OP_WRITE else 0)
            cur_gap.append(take_gap(total))
            total += 1
        elif kind == OP_COMPUTE:
            if op[1]:
                pending.append(op[1])
        elif kind == OP_READ_RUN or kind == OP_WRITE_RUN:
            count = op[3]
            if count > 0:
                flush_singles()
                addr_chunks.append(
                    op[1] + op[2] * np.arange(count, dtype=np.int64))
                w_chunks.append(np.full(
                    count, 1 if kind == OP_WRITE_RUN else 0,
                    dtype=np.uint8))
                gap = np.zeros(count, dtype=np.int64)
                gap[0] = take_gap(total)
                gap_chunks.append(gap)
                total += count
        elif kind in _END_OF:
            flush_singles()
            if len(pending) > 1:
                mt_rows.extend((len(segs), chunk) for chunk in pending)
            segs.append((seg_start, total, sum(pending), _END_OF[kind],
                         op[1]))
            seg_start = total
            del pending[:]
        else:
            raise ValueError("unknown op %r from workload" % (op,))
    flush_singles()
    if len(pending) > 1:
        mt_rows.extend((len(segs), chunk) for chunk in pending)
    segs.append((seg_start, total, sum(pending), END_STREAM, 0))

    empty64 = np.empty(0, dtype=np.int64)
    addr = np.concatenate(addr_chunks) if addr_chunks else empty64
    w = (np.concatenate(w_chunks) if w_chunks
         else np.empty(0, dtype=np.uint8))
    gap = np.concatenate(gap_chunks) if gap_chunks else empty64
    return (addr, w, gap, np.array(segs, dtype=np.int64).reshape(-1, 5),
            np.array(mg_rows, dtype=np.int64).reshape(-1, 2),
            np.array(mt_rows, dtype=np.int64).reshape(-1, 2))


def _sig_value(value, depth: int = 0):
    """JSON-safe fingerprint of one workload attribute (None = skip).

    Primitives embed directly; numpy arrays embed as a content hash;
    Shared/PrivateArray-likes embed their address geometry; containers
    recurse (bounded).  Unknown objects are skipped — the attributes
    that *determine* a bundled workload's reference stream (problem
    sizes, seeds, precomputed plans, segment bases) are all covered.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return ["nd", list(value.shape), str(value.dtype),
                hashlib.sha256(np.ascontiguousarray(value).tobytes())
                .hexdigest()[:16]]
    if (hasattr(value, "vbase") and hasattr(value, "elem_bytes")
            and hasattr(value, "num_elems")):
        return ["arr", value.vbase, value.elem_bytes, value.num_elems]
    if depth >= 4:
        return None
    if isinstance(value, (list, tuple)):
        return [_sig_value(v, depth + 1) for v in value]
    if isinstance(value, dict):
        return {str(k): _sig_value(v, depth + 1)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return None


def trace_signature(workload, num_cpus: int) -> str:
    """Content address of a workload's compiled trace.

    Covers the workload class, every fingerprintable attribute (set up
    state included — call after ``workload.setup``) and the CPU count.
    Virtual addresses bake the layout in, so the page size that shaped
    ``setup`` is covered through the segment base addresses.
    """
    body = {
        "schema": 1,
        "class": type(workload).__name__,
        "name": getattr(workload, "name", ""),
        "num_cpus": num_cpus,
        "attrs": {key: _sig_value(value)
                  for key, value in sorted(vars(workload).items())},
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CompiledTrace:
    """Per-CPU compiled arrays for one (workload, num_cpus) pair."""

    __slots__ = ("signature", "per_cpu")

    def __init__(self, signature: str, per_cpu) -> None:
        self.signature = signature
        #: One ``(addr, w, gap, segs, mg, mt)`` tuple per CPU.
        self.per_cpu = list(per_cpu)

    @property
    def references(self) -> int:
        """Total recorded references across every CPU."""
        return sum(len(arrs[0]) for arrs in self.per_cpu)


class TraceCache:
    """Content-addressed cache of compiled traces.

    Two tiers: a small in-memory LRU (traces can be tens of MB) and an
    optional on-disk tier laid out like the harness ResultCache
    (``<root>/<sig[:2]>/<sig>.npz``, atomic writes).  The disk tier is
    enabled by :meth:`set_root` — the Session points it at
    ``<cache_dir>/traces`` so compiled traces live alongside cached
    results.
    """

    def __init__(self, root: "str | None" = None,
                 memory_entries: int = 8) -> None:
        self.root = root
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, CompiledTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def set_root(self, root: "str | None") -> None:
        """Point (or disable, with None) the on-disk tier."""
        self.root = root

    def _path(self, sig: str) -> str:
        return os.path.join(self.root, sig[:2], sig + ".npz")

    def get_or_compile(self, workload, num_cpus: int) -> CompiledTrace:
        """The compiled trace for ``workload`` (recording on a miss)."""
        sig = trace_signature(workload, num_cpus)
        trace = self._memory.get(sig)
        if trace is not None:
            self._memory.move_to_end(sig)
            self.hits += 1
            return trace
        trace = self._load_disk(sig)
        if trace is None:
            self.misses += 1
            trace = CompiledTrace(sig, [
                compile_stream(workload.generator(cid, num_cpus))
                for cid in range(num_cpus)])
            self._store_disk(trace)
        else:
            self.hits += 1
        self._memory[sig] = trace
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
        return trace

    def _load_disk(self, sig: str) -> "CompiledTrace | None":
        if self.root is None:
            return None
        try:
            with np.load(self._path(sig)) as data:
                ncpus = int(data["ncpus"])
                per_cpu = [
                    (data["c%d_addr" % i], data["c%d_w" % i],
                     data["c%d_gap" % i],
                     data["c%d_segs" % i].reshape(-1, 5),
                     data["c%d_mg" % i].reshape(-1, 2),
                     data["c%d_mt" % i].reshape(-1, 2))
                    for i in range(ncpus)]
        except (OSError, KeyError, ValueError):
            return None
        return CompiledTrace(sig, per_cpu)

    def _store_disk(self, trace: CompiledTrace) -> None:
        if self.root is None:
            return
        path = self._path(trace.signature)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        arrays = {"ncpus": np.int64(len(trace.per_cpu))}
        for i, (addr, w, gap, segs, mg, mt) in enumerate(trace.per_cpu):
            arrays["c%d_addr" % i] = addr
            arrays["c%d_w" % i] = w
            arrays["c%d_gap" % i] = gap
            arrays["c%d_segs" % i] = segs
            arrays["c%d_mg" % i] = mg
            arrays["c%d_mt" % i] = mt
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


#: Process-wide default trace cache (in-memory until a Session with an
#: on-disk result cache points the disk tier somewhere).
_DEFAULT_CACHE = TraceCache()


def default_trace_cache() -> TraceCache:
    """The process-wide :class:`TraceCache`."""
    return _DEFAULT_CACHE


def set_trace_cache_dir(root: "str | None") -> None:
    """Enable (or disable) the default cache's on-disk tier."""
    _DEFAULT_CACHE.set_root(root)


# ----------------------------------------------------------------------
# Replay: segment views + cursors + the vectorized machine.
# ----------------------------------------------------------------------

class _SegView:
    """One synchronization-bounded segment, pre-derived for a machine.

    Numpy views feed the vectorized claims; the plain-list twins feed
    the scalar fallback (python ints keep the interpreter slow path's
    integer arithmetic fast and exact).
    """

    __slots__ = ("n", "addr", "wb", "vpage", "lip", "cum", "cum_l",
                 "priv", "addr_l", "w_l", "gap_l", "gchunks", "multi",
                 "tail_gap", "tail_chunks", "end_kind", "end_arg")

    def __init__(self, addr, w, gap, vpage, lip, cum, priv, gchunks,
                 multi, tail_gap, tail_chunks, end_kind, end_arg) -> None:
        self.n = len(addr)
        self.addr = addr
        self.wb = w.view(bool)
        self.vpage = vpage
        self.lip = lip
        #: cum[j] = sum over i<=j of (gap[i] + ref_gap + l1_hit): the
        #: batched-hit clock, strictly increasing.
        self.cum = cum
        self.cum_l = cum.tolist()
        #: Per-reference "page is CPU-private machine-wide" mask, or
        #: None when the over-claim optimization is disabled (see
        #: VectorMachine._overclaim).
        self.priv = priv
        self.addr_l = addr.tolist()
        self.w_l = w.tolist()
        self.gap_l = gap.tolist()
        #: ``{pos: [chunk, ...]}`` for references whose compute gap
        #: came from several compute ops (None when the segment has
        #: none): the scalar path must charge those chunk by chunk,
        #: because the interpreter re-checks the limit between chunks.
        self.gchunks = gchunks
        #: Bool mask twin of ``gchunks`` (None when no multi-chunk
        #: gaps): over-claims must stop at a multi-chunk gap.
        self.multi = multi
        self.tail_gap = tail_gap
        self.tail_chunks = tail_chunks
        self.end_kind = end_kind
        self.end_arg = end_arg


class _Cursor:
    """Replay position of one CPU."""

    __slots__ = ("seg", "pos", "gap_taken", "gap_pos", "scalar_budget",
                 "pend_view", "pend_from", "pend_end", "pend_tb",
                 "pend_cumb", "pend_gap")

    def __init__(self) -> None:
        self.seg = 0
        self.pos = 0
        #: The pre-reference compute gap of ``pos`` has been charged
        #: (the CPU suspended between the gap and the reference).
        self.gap_taken = False
        #: Chunks of a multi-chunk gap already charged (the CPU can
        #: suspend between chunks, mid-gap).
        self.gap_pos = 0
        #: Remaining references to run scalar before retrying a claim.
        self.scalar_budget = 0
        #: Pending over-claimed batch: references whose state effects
        #: are already applied but whose interpreter suspension points
        #: the clock must still walk through (see _drain_pending).
        #: ``pend_end == 0`` means no pending batch.
        self.pend_view = None
        self.pend_from = 0
        self.pend_end = 0
        self.pend_tb = 0
        self.pend_cumb = 0
        self.pend_gap = False

    def advance(self) -> None:
        self.seg += 1
        self.pos = 0
        self.gap_taken = False


class VectorMachine(Machine):
    """A :class:`Machine` whose CPUs replay compiled traces.

    Identical substrates, scheduling and slow paths; only ``run``
    (compiles instead of holding generators) and the CPU turn
    (``_replay_turn``: vector claims + scalar fallback instead of
    generator dispatch) differ.  Statistics are byte-identical to the
    interpreter's.
    """

    def __init__(self, config: "MachineConfig | None" = None,
                 policy="scoma", page_cache_override=None,
                 schedule=None, faults=None,
                 deadline: "int | None" = None,
                 trace_cache: "TraceCache | None" = None) -> None:
        super().__init__(config, policy=policy,
                         page_cache_override=page_cache_override,
                         schedule=schedule, faults=faults,
                         deadline=deadline)
        self._trace_cache = (trace_cache if trace_cache is not None
                             else _DEFAULT_CACHE)
        # Dense L1 mirrors: the claim reads states with one gather.
        # Attached while the caches are empty, kept in sync by the
        # Cache mutation hooks (repro.mem.cache).
        imag_line_base = IMAGINARY_BASE * self._lpp
        for cpu in self.cpus:
            cpu.hierarchy.l1.attach_shadow(
                np.zeros(4096, dtype=np.int8), imag_line_base)
        self._segviews: "list[list[_SegView]]" = []
        self._cursors: "list[_Cursor]" = []
        self._claim_step = 0
        # Over-claim eligibility: hits on pages referenced by exactly
        # one CPU may be charged past the scheduler limit, because no
        # other CPU can observe or perturb the state they touch — no
        # sibling probe, invalidation or intervention ever names their
        # lines, and with unbounded page caches, no migration and no
        # fault plan, no kernel pageout/shootdown can evict them from
        # under the claim either (a fault plan never reaches replay: see
        # run()).  Their timestamps are computed with the exact
        # interpreter arithmetic, so every visible action keeps its
        # simulated time and results stay byte-identical.
        cfg = self.config
        self._overclaim = (not cfg.enable_migration
                           and cfg.page_cache_frames is None
                           and cfg.total_frames_per_node is None
                           and page_cache_override is None)
        #: Set when an instance-level ``_access`` wrap (a value tap or
        #: serving tap), a fault plan or a deadline forces the
        #: interpreter op path; see run().
        self._interp_mode = False

    # -- running -------------------------------------------------------

    def run(self, workload) -> RunResult:
        """Compile (or fetch) the workload's trace, then replay it."""
        workload.setup(self.layout, len(self.cpus))
        self._bind_workload_taps(workload)
        if ("_access" in self.__dict__ or self.faults is not None
                or self.deadline is not None):
            # A tap wrapped _access at instance level and must see every
            # reference, but the vectorized claim path batches L1 hits
            # without ever calling _access; a fault plan or a deadline
            # needs the per-key checks of the interpreter's loop.  Fall
            # back to the interpreter's op path for this run — stats
            # stay identical by the engines' byte-identity contract;
            # only host speed changes.
            self._interp_mode = True
            return self._run_interp(workload)
        self._ref_gap = getattr(workload, "cycles_per_ref", 3)
        self._claim_step = self._ref_gap + self._lat_l1_hit
        trace = self._trace_cache.get_or_compile(workload, len(self.cpus))
        private_pages = None
        if self._overclaim and len(trace.per_cpu) > 1:
            shift = self._page_shift
            per_cpu_pages = [np.unique(arrs[0] >> shift)
                             for arrs in trace.per_cpu]
            pages, counts = np.unique(np.concatenate(per_cpu_pages),
                                      return_counts=True)
            private_pages = pages[counts == 1]
        self._segviews = [self._build_views(arrs, private_pages)
                          for arrs in trace.per_cpu]
        self._cursors = [_Cursor() for _ in self.cpus]
        start = perf_counter()
        self._event_loop()
        wall = perf_counter() - start
        self._finalize()
        for tap in self._taps:
            tap.close()
        if self._obs is not None:
            self._obs.gauge("host.wall_seconds").set(round(wall, 6))
            self._obs.gauge("host.refs_per_sec").set(
                round(self.stats.references / wall, 1) if wall > 0 else 0.0)
        return RunResult(workload=workload.name, policy=self.policy.name,
                         config=self.config, stats=self.stats)

    def _build_views(self, arrs, private_pages) -> "list[_SegView]":
        """Derive per-segment views for this machine's geometry."""
        addr, w, gap, segs, mg, mt = arrs
        vpage = addr >> self._page_shift
        lip = (addr >> self._line_shift) & self._lip_mask
        priv = (np.isin(vpage, private_pages)
                if private_pages is not None else None)
        gdict: "dict[int, list[int]]" = {}
        for ref, chunk in mg.tolist():
            gdict.setdefault(ref, []).append(chunk)
        multi_all = None
        if gdict:
            multi_all = np.zeros(len(addr), dtype=bool)
            multi_all[list(gdict)] = True
        tdict: "dict[int, list[int]]" = {}
        for sidx, chunk in mt.tolist():
            tdict.setdefault(sidx, []).append(chunk)
        step = self._claim_step
        views = []
        rows = segs.tolist()
        for sidx, (start, end, tail_gap, end_kind, end_arg) in \
                enumerate(rows):
            if multi_all is not None and multi_all[start:end].any():
                gchunks = {ref - start: gdict[ref] for ref in gdict
                           if start <= ref < end}
                multi = multi_all[start:end]
            else:
                gchunks = None
                multi = None
            views.append(_SegView(
                addr[start:end], w[start:end], gap[start:end],
                vpage[start:end], lip[start:end],
                np.cumsum(gap[start:end] + step),
                priv[start:end] if priv is not None else None,
                gchunks, multi, tail_gap, tdict.get(sidx),
                end_kind, end_arg))
        return views

    # -- the replay dispatcher -----------------------------------------

    def _event_loop(self) -> None:
        """The interpreter's scheduler with an inlined drain turn.

        Identical turn structure and packed heap keys to
        ``Machine._event_loop``; a turn runs ``_replay_turn`` (vector
        claims plus scalar fallback) instead of generator dispatch, and
        CPUs whose cursor is mid pending-drain — the by far most common
        turn in lockstep phases — take an inlined copy of
        ``_drain_pending``'s arithmetic without the call.
        """
        if self._interp_mode:
            return Machine._event_loop(self)
        cpus = self.cpus
        shift = self._key_shift
        mask = (1 << shift) - 1
        heap = self._new_heap()
        cursors = self._cursors
        step = self._claim_step
        replay_turn = self._replay_turn
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        while heap:
            key = heappop(heap)
            while True:
                cid = key & mask
                cpu = cpus[cid]
                if cpu.done:
                    break
                t = key >> shift
                if t > cpu.time:
                    cpu.time = t
                rs = cursors[cid]
                if rs.pend_end and heap:
                    # Inline _drain_pending (keep the two in sync!).
                    limit = heap[0] >> shift
                    seg = rs.pend_view
                    cum = seg.cum_l
                    tb = rs.pend_tb
                    cumb = rs.pend_cumb
                    p = rs.pend_from
                    end = rs.pend_end
                    new_p = bisect_right(cum, limit - tb + cumb + step,
                                         p, end)
                    if new_p > p:
                        r = tb + cum[new_p - 1] - cumb
                        if new_p == end:
                            rs.pend_end = 0
                            rs.pend_view = None
                            rs.pend_gap = False
                            cpu.time = r
                            # Batch exhausted: the turn continues in
                            # normal replay below (_replay_turn re-checks
                            # r <= limit exactly as the interpreter).
                        else:
                            rs.pend_from = new_p
                            if r <= limit:
                                r = tb + cum[new_p] - cumb - step
                                rs.pend_gap = True
                            else:
                                rs.pend_gap = False
                            cpu.time = r
                            key = heappushpop(heap, r << shift | cid)
                            continue
                    elif not rs.pend_gap:
                        rs.pend_gap = True
                        r = tb + cum[p] - cumb - step
                        cpu.time = r
                        key = heappushpop(heap, r << shift | cid)
                        continue
                if replay_turn(cpu, heap[0] >> shift if heap else None):
                    break
                key = heappushpop(heap, cpu.time << shift | cid)
        self._check_all_done()

    def _replay_turn(self, cpu, limit: "int | None") -> bool:
        """Advance ``cpu`` along its compiled trace until its clock
        passes ``limit`` (None: no limit) or it parks.

        Returns True when the CPU is done or parked on a barrier or lock
        (a wake requeues it), False when it must be requeued now.
        """
        rs = self._cursors[cpu.cpu_id]
        segs = self._segviews[cpu.cpu_id]
        stats = cpu.stats
        time = cpu.time
        # Attribute load kept per entry (not hoisted at construction)
        # so TraceCollector's instance-level wrapping keeps working.
        access = self._access
        ref_gap = self._ref_gap
        obs_access = self._obs_access
        while limit is None or time <= limit:
            if rs.pend_end:
                # An over-claimed batch is already executed; walk the
                # clock through the interpreter's exact suspension
                # points so cross-CPU tie-breaking stays identical.
                time, drained = self._drain_pending(rs, limit)
                if drained:
                    continue
                cpu.time = time
                return False
            if rs.seg >= len(segs):  # pragma: no cover - defensive
                break
            seg = segs[rs.seg]
            pos = rs.pos
            if pos < seg.n:
                if (not rs.gap_taken and rs.scalar_budget <= 0
                        and rs.gap_pos == 0):
                    claimed, due = self._claim(cpu, seg, pos, time, limit)
                    if not claimed:
                        # A claim that opens on a miss paid its numpy
                        # setup for nothing; stay scalar for a stretch
                        # so miss-dominated phases approach interpreter
                        # cost instead of re-arming every reference.
                        rs.scalar_budget = _SCALAR_RUN
                    if claimed:
                        rs.pos = pos + claimed
                        if claimed < _SHORT_CLAIM:
                            rs.scalar_budget = _SCALAR_RUN
                        cum_l = seg.cum_l
                        cum_before = cum_l[pos - 1] if pos else 0
                        if due >= claimed:
                            time += cum_l[pos + claimed - 1] - cum_before
                            continue
                        # The batch ran past the limit on CPU-private
                        # pages: report the interpreter's clock, not
                        # the batch's end time.
                        rs.pend_view = seg
                        rs.pend_from = pos + due
                        rs.pend_end = pos + claimed
                        rs.pend_tb = time
                        rs.pend_cumb = cum_before
                        rs.pend_gap = False
                        if due:
                            reported = (time + cum_l[pos + due - 1]
                                        - cum_before)
                            if reported > limit:
                                cpu.time = reported
                                return False
                        continue
                # Scalar fallback: exactly the interpreter's
                # per-reference path (gap op, then _access).
                if not rs.gap_taken:
                    gch = seg.gchunks
                    if gch is None or (chunks := gch.get(pos)) is None:
                        rs.gap_taken = True
                        gap = seg.gap_l[pos]
                        if gap:
                            time += gap
                            continue
                    else:
                        # Multi-chunk gap: charge one compute op per
                        # loop pass so a mid-gap suspension requeues
                        # at the partial sum, as the interpreter does.
                        gp = rs.gap_pos
                        if gp < len(chunks):
                            rs.gap_pos = gp + 1
                            time += chunks[gp]
                            continue
                        rs.gap_pos = 0
                        rs.gap_taken = True
                is_write = seg.w_l[pos]
                issued = time + ref_gap
                time = access(cpu, seg.addr_l[pos], is_write, issued)
                stats.references += 1
                if is_write:
                    stats.writes += 1
                else:
                    stats.reads += 1
                if obs_access is not None:
                    obs_access.observe(time - issued)
                rs.pos = pos + 1
                rs.gap_taken = False
                if rs.scalar_budget > 0:
                    rs.scalar_budget -= 1
                continue
            # Segment terminator (mirrors the interpreter's op cases).
            if not rs.gap_taken:
                tch = seg.tail_chunks
                if tch is not None:
                    gp = rs.gap_pos
                    if gp < len(tch):
                        rs.gap_pos = gp + 1
                        time += tch[gp]
                        continue
                    rs.gap_pos = 0
                    rs.gap_taken = True
                else:
                    rs.gap_taken = True
                    if seg.tail_gap:
                        time += seg.tail_gap
                        continue
            kind = seg.end_kind
            if kind == END_BARRIER:
                cpu.time = time
                rs.advance()
                self._arrive(cpu, seg.end_arg, time)
                return True
            if kind == END_LOCK:
                granted = self.locks.acquire(seg.end_arg, cpu.cpu_id, time)
                rs.advance()
                if granted is None:
                    cpu.time = time
                    return True
                stats.lock_acquires += 1
                time = granted
                continue
            if kind == END_UNLOCK:
                time = self._unlock(cpu, seg.end_arg, time)
                rs.advance()
                continue
            # END_STREAM
            cpu.done = True
            cpu.time = time
            stats.finish_time = time
            return True
        cpu.time = time
        return False

    def _drain_pending(self, rs: _Cursor,
                       limit: "int | None") -> "tuple[int, bool]":
        """Walk the clock through an over-claimed batch's turns.

        The batch's state effects (cache/TLB/counter updates) were
        applied eagerly by ``_claim`` — safe, because the pages are
        CPU-private — but the scheduler must still observe exactly the
        suspension times the interpreter would have reported, or
        cross-CPU tie-breaking (lock FCFS order, resource queues) can
        flip at equal simulated times.  Each call replays one turn of
        the interpreter's arithmetic: execute every pending reference
        whose completion fits ``limit``, then (as the interpreter
        does) consume the *next* reference's compute gap if the clock
        is still within the turn.  Returns ``(time, drained)`` where
        ``drained`` means the batch is exhausted and normal replay
        resumes at ``time``.
        """
        seg = rs.pend_view
        cum = seg.cum_l
        tb, cumb = rs.pend_tb, rs.pend_cumb
        p, end = rs.pend_from, rs.pend_end
        step = self._claim_step
        if limit is None:
            rs.pend_end = 0
            rs.pend_view = None
            return tb + cum[end - 1] - cumb, True
        # Reference j completes this turn iff t_{j-1} + gap_j <= limit,
        # i.e. cum[j] - cumb - step <= limit - tb — a prefix.
        bound = limit - tb + cumb + step
        new_p = bisect_right(cum, bound, p, end)
        if new_p > p:
            rs.pend_gap = False
            reported = tb + cum[new_p - 1] - cumb
            if new_p == end:
                rs.pend_end = 0
                rs.pend_view = None
                return reported, True
            rs.pend_from = new_p
            if reported <= limit:
                # Interpreter would also consume the next reference's
                # gap before suspending (time += gap; continue; the
                # following issue check then fails).
                reported = tb + cum[new_p] - cumb - step
                rs.pend_gap = True
            return reported, False
        if not rs.pend_gap:
            rs.pend_gap = True
            return tb + cum[p] - cumb - step, False
        # pragma: no cover — loop entry guarantees time <= limit, so a
        # consumed gap implies the next issue fits and new_p > p above.
        return tb + cum[p] - cumb - step, False

    def _claim(self, cpu, seg: _SegView, pos: int, t0: int,
               limit: "int | None") -> "tuple[int, int]":
        """Charge a maximal batch of plain L1 hits from ``seg[pos:]``.

        Returns ``(claimed, due)``: ``claimed`` references were
        executed (their state effects and counters applied), of which
        the first ``due`` fit within ``limit`` under exactly the
        interpreter's condition ``t_before + gap <= limit``.  When
        ``due < claimed`` the excess references were over-claimed on
        CPU-private pages (see ``_overclaim``) and the caller must
        replay the clock through the pending-drain automaton.
        ``claimed == 0`` means the next reference is not provably a
        hit (or not yet due under ``limit``) and must go through the
        scalar path.  Every claimed reference satisfies the
        interpreter's hit conditions: its page is in the live TLB and
        its line is L1-resident in a state that needs no upgrade.
        """
        window = seg.n - pos
        if window > _WINDOW:
            window = _WINDOW
        cum = seg.cum
        cum_before = int(cum[pos - 1]) if pos else 0
        due = window
        if limit is not None:
            # Reference j executes this turn iff t_{j-1} + gap_j <=
            # limit, i.e. cum[pos+j] - cum_before - step <= limit - t0
            # — a prefix, since cum increases.
            bound = limit - t0 + self._claim_step + cum_before
            due = int(np.searchsorted(cum[pos:pos + window], bound,
                                      side="right"))
            if due < window:
                if seg.priv is not None:
                    # Past the limit, only contiguously CPU-private
                    # references may extend the claim (see _overclaim).
                    # A multi-chunk gap ends it too: the drain
                    # automaton charges gaps whole, but the limit can
                    # land between that gap's chunks, where the
                    # interpreter suspends at the partial sum — only
                    # the chunk-exact scalar walk reproduces that.
                    blocked = ~seg.priv[pos + due:pos + window]
                    if seg.multi is not None:
                        blocked |= seg.multi[pos + due:pos + window]
                    shared = np.flatnonzero(blocked)
                    window = due + (int(shared[0]) if shared.size
                                    else window - due)
                else:
                    window = due
            if window == 0:
                return 0, 0
        vp = seg.vpage[pos:pos + window]
        uniq, first_idx = np.unique(vp, return_index=True)
        tlb_map = cpu.tlb._map
        frames = np.empty(len(uniq), dtype=np.int64)
        cut = window
        for k, page in enumerate(uniq.tolist()):
            frame = tlb_map.get(page)
            if frame is None:
                first = int(first_idx[k])
                if first < cut:
                    cut = first
                frames[k] = -1
            else:
                frames[k] = frame
        if cut == 0:
            return 0, 0
        if cut < window:
            window = cut
            vp = vp[:window]
        fr = frames[np.searchsorted(uniq, vp)]
        line = fr * self._lpp + seg.lip[pos:pos + window]
        l1 = cpu.hierarchy.l1
        shadow = l1.shadow
        size = len(shadow)
        line_max = int(line.max())
        if line_max < size and line_max < SHADOW_IMAG_OFFSET:
            st = shadow[line]
        else:
            # Mixed / imaginary-frame lines: apply the mirror's index
            # fold (see repro.mem.cache); unmirrorable lines read as 0.
            imag_base = l1.shadow_imag_line
            imag = line >= imag_base
            idx = np.where(imag, line - imag_base + SHADOW_IMAG_OFFSET,
                           line)
            valid = (np.where(imag, idx < (SHADOW_IMAG_OFFSET << 1),
                              line < SHADOW_IMAG_OFFSET)
                     & (idx < size))
            st = np.where(valid, shadow[np.minimum(idx, size - 1)],
                          np.int8(0))
        wmask = seg.wb[pos:pos + window]
        ok = (st > 0) & (~wmask | (st >= 2))
        bad = np.flatnonzero(~ok)
        claimed = int(bad[0]) if bad.size else window
        if claimed == 0:
            return 0, 0
        line = line[:claimed]
        st = st[:claimed]
        wmask = wmask[:claimed]
        vp = vp[:claimed]
        # EXCLUSIVE-state writes take the same write_hit the
        # interpreter takes (repeats are idempotent: no counters).
        for j in np.flatnonzero(wmask & (st == 2)).tolist():
            cpu.hierarchy.write_hit(int(line[j]))
        # L1 LRU: per-hit move_to_end touches collapse to touching each
        # distinct line once, in last-occurrence order — exactly the
        # sequential result.
        rev = line[::-1]
        uline, uidx = np.unique(rev, return_index=True)
        sets = l1._sets
        num_sets = l1.num_sets
        for lid in uline[np.argsort(uidx)[::-1]].tolist():
            sets[lid % num_sets].move_to_end(lid)
        # TLB LRU: only page *transitions* touch the map (the same-page
        # memo path doesn't); same last-occurrence collapse.
        tlb = cpu.tlb
        prev = np.empty_like(vp)
        prev[0] = tlb.last_vpage
        prev[1:] = vp[:-1]
        trans = vp[prev != vp]
        if trans.size:
            upage, pidx = np.unique(trans[::-1], return_index=True)
            for page in upage[np.argsort(pidx)[::-1]].tolist():
                tlb_map.move_to_end(page)
        tlb.hits += claimed
        tlb.last_vpage = int(vp[-1])
        tlb.last_frame = int(fr[claimed - 1])
        l1.hits += claimed
        stats = cpu.stats
        stats.l1_hits += claimed
        stats.references += claimed
        writes = int(np.count_nonzero(wmask))
        stats.writes += writes
        stats.reads += claimed - writes
        if self._obs_access is not None:
            self._obs_access.observe_n(self._lat_l1_hit, claimed)
        return claimed, due


def build_machine(config: "MachineConfig | None" = None,
                  **kwargs) -> Machine:
    """Build the machine ``config.engine`` selects.

    ``"interp"`` (default) gives the per-reference interpreter,
    ``"vector"`` the trace-replay engine; both accept the same keyword
    arguments and produce byte-identical statistics.
    """
    cfg = config if config is not None else MachineConfig()
    if getattr(cfg, "engine", "interp") == "vector":
        return VectorMachine(cfg, **kwargs)
    return Machine(cfg, **kwargs)
