"""The simulated PRISM machine.

Glues together the substrates — CPUs with L1/L2 hierarchies and TLBs,
split-transaction buses, node memories, PITs, directories, coherence
controllers, per-node kernels, and the network — and runs workloads
over them with a discrete-event loop.

Execution model: every CPU runs a reference generator; the machine
interleaves CPUs in timestamp order (each CPU's next reference resolves
atomically, with contention modelled by resource next-free times — see
``repro.sim.engine``).  Barriers and locks park CPUs and wake them from
the releasing CPU's event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial

from repro.core.controller import CoherenceController
from repro.core.directory import Directory, DirState
from repro.core.finegrain import Tag
from repro.core.migration import MigrationManager
from repro.core.modes import PageMode
from repro.core.pit import PageInformationTable
from repro.core.policies import PageModePolicy, make_policy
from repro.interconnect.messages import MessageLog
from repro.interconnect.network import Network
from repro.kernel.frames import FramePools
from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.kernel.vm import NodeKernel
from repro.mem.bus import MemoryBus, NodeMemory
from repro.mem.cache import CacheHierarchy, LineState, NodePresence
from repro.mem.tlb import Tlb
from repro import obs
from repro.sim.config import MachineConfig
from repro.sim.engine import Barrier, LockTable, Resource
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_RUN, OP_UNLOCK, OP_WRITE)
from repro.sim.probes import (_CONTROLLER_METHODS, _KERNEL_METHODS,
                              _MACHINE_METHODS, _NETWORK_METHODS,
                              _POLICY_METHODS, POINTS, Probes)
from repro.sim.stats import CpuStats, MachineStats, NodeStats

# Hoisted line states and page modes: the reference fast path compares
# against plain module globals instead of resolving enum attributes per
# access.
_INVALID = LineState.INVALID
_SHARED = LineState.SHARED
_EXCLUSIVE = LineState.EXCLUSIVE
_MODIFIED = LineState.MODIFIED
_SCOMA = PageMode.SCOMA
_LANUMA = PageMode.LANUMA
_CCNUMA = PageMode.CCNUMA
_PM_LOCAL = PageMode.LOCAL

#: A turn's limit when no other CPU is queued: run until parked or done.
_NO_LIMIT = float("inf")


class Cpu:
    """One simulated processor."""

    __slots__ = ("cpu_id", "local_id", "node", "hierarchy", "tlb", "stats",
                 "done")

    def __init__(self, cpu_id: int, local_id: int, node: "Node",
                 config: MachineConfig) -> None:
        self.cpu_id = cpu_id
        self.local_id = local_id
        self.node = node
        self.hierarchy = CacheHierarchy(config.l1, config.l2)
        self.tlb = Tlb(config.tlb_entries)
        self.stats = CpuStats(cpu_id)
        #: Finished, or halted by its node's failure: the scheduler
        #: skips its keys.
        self.done = False


class Node:
    """One SMP node: CPUs, bus, memory, controller, kernel."""

    def __init__(self, node_id: int, machine: "Machine") -> None:
        config = machine.config
        self.node_id = node_id
        self.machine = machine
        self.stats = NodeStats(node_id)
        self.msglog = MessageLog()
        self.bus = MemoryBus(node_id, config.latency)
        self.memory = NodeMemory(node_id, config.latency)
        self.presence = NodePresence()
        self.pools = FramePools(node_id,
                                page_cache_frames=config.page_cache_frames)
        self.pit = PageInformationTable(node_id, config.lines_per_page)
        self.directory = Directory(node_id, config.lines_per_page,
                                   config.directory_cache_entries)
        self.kernel_resource = Resource("node%d.kernel" % node_id)
        self.cpus: "list[Cpu]" = []
        self.controller = CoherenceController(self, machine)
        self.kernel: "NodeKernel | None" = None  # set by the machine


@dataclass
class RunResult:
    """Outcome of one workload run."""

    workload: str
    policy: str
    config: MachineConfig
    stats: MachineStats
    #: Metrics-registry snapshot collected during the run (see
    #: ``repro.obs``), or None when observability was disabled.
    metrics: "dict[str, object] | None" = None
    #: Per-node client page-cache capacities the run was built with
    #: (``page_cache_override``), or None when it had none.
    page_cache_caps: "list[int] | None" = None


class Machine:
    """A simulated PRISM machine."""

    #: The event loop's heap pops; a fault plane wraps both (``__init__``).
    _heappop, _heappushpop = heapq.heappop, heapq.heappushpop

    def __init__(self, config: "MachineConfig | None" = None,
                 policy: "PageModePolicy | str" = "scoma",
                 page_cache_override: "list[int] | None" = None,
                 schedule=None, faults=None) -> None:
        """Build a machine.

        ``page_cache_override`` gives a per-node client page-cache
        capacity (in frames), as the SCOMA-70 experiment requires (70%
        of each node's SCOMA-run client frame count); it takes
        precedence over ``config.page_cache_frames``.

        ``schedule`` takes a
        :class:`~repro.sim.engine.SchedulePerturbation` that skews CPU
        start times and jitters network hop latencies — the protocol
        conformance suite (``repro.verify``) uses it to explore event
        orderings.  ``None`` (the default) is the unperturbed schedule
        and costs the hot path nothing.

        ``faults`` takes a :class:`~repro.faults.injector.FaultInjector`,
        which judges inter-node hops and checks the keys the event loop
        pops; ``None`` (the default) keeps the fault-free fast paths.
        """
        self.config = config if config is not None else MachineConfig()
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        if (page_cache_override is not None
                and len(page_cache_override) != self.config.num_nodes):
            raise ValueError("page_cache_override must have one entry per node")
        if self.config.enable_migration and self.policy.name == "ccnuma":
            raise ValueError(
                "CC-NUMA encodes home locations in physical addresses, so "
                "lazy home migration is impossible (section 5)")
        self._page_cache_override = page_cache_override
        #: Optional schedule perturbation (start skews and hop jitter).
        self.schedule = schedule
        if schedule is not None:
            schedule.reset()
        #: Optional fault plane (``repro.faults``).
        self.faults = faults
        cfg = self.config
        lat = cfg.latency

        page = cfg.page_bytes
        if page & (page - 1):
            raise ValueError("page size must be a power of two")
        line = cfg.line_bytes
        if line & (line - 1):
            raise ValueError("line size must be a power of two")
        self._page_shift = page.bit_length() - 1
        self._line_shift = line.bit_length() - 1
        self._lpp = cfg.lines_per_page
        self._lip_mask = self._lpp - 1
        # Hoisted hit latencies: the reference fast path reads these
        # instead of chasing config.latency per access.
        self._lat_l1_hit = lat.l1_hit
        self._lat_l2_hit = lat.l2_hit
        self._lat_tlb_miss = lat.tlb_miss
        self._lat_bus_request = lat.bus_request
        self._lat_bus_data = lat.bus_data
        self._lat_intervention = lat.intervention
        # DRAM port occupancy of a local miss service: the 36-cycle
        # local-memory figure minus the bus phases charged separately.
        self._lat_serve_mem = (lat.local_memory - lat.bus_request
                               - lat.bus_data)

        self.network = Network(cfg.num_nodes, lat)
        self.ipc = GlobalIpcServer(cfg.num_nodes, cfg.page_bytes)
        self.layout = AddressSpaceLayout(self.ipc, cfg.page_bytes)
        self.migration = MigrationManager(self)

        self.nodes: "list[Node]" = []
        self.cpus: "list[Cpu]" = []
        for n in range(cfg.num_nodes):
            node = Node(n, self)
            if page_cache_override is not None:
                node.pools.page_cache_frames = page_cache_override[n]
            node.kernel = NodeKernel(node, self, self.policy)
            for c in range(cfg.cpus_per_node):
                cpu = Cpu(len(self.cpus), c, node, cfg)
                node.cpus.append(cpu)
                self.cpus.append(cpu)
            self.nodes.append(node)
        #: Event-heap keys pack (time, cpu_id) into one int,
        #: ``time << _key_shift | cpu_id``, which orders exactly like the
        #: tuple.
        self._key_shift = (len(self.cpus) - 1).bit_length()

        self.locks = LockTable(cost=lat.lock_cost)
        self._barriers: "dict[int, Barrier]" = {}
        #: The probe bus (``repro.sim.probes``): every observer of the
        #: machine registers here.
        self.probes = Probes(self)
        # The send probes, innermost first: schedule jitter, the fault
        # plane (which re-sends through the jitter per attempt), then
        # the trace collector's hop spans.
        if schedule is not None:
            next_jitter = schedule.next_jitter

            def jitter(call, src, dst, now, kind):
                return call(src, dst, now, kind) + next_jitter()
            self.probes.add("send", jitter)
        #: Nodes that have fail-stopped (section 3.3 failure model).
        self.failed_nodes: "set[int]" = set()
        #: What the last ``fail_node`` scrubbed from the survivors:
        #: (sharer entries pruned, dynamic-home hints reset).
        self.last_scrub = (0, 0)
        self.stats = MachineStats(
            nodes=[n.stats for n in self.nodes],
            cpus=[c.stats for c in self.cpus])

        if faults is not None:
            faults.attach(self)
            # The per-key checks, around the event loop's heap pops.
            self._heappop = partial(faults.admit, heapq.heappop)
            self._heappushpop = partial(faults.admit, heapq.heappushpop)

        # The installed observers register their probes now or never.
        obs.attach(self)

    # ------------------------------------------------------------------
    # Home lookup.
    # ------------------------------------------------------------------

    def static_home_of(self, gpage: int) -> int:
        """The page's fixed static home (round robin)."""
        return self.ipc.home_of(gpage)

    def dynamic_home_of(self, gpage: int) -> int:
        """The page's current dynamic home (migratable)."""
        return self.migration.home_of(gpage)

    # ------------------------------------------------------------------
    # Running workloads.
    # ------------------------------------------------------------------

    def run(self, workload) -> RunResult:
        """Set up ``workload`` and simulate it to completion."""
        if self.probes.machine is None:
            raise RuntimeError("a closed machine cannot run again")
        workload.setup(self.layout, len(self.cpus))
        # A workload that observes its own run (the 2PC channel
        # driver) registers probes once its segments exist and before
        # any op executes.
        add_probes = getattr(workload, "add_probes", None)
        if add_probes is not None:
            add_probes(self)
        return self._run(workload)

    def close(self) -> None:
        """Free the simulated model once its results have been read.

        Ownership rule: whoever builds a machine and keeps only its
        results closes it.  A finished machine is a reference cycle
        (nodes, controllers, kernels, CPUs, the migration manager and
        the probe bus all point back at it, and every bound probe chain
        points at its owner), so without this its caches, directories
        and PITs wait for a full cyclic collection.  ``close`` empties
        every probe point, unbinds the chains and severs the
        back-references (the CPUs' drivers and op generators never
        outlive ``_run``); the model is then freed by reference counting
        as soon as the owner drops the machine.

        The returned :class:`RunResult` and ``self.stats`` stay valid,
        as does :meth:`resource_report`; the machine cannot run again.
        Closing twice is a no-op.
        """
        probes = self.probes
        # Probes._set(point, ()) for every point, spelled out so that
        # closing costs one call.
        for point in POINTS:
            setattr(probes, point, ())
        for method in _MACHINE_METHODS.values():
            vars(self).pop(method, None)
        for method in _NETWORK_METHODS.values():
            vars(self.network).pop(method, None)
        for method in _POLICY_METHODS.values():
            vars(self.policy).pop(method, None)
        probes.machine = None
        self.migration.machine = None
        if self.faults is not None:
            self.faults._machine = None
        for node in self.nodes:
            node.machine = None
            controller = node.controller
            for method in _CONTROLLER_METHODS.values():
                vars(controller).pop(method, None)
            controller.node = controller.machine = None
            kernel = node.kernel
            for method in _KERNEL_METHODS.values():
                vars(kernel).pop(method, None)
            kernel.node = kernel.machine = None
            for cpu in node.cpus:
                cpu.node = None

    def _run(self, workload) -> RunResult:
        """The scheduler: run the set-up ``workload``'s CPUs in (time,
        cpu_id) order to completion (the ``run`` probe point).

        Heap entries are packed ints, ``time << shift | cpu_id`` (see
        ``_key_shift``), so ordering is exactly (time, cpu_id).  Each
        CPU's op loop is a generator, its driver (:meth:`_drive`).  Each
        turn pops the earliest key and resumes that CPU's driver with
        it; a driver that yields a clock is still runnable and hands off
        with one fused ``heappushpop``, which equals a push followed by a
        pop.  A CPU halted by its node's failure is skipped.

        Both pops are heapq's own, or with a fault plane
        ``partial(faults.admit, pop)``, which checks each key first
        (deadline, failures, pauses); the loop body is the same.

        ``CpuStats.references`` is set from ``reads + writes`` when the
        run ends, also when it raises.
        """
        cpus = self.cpus
        # Instructions executed around each memory reference (address
        # arithmetic, loop control) — keeps issue rates realistic for an
        # in-order CPU instead of back-to-back memory operations.
        ref_gap = getattr(workload, "cycles_per_ref", 3)
        shift = self._key_shift
        mask = (1 << shift) - 1
        heap = self._new_heap()
        # The drivers live in this frame only, never on a Cpu, so no
        # suspended frame outlives the run pointing back at the machine.
        drivers = [self._drive(cpu, workload.generator(cpu.cpu_id, len(cpus)),
                               heap, ref_gap)
                   for cpu in cpus]
        heappop = self._heappop
        heappushpop = self._heappushpop
        try:
            for driver in drivers:
                next(driver)        # each waits for its first key
            while heap:
                key = heappop(heap)
                while True:
                    cid = key & mask
                    if cpus[cid].done:
                        break
                    time = drivers[cid].send(key)
                    if time is None:
                        # Parked until a barrier or lock wakes it, or done.
                        break
                    key = heappushpop(heap, time << shift | cid)
        finally:
            for driver in drivers:
                driver.close()
            for cpu in cpus:
                stats = cpu.stats
                stats.references = stats.reads + stats.writes
        stuck = [c.cpu_id for c in cpus if not c.done]
        if stuck:
            raise RuntimeError(
                "deadlock: CPUs %r blocked with empty event heap "
                "(mismatched barriers or locks in the workload?)" % stuck)
        self._finalize()
        return RunResult(workload=workload.name, policy=self.policy.name,
                         config=self.config, stats=self.stats,
                         page_cache_caps=self._page_cache_override)

    def _drive(self, cpu: Cpu, gen, heap: "list[int]", ref_gap: int):
        """One CPU's op loop, as a generator that ``_run`` resumes with
        each key it pops for the CPU.

        A turn runs ops until the CPU's clock passes the limit, the
        earliest key left in the heap, and yields the clock; parked on a
        barrier or lock, or finished, it yields ``None``.  A run op
        checks the limit after every reference, so cross-CPU FCFS order
        is exact, and a run preempted mid-run resumes where it stopped.

        Every key pushed for a CPU carries a time at or past its clock
        (a hand-off its clock, a wake its release, a pause its end, the
        first its start skew), so each turn starts at the key's time and
        reads the limit once.
        """
        shift = self._key_shift
        # Resolved when ``_run`` primes the driver: access probes are
        # bound on the instance as one composed chain by then, so the
        # chain (or the plain method, with none registered) is bound.
        access = self._access
        stats = cpu.stats
        cid = cpu.cpu_id
        time = (yield) >> shift
        limit = heap[0] >> shift if heap else _NO_LIMIT
        for op in gen:
            kind = op[0]
            if kind == OP_READ:
                time = access(cpu, op[1], False, time + ref_gap)
                stats.reads += 1
            elif kind == OP_WRITE:
                time = access(cpu, op[1], True, time + ref_gap)
                stats.writes += 1
            elif kind == OP_COMPUTE:
                time += op[1]
            elif kind == OP_RUN:       # (a count of 0 runs nothing)
                # Expand a run op inline: one generator resume buys
                # `count` references.
                addr = op[1]
                stride = op[2]
                pos = op[5]
                for flag in op[4][pos:pos + op[3]]:
                    if flag:
                        time = access(cpu, addr, True, time + ref_gap)
                        stats.writes += 1
                    else:
                        time = access(cpu, addr, False, time + ref_gap)
                        stats.reads += 1
                    addr += stride
                    if time > limit:
                        time = (yield time) >> shift
                        limit = heap[0] >> shift if heap else _NO_LIMIT
                continue
            elif kind == OP_BARRIER:
                self._arrive(cpu, op[1], time)
                time = (yield) >> shift
                limit = heap[0] >> shift if heap else _NO_LIMIT
                continue
            elif kind == OP_LOCK:
                granted = self.locks.acquire(op[1], cid, time)
                if granted is None:
                    time = (yield) >> shift
                    limit = heap[0] >> shift if heap else _NO_LIMIT
                    continue
                stats.lock_acquires += 1
                time = granted
            elif kind == OP_UNLOCK:
                time = self._unlock(cpu, op[1], time)
            else:
                raise ValueError("unknown op %r from workload" % (op,))
            if time > limit:
                # The clock passed the limit: hand off.
                time = (yield time) >> shift
                limit = heap[0] >> shift if heap else _NO_LIMIT
        cpu.done = True
        stats.finish_time = time
        yield

    def _new_heap(self) -> "list[int]":
        """The event heap at the start of a run: every CPU's packed key
        at its start time (schedule skews applied)."""
        shift = self._key_shift
        schedule = self.schedule
        heap = [(schedule.cpu_offset(cid) if schedule is not None else 0)
                << shift | cid for cid in range(len(self.cpus))]
        heapq.heapify(heap)
        self._heap = heap
        return heap

    def _arrive(self, cpu: Cpu, bid: int, now: int) -> None:
        """``cpu`` reaches barrier ``bid`` at ``now``; the last arrival
        wakes every party."""
        cpu.stats.barrier_waits += 1
        barrier = self._barriers.get(bid)
        if barrier is None:
            barrier = Barrier(parties=len(self.cpus),
                              cost=self.config.latency.barrier_cost)
            self._barriers[bid] = barrier
        released = barrier.arrive(cpu.cpu_id, now)
        if released is not None:
            for rcid, rtime in released:
                self._wake(rcid, rtime)
            for probe in self.probes.barrier:
                probe(released[0][1])

    def _unlock(self, cpu: Cpu, lid: int, now: int) -> int:
        """``cpu`` releases lock ``lid``, handing it to the next waiter;
        returns the releaser's clock after the release."""
        woken = self.locks.release(lid, cpu.cpu_id, now)
        if woken is not None:
            wcid, wtime = woken
            self.cpus[wcid].stats.lock_acquires += 1
            self._wake(wcid, wtime)
        return now + 1

    def _wake(self, cpu_id: int, when: int) -> None:
        heapq.heappush(self._heap, when << self._key_shift | cpu_id)

    # ------------------------------------------------------------------
    # The memory reference path.
    # ------------------------------------------------------------------

    def _access(self, cpu: Cpu, vaddr: int, is_write: bool, now: int) -> int:
        vpage = vaddr >> self._page_shift
        tlb = cpu.tlb
        if vpage == tlb.last_vpage:
            # Front-line TLB memo: same page as the previous reference.
            # The entry is already MRU, so skipping the LRU touch is
            # exact.
            frame = tlb.last_frame
        else:
            # The TLB lookup, inline: a hit moves the page to the MRU
            # end and refreshes the memo.
            frame = tlb._map.get(vpage)
            if frame is not None:
                tlb._map.move_to_end(vpage)
                tlb.last_vpage = vpage
                tlb.last_frame = frame
            else:
                kernel = cpu.node.kernel
                frame = kernel.page_table.get(vpage)
                if frame is None:
                    frame, now = kernel.fault(vpage, now)
                else:
                    for mark in self.probes.mark:
                        mark("tlb_reload", "tlb", cpu.node.node_id, now,
                             now + self._lat_tlb_miss)
                    now += self._lat_tlb_miss
                    cpu.stats.tlb_misses += 1
                tlb.insert(vpage, frame)
        lip = (vaddr >> self._line_shift) & self._lip_mask
        line = frame * self._lpp + lip

        # Front-line cache probe: one flat-dict lookup resolves the
        # dominant L1-hit case; a hit moves the line to the end of its
        # set's LRU list (nothing to do when it is already there).
        hierarchy = cpu.hierarchy
        l1 = hierarchy.l1
        state = l1.flat.get(line)
        if state is not None:
            lru = l1._sets[line % l1.num_sets]
            if lru[-1] != line:
                lru.remove(line)
                lru.append(line)
            cpu.stats.l1_hits += 1
            if is_write and state != _MODIFIED:
                if state == _EXCLUSIVE:
                    hierarchy.write_hit(line)
                else:
                    return self._upgrade(cpu, frame, lip, line, now)
            return now + self._lat_l1_hit
        # The L2 lookup, inlined the same way.
        l2 = hierarchy.l2
        state = l2.flat.get(line)
        if state is not None:
            lru = l2._sets[line % l2.num_sets]
            if lru[-1] != line:
                lru.remove(line)
                lru.append(line)
            hierarchy._promote_to_l1(line, state)
            cpu.stats.l2_hits += 1
            if is_write and state != _MODIFIED:
                if state == _EXCLUSIVE:
                    hierarchy.write_hit(line)
                else:
                    return self._upgrade(cpu, frame, lip, line, now)
            return now + self._lat_l2_hit
        return self._miss(cpu, frame, lip, line, is_write, now)

    def _upgrade(self, cpu: Cpu, frame: int, lip: int, line: int,
                 now: int) -> int:
        """Write to a SHARED copy in this CPU's cache."""
        node = cpu.node
        dense = node.pit.dense_real
        entry = (dense[frame] if frame < len(dense)
                 else node.pit.entry_or_none(frame))
        mode = entry.mode
        t = node.bus.request(now)
        remote = False
        if mode == _SCOMA:
            if entry.tags.tags[lip] != 2:  # Tag.EXCLUSIVE
                t = node.controller.fetch(entry, lip, True, True, t)
                remote = True
            # A page-cache access refreshes the client frame's recency.
            lru = node.kernel._client_lru
            if frame in lru:
                lru.move_to_end(frame)
        elif mode == _LANUMA or mode == _CCNUMA:
            # No tags behind imaginary/CC-NUMA frames: any upgrade must
            # ask the home (even if the node happens to own the line).
            t = node.controller.fetch(entry, lip, True, True, t)
            remote = True
        # Local mode (and post-grant cleanup): invalidate sibling copies.
        self._invalidate_siblings(node, cpu, line)
        cpu.hierarchy.write_hit(line)
        if remote:
            if node.kernel.pending_promotions:
                t = node.kernel.drain_promotions(t)
            if self.migration.enabled:
                self.migration.drain()
        return t

    def _miss(self, cpu: Cpu, frame: int, lip: int, line: int,
              is_write: bool, now: int) -> int:
        node = cpu.node
        dense = node.pit.dense_real
        entry = (dense[frame] if frame < len(dense)
                 else node.pit.entry_or_none(frame))
        if entry is None:
            raise RuntimeError("miss on unmapped frame %d at node %d"
                               % (frame, node.node_id))
        entry.touched |= 1 << lip
        mode = entry.mode
        fill_state = _MODIFIED if is_write else _SHARED
        remote = False

        if mode == _SCOMA:
            tag = entry.tags.tags[lip]
            if tag == 2:  # EXCLUSIVE: page cache services the miss
                t = self._serve_local(cpu, line, is_write, now, entry)
                node.stats.local_misses += 1
                if not is_write and line not in node.presence._holders:
                    fill_state = _EXCLUSIVE
            elif tag == 1:  # SHARED
                if is_write:
                    t = node.bus.request(now)
                    t = node.controller.fetch(entry, lip, True, True, t)
                    self._invalidate_siblings(node, cpu, line)
                    remote = True
                else:
                    t = self._serve_local(cpu, line, is_write, now, entry)
                    node.stats.local_misses += 1
            else:  # INVALID
                t = node.bus.request(now)
                t = node.controller.fetch(entry, lip, is_write, False, t)
                node.memory.write(t)  # line lands in the page cache too
                remote = True
            # A page-cache access refreshes the client frame's recency.
            lru = node.kernel._client_lru
            if frame in lru:
                lru.move_to_end(frame)
        elif mode == _LANUMA or mode == _CCNUMA:
            if line in node.presence._holders:
                sib_state = self._max_sibling_state(node, line)
                if is_write:
                    if sib_state >= _EXCLUSIVE:
                        # Node-exclusive: sibling cache supplies locally.
                        t = self._serve_local(cpu, line, True, now, entry)
                        node.stats.local_misses += 1
                    else:
                        t = node.bus.request(now)
                        t = node.controller.fetch(entry, lip, True, True, t)
                        self._invalidate_siblings(node, cpu, line)
                        remote = True
                else:
                    t = self._serve_local(cpu, line, False, now, entry)
                    node.stats.local_misses += 1
            else:
                t = node.bus.request(now)
                t = node.controller.fetch(entry, lip, is_write, False, t)
                remote = True
        elif mode == _PM_LOCAL:
            t = self._serve_local(cpu, line, is_write, now, entry)
            node.stats.local_misses += 1
            if not is_write and line not in node.presence._holders:
                fill_state = _EXCLUSIVE
        else:
            raise RuntimeError("access to frame in mode %s" % mode.name)

        lost = cpu.hierarchy.fill(line, fill_state)
        holders = node.presence._holders
        holders[line] = holders.get(line, 0) | 1 << cpu.local_id
        if lost:
            self._handle_lost(node, cpu, lost, t)
        if remote:
            if node.kernel.pending_promotions:
                t = node.kernel.drain_promotions(t)
            if self.migration.enabled:
                self.migration.drain()
        return t

    def _serve_local(self, cpu: Cpu, line: int, is_write: bool, now: int,
                     entry) -> int:
        """Service a miss from local memory or a sibling CPU's cache.

        Uncontended cost: 36 cycles clean (Table 1 "line in local
        memory"), 61 when a dirty sibling copy must be pulled out by a
        bus intervention.
        """
        node = cpu.node
        bus = node.bus
        marks = self.probes.mark
        # Address phase, data phase and DRAM port occupancy are inlined
        # Resource.acquire calls (same FCFS arithmetic) — this function
        # runs once per local miss and the call overhead was measurable.
        bus.transactions += 1
        res = bus.address_path
        start = res.next_free if res.next_free > now else now
        if marks and start > now:
            for mark in marks:
                mark("bus_wait", "queue", node.node_id, now, start)
        t = start + self._lat_bus_request
        res.next_free = t
        res.busy_cycles += self._lat_bus_request
        res.acquisitions += 1
        dirty_sibling = None
        mask = node.presence._holders.get(line, 0)
        # Each holder's bit, lowest first; CacheHierarchy.state read off
        # the flat mirrors: the L1 state, when resident, is the CPU's.
        while mask:
            low = mask & -mask
            mask ^= low
            cid = low.bit_length() - 1
            hierarchy = node.cpus[cid].hierarchy
            state = hierarchy.l1.flat.get(line)
            if state is None:
                state = hierarchy.l2.flat.get(line)
            if state == _MODIFIED:
                dirty_sibling = cid
                break
        if dirty_sibling is not None:
            for mark in marks:
                mark("intervention", "mem", node.node_id, t,
                     t + self._lat_intervention)
            t += self._lat_intervention
            if entry.mode.is_remote_backed and not is_write:
                # No local memory behind the frame: the dirty data is
                # written back to the home as part of the share.
                node.controller.share_dirty_lanuma(entry, line & self._lip_mask, t)
            else:
                node.memory.write(t)
        else:
            res = node.memory.port
            start = res.next_free if res.next_free > t else t
            for mark in marks:
                if start > t:
                    mark("mem_wait", "queue", node.node_id, t, start)
                mark("dram", "mem", node.node_id, start,
                     start + self._lat_serve_mem)
            t = start + self._lat_serve_mem
            res.next_free = t
            res.busy_cycles += self._lat_serve_mem
            res.acquisitions += 1
        res = bus.data_path
        start = res.next_free if res.next_free > t else t
        if marks and start > t:
            for mark in marks:
                mark("data_wait", "queue", node.node_id, t, start)
        t = start + self._lat_bus_data
        res.next_free = t
        res.busy_cycles += self._lat_bus_data
        res.acquisitions += 1
        if is_write:
            self._invalidate_siblings(node, cpu, line)
        elif dirty_sibling is not None:
            node.cpus[dirty_sibling].hierarchy.downgrade(line)
        return t

    def _invalidate_siblings(self, node: Node, cpu: Cpu, line: int) -> None:
        holders = node.presence._holders
        mask = holders.get(line, 0)
        keep = 1 << cpu.local_id
        others = mask & ~keep
        if not others:
            return
        while others:  # each sibling's bit, lowest first
            low = others & -others
            others ^= low
            node.cpus[low.bit_length() - 1].hierarchy.invalidate(line)
        if mask & keep:
            holders[line] = keep
        else:
            del holders[line]

    def _max_sibling_state(self, node: Node, line: int) -> LineState:
        best = _INVALID
        mask = node.presence._holders.get(line, 0)
        while mask:  # each holder's bit, lowest first
            low = mask & -mask
            mask ^= low
            state = node.cpus[low.bit_length() - 1].hierarchy.state(line)
            if state > best:
                best = state
        return best

    def _handle_lost(self, node: Node, cpu: Cpu, lost, now: int) -> None:
        """Process lines evicted from a CPU hierarchy during a fill."""
        pit = node.pit
        dense = pit.dense_real
        dense_len = len(dense)
        local_id = cpu.local_id
        for vline, vstate in lost:
            node.presence.remove(vline, local_id)
            vframe = vline // self._lpp
            ventry = (dense[vframe] if vframe < dense_len
                      else pit.entry_or_none(vframe))
            if ventry is None:
                continue
            mode = ventry.mode
            remote_backed = mode == _LANUMA or mode == _CCNUMA
            if vstate == _MODIFIED:
                if remote_backed:
                    node.controller.evict_writeback(
                        ventry, vline & self._lip_mask, now)
                else:
                    node.memory.write(now)
            elif (remote_backed
                  and vstate == _EXCLUSIVE
                  and vline not in node.presence._holders):
                node.controller.replacement_hint(
                    ventry, vline & self._lip_mask, now)

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int, now: int = -1) -> None:
        """Fail-stop a node (section 3.3's failure model).

        The node's CPUs halt and its resources become unreachable.
        Surviving nodes keep running: their translations are private and
        their physical addresses never name the dead node's memory, so
        only transactions that *need* the dead node (pages homed or
        owned there) fail — with :class:`NodeFailedError`, the simulated
        analogue of terminating the applications using that node.

        Survivor state is scrubbed eagerly rather than lazily at each
        later miss: the dead node is pruned from every surviving
        directory's sharer lists (a SHARED line with no sharers left
        reverts to HOME_EXCL, like a replacement hint would) and from
        client lists, and surviving PIT entries whose dynamic-home hint
        still points at the corpse are reset to the true home so later
        requests don't chase a forwarding chain through it.  A line
        *owned* by the dead node stays owned — the only valid copy died
        with it, and touching it keeps raising ``NodeFailedError``.

        ``now`` is the simulated failure time (for the obs event and
        the ``node_fail`` probes; ``-1`` when failed outside a run).
        """
        if not 0 <= node_id < len(self.nodes):
            raise ValueError("no node %d" % node_id)
        if node_id in self.failed_nodes:
            return
        self.failed_nodes.add(node_id)
        for cpu in self.nodes[node_id].cpus:
            cpu.done = True
        sharers_pruned = 0
        hints_reset = 0
        for node in self.nodes:
            if node.node_id in self.failed_nodes:
                continue
            for dir_page in node.directory.pages():
                dir_page.clients.discard(node_id)
                home_entry = (node.pit.entry_or_none(dir_page.home_frame)
                              if dir_page.home_frame is not None else None)
                home_tags = home_entry.tags if home_entry is not None else None
                for lip, dl in enumerate(dir_page.lines):
                    if node_id in dl.sharers:
                        dl.sharers.discard(node_id)
                        sharers_pruned += 1
                        if dl.state == DirState.SHARED and not dl.sharers:
                            dl.state = DirState.HOME_EXCL
                            dl.owner = -1
                            if home_tags is not None:
                                home_tags.set(lip, Tag.EXCLUSIVE)
            for entry in node.pit.frames():
                if entry.gpage >= 0 and entry.dynamic_home == node_id:
                    true_home = self.dynamic_home_of(entry.gpage)
                    if true_home != node_id:
                        entry.dynamic_home = true_home
                        entry.home_frame = None
                        hints_reset += 1
        self.last_scrub = (sharers_pruned, hints_reset)
        for probe in self.probes.node_fail:
            probe(node_id, now)

    def shared_resources(self) -> "list[Resource]":
        """Every shared hardware resource (buses, memory ports,
        controllers, kernels, network interfaces)."""
        resources: "list[Resource]" = []
        for node in self.nodes:
            resources += (node.bus.address_path, node.bus.data_path,
                          node.memory.port, node.controller.resource,
                          node.kernel_resource)
        resources += self.network.interfaces
        return resources

    def resource_report(self) -> "dict[str, float]":
        """Busy fraction of every shared hardware resource over the run.

        Useful for locating the bottleneck of a workload/policy pair
        (home controller saturation, bus pressure, NI injection...).
        """
        total = self.stats.execution_cycles
        return {resource.name: resource.utilization(total)
                for resource in self.shared_resources()}

    def hottest_resources(self, top: int = 5) -> "list[tuple[str, float]]":
        """The ``top`` busiest resources, descending."""
        report = self.resource_report()
        ranked = sorted(report.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:top]

    def retire_frame_utilization(self, entry) -> None:
        """Account a retired frame's utilization (Table 3)."""
        if not entry.mode.is_real:
            return
        self.stats.frames_allocated_total += 1
        self.stats.touched_line_fraction_sum += (
            entry.touched_lines() / self._lpp)

    def _finalize(self) -> None:
        self.stats.execution_cycles = max(
            (c.stats.finish_time for c in self.cpus), default=0)
        for node in self.nodes:
            for entry in node.pit.frames():
                self.retire_frame_utilization(entry)
            self.stats.directory_cache_hits += node.directory.cache.hits
            self.stats.directory_cache_misses += node.directory.cache.misses
