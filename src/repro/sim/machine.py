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
from time import perf_counter

from repro.core.controller import CoherenceController
from repro.core.directory import Directory, DirState
from repro.core.finegrain import Tag
from repro.core.migration import MigrationManager
from repro.core.modes import PageMode
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
from repro.obs import tracing
from repro.sim.config import MachineConfig
from repro.sim.engine import Barrier, LockTable, Resource, sample_utilization
from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_READ_RUN, OP_UNLOCK, OP_WRITE, OP_WRITE_RUN)
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
                 "time", "gen", "done", "run_state")

    def __init__(self, cpu_id: int, local_id: int, node: "Node",
                 config: MachineConfig) -> None:
        self.cpu_id = cpu_id
        self.local_id = local_id
        self.node = node
        self.hierarchy = CacheHierarchy(config.l1, config.l2)
        self.tlb = Tlb(config.tlb_entries)
        self.stats = CpuStats(cpu_id)
        self.time = 0
        self.gen = None
        self.done = False
        #: Suspended block op: (is_write, next_addr, stride, remaining),
        #: or None.  Set when a run op is preempted mid-run because the
        #: CPU's clock passed another CPU's event time.
        self.run_state = None


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
                                page_cache_frames=config.page_cache_frames,
                                total_frames=config.total_frames_per_node)
        from repro.core.pit import PageInformationTable
        self.pit = PageInformationTable(node_id, config.lines_per_page)
        self.directory = Directory(node_id, config.lines_per_page,
                                   config.directory_cache_entries)
        self.kernel_resource = Resource("node%d.kernel" % node_id)
        self.cpus: "list[Cpu]" = []
        self.controller = CoherenceController(self, machine)
        self.kernel: "NodeKernel | None" = None  # set by the machine


class DeadlineExceeded(RuntimeError):
    """The run passed its simulated-time deadline.

    Raised by the event loop when ``Machine(deadline=...)`` is set and a
    CPU's clock crosses it, and by the fault plane when a lost message
    would make a requester wait forever.  The chaos harness
    (``repro.faults.campaign``) uses it as the hang oracle: a resilient
    protocol either finishes or fails cleanly before any sane deadline.
    """


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

    @property
    def execution_cycles(self) -> int:
        """Wall-clock cycles of the parallel phase."""
        return self.stats.execution_cycles


class Machine:
    """A simulated PRISM machine."""

    def __init__(self, config: "MachineConfig | None" = None,
                 policy: "PageModePolicy | str" = "scoma",
                 page_cache_override: "list[int] | None" = None,
                 schedule=None, faults=None,
                 deadline: "int | None" = None) -> None:
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

        ``faults`` takes a :class:`~repro.faults.injector.FaultInjector`
        (or a bare :class:`~repro.faults.plan.FaultPlan`, wrapped with
        the default seed) and routes every inter-node hop through the
        fault plane; ``deadline`` bounds the run in simulated cycles
        (:class:`DeadlineExceeded` past it — the chaos hang oracle).
        Both default to ``None``, which keeps the fault-free fast paths
        and byte-identical results.
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
        #: Optional schedule perturbation; must be set before nodes are
        #: built so the controllers can hoist the jitter hook.
        self.schedule = schedule
        if schedule is not None:
            schedule.reset()
        #: Optional fault plane (``repro.faults``); like ``schedule``,
        #: must be set before nodes are built so the controllers can
        #: hoist the hook.  A bare FaultPlan is wrapped in an injector.
        if faults is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.plan import FaultPlan
            if isinstance(faults, FaultPlan):
                faults = FaultInjector(faults)
        self.faults = faults
        #: Simulated-cycle budget; None = unbounded.
        self.deadline = deadline
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
        if schedule is not None:
            self.network.jitter = schedule.next_jitter
        if faults is not None:
            self.network.faults = faults
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
        self._ref_gap = 3
        #: Called as ``hook(release_time)`` at every barrier release
        #: (verification: invariant walks at synchronization points).
        #: None keeps the barrier path a single attribute test.
        self._barrier_hook = None
        #: Workload-bound taps (closed after _finalize); see
        #: _bind_workload_taps.
        self._taps = []
        #: Nodes that have fail-stopped (section 3.3 failure model).
        self.failed_nodes: "set[int]" = set()
        self.stats = MachineStats(
            nodes=[n.stats for n in self.nodes],
            cpus=[c.stats for c in self.cpus])

        # Observability: pre-resolve the per-reference histogram handle
        # so the hot path pays one attribute test when disabled.
        self._obs = obs.current()
        self._obs_access = (
            self._obs.histogram("sim.access_latency_cycles",
                                policy=self.policy.name)
            if self._obs is not None else None)

        if faults is not None:
            faults.bind(self)

        # Causal tracing: opt-in like obs.  With no collector installed
        # the slow paths stay unwrapped, the network hook stays None
        # and simulated results are byte-identical.
        self._tracer = tracing.current()
        if self._tracer is not None:
            self._tracer.bind_machine(self)

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
        workload.setup(self.layout, len(self.cpus))
        self._bind_workload_taps(workload)
        # Instructions executed around each memory reference (address
        # arithmetic, loop control) — keeps issue rates realistic for an
        # in-order CPU instead of back-to-back memory operations.
        self._ref_gap = getattr(workload, "cycles_per_ref", 3)
        for cpu in self.cpus:
            cpu.gen = workload.generator(cpu.cpu_id, len(self.cpus))
        start = perf_counter()
        self._event_loop()
        wall = perf_counter() - start
        self._finalize()
        for tap in self._taps:
            tap.close()
        if self._obs is not None:
            # Host-side throughput, next to the simulated telemetry:
            # how fast the host chewed through this run's references.
            self._obs.gauge("host.wall_seconds").set(round(wall, 6))
            self._obs.gauge("host.refs_per_sec").set(
                round(self.stats.references / wall, 1) if wall > 0 else 0.0)
        return RunResult(workload=workload.name, policy=self.policy.name,
                         config=self.config, stats=self.stats)

    def _bind_workload_taps(self, workload) -> None:
        """Give ``workload`` its post-setup machine hook.

        A workload exposing ``bind_machine(machine)`` (the serving
        family's metrics tap, the 2PC chaos channel driver) is called
        here, after :meth:`setup` built its segments but before any op
        executes.  A returned object with a ``close()`` method is
        closed after the run's stats are finalized.
        """
        bind = getattr(workload, "bind_machine", None)
        if bind is None:
            return
        tap = bind(self)
        if tap is not None and hasattr(tap, "close"):
            self._taps.append(tap)

    def on_barrier_release(self, hook) -> None:
        """Install ``hook(release_time)`` to run at every barrier
        release (``None`` uninstalls).  The verification layer hangs
        machine-wide invariant walks here: barrier releases are the
        points where every CPU is quiescent, so cross-node state must
        be consistent."""
        self._barrier_hook = hook

    def _event_loop(self) -> None:
        """The scheduler: run CPUs in (time, cpu_id) order to completion.

        Heap entries are packed ints, ``time << shift | cpu_id`` (see
        ``_key_shift``), so ordering is exactly (time, cpu_id).  Each
        turn pops the earliest CPU and runs it inline until its clock
        passes the next heap key (``limit``) or it parks on a barrier or
        lock; a CPU still runnable hands off with one fused
        ``heappushpop``, which equals a push followed by a pop.

        With a fault plan or a deadline, every key taken from the heap
        is checked first: the deadline, scheduled node failures
        (``faults.on_tick``) and pause windows, which requeue the CPU at
        its release time.
        """
        cpus = self.cpus
        shift = self._key_shift
        mask = (1 << shift) - 1
        heap = self._new_heap()
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        faults = self.faults
        deadline = self.deadline
        guarded = faults is not None or deadline is not None
        # Hot locals, resolved once per run.  Workload taps have wrapped
        # self._access on the instance by now, so the wrapper is what
        # gets bound here.
        access = self._access
        ref_gap = self._ref_gap
        obs_access = self._obs_access
        while heap:
            key = heappop(heap)
            while True:
                t = key >> shift
                cid = key & mask
                if guarded:
                    if deadline is not None and t > deadline:
                        raise DeadlineExceeded(
                            "simulated-time deadline %d exceeded at cycle %d"
                            % (deadline, t))
                    if faults is not None:
                        faults.on_tick(self, t)
                        release = faults.release_time(
                            cpus[cid].node.node_id, t)
                        if release > t:
                            # The CPU's node is paused: it stalls until
                            # the pause window ends, then resumes.
                            key = heappushpop(heap, release << shift | cid)
                            continue
                cpu = cpus[cid]
                if cpu.done:
                    break
                time = cpu.time
                if t > time:
                    time = t
                limit = heap[0] >> shift if heap else _NO_LIMIT
                gen = cpu.gen
                stats = cpu.stats
                run = cpu.run_state
                while time <= limit:
                    if run is not None:
                        # Expand a block op inline: one generator resume
                        # bought `count` references; the limit check per
                        # reference keeps cross-CPU FCFS order exact.
                        is_write, addr, stride, count = run
                        while count:
                            issued = time + ref_gap
                            time = access(cpu, addr, is_write, issued)
                            stats.references += 1
                            if is_write:
                                stats.writes += 1
                            else:
                                stats.reads += 1
                            if obs_access is not None:
                                obs_access.observe(time - issued)
                            addr += stride
                            count -= 1
                            if time > limit:
                                break
                        run = ((is_write, addr, stride, count) if count
                               else None)
                        continue
                    op = next(gen, None)
                    if op is None:
                        cpu.done = True
                        cpu.time = time
                        stats.finish_time = time
                        break
                    kind = op[0]
                    if kind == OP_READ:
                        issued = time + ref_gap
                        time = access(cpu, op[1], False, issued)
                        stats.references += 1
                        stats.reads += 1
                        if obs_access is not None:
                            obs_access.observe(time - issued)
                    elif kind == OP_WRITE:
                        issued = time + ref_gap
                        time = access(cpu, op[1], True, issued)
                        stats.references += 1
                        stats.writes += 1
                        if obs_access is not None:
                            obs_access.observe(time - issued)
                    elif kind == OP_COMPUTE:
                        time += op[1]
                    elif kind == OP_READ_RUN:
                        if op[3] > 0:
                            run = (False, op[1], op[2], op[3])
                    elif kind == OP_WRITE_RUN:
                        if op[3] > 0:
                            run = (True, op[1], op[2], op[3])
                    elif kind == OP_BARRIER:
                        cpu.time = time
                        self._arrive(cpu, op[1], time)
                        break
                    elif kind == OP_LOCK:
                        granted = self.locks.acquire(op[1], cid, time)
                        if granted is None:
                            cpu.time = time
                            break
                        stats.lock_acquires += 1
                        time = granted
                    elif kind == OP_UNLOCK:
                        time = self._unlock(cpu, op[1], time)
                    else:
                        raise ValueError("unknown op %r from workload" % (op,))
                else:
                    # The clock passed the limit: requeue and hand off.
                    cpu.time = time
                    cpu.run_state = run
                    key = heappushpop(heap, time << shift | cid)
                    continue
                # Done, or parked until a barrier or lock wakes it.
                cpu.run_state = None
                break
        stuck = [c.cpu_id for c in cpus if not c.done]
        if stuck:
            raise RuntimeError(
                "deadlock: CPUs %r blocked with empty event heap "
                "(mismatched barriers or locks in the workload?)" % stuck)

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
            if self._obs is not None:
                self._sample_epoch(released[0][1])
            if self._barrier_hook is not None:
                self._barrier_hook(released[0][1])

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
        self.cpus[cpu_id].time = when
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
            # exact; the hit is still counted.
            frame = tlb.last_frame
            tlb.hits += 1
        else:
            # Tlb.lookup spelled out inline (same LRU touch, counters
            # and memo refresh) — one call less per new-page reference.
            frame = tlb._map.get(vpage)
            if frame is not None:
                tlb._map.move_to_end(vpage)
                tlb.hits += 1
                tlb.last_vpage = vpage
                tlb.last_frame = frame
            else:
                tlb.misses += 1
                kernel = cpu.node.kernel
                frame = kernel.page_table.get(vpage)
                if frame is None:
                    frame, now = kernel.fault(vpage, now)
                else:
                    if self._tracer is not None:
                        self._tracer.note_tlb(now, now + self._lat_tlb_miss)
                    now += self._lat_tlb_miss
                    cpu.stats.tlb_misses += 1
                tlb.insert(vpage, frame)
        lip = (vaddr >> self._line_shift) & self._lip_mask
        line = frame * self._lpp + lip

        # Front-line cache probe: one flat-dict lookup resolves the
        # dominant L1-hit case; the per-set LRU touch and hit counter
        # keep the replacement behaviour identical to Cache.lookup.
        hierarchy = cpu.hierarchy
        l1 = hierarchy.l1
        state = l1.flat.get(line)
        if state is not None:
            l1._sets[line % l1.num_sets].move_to_end(line)
            l1.hits += 1
            cpu.stats.l1_hits += 1
            if is_write and state != _MODIFIED:
                if state == _EXCLUSIVE:
                    hierarchy.write_hit(line)
                else:
                    return self._upgrade(cpu, frame, lip, line, now)
            return now + self._lat_l1_hit
        l1.misses += 1
        # The L2 half of CacheHierarchy.probe_l2, inlined the same way.
        l2 = hierarchy.l2
        state = l2.flat.get(line)
        if state is not None:
            l2._sets[line % l2.num_sets].move_to_end(line)
            l2.hits += 1
            hierarchy._promote_to_l1(line, state)
            cpu.stats.l2_hits += 1
            if is_write and state != _MODIFIED:
                if state == _EXCLUSIVE:
                    hierarchy.write_hit(line)
                else:
                    return self._upgrade(cpu, frame, lip, line, now)
            return now + self._lat_l2_hit
        l2.misses += 1
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
            if entry.tags.get(lip) != 2:  # Tag.EXCLUSIVE
                t = node.controller.fetch(entry, lip, True, True, t)
                remote = True
            node.kernel.touch_lru(frame)
        elif mode.is_remote_backed:
            # No tags behind imaginary/CC-NUMA frames: any upgrade must
            # ask the home (even if the node happens to own the line).
            t = node.controller.fetch(entry, lip, True, True, t)
            remote = True
        # Local mode (and post-grant cleanup): invalidate sibling copies.
        self._invalidate_siblings(node, cpu, line)
        cpu.hierarchy.write_hit(line)
        if remote:
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
            node.kernel.touch_lru(frame)
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
        node.presence.add(line, cpu.local_id)
        if lost:
            self._handle_lost(node, cpu, lost, t)
        if remote:
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
        tracer = self._tracer
        # Address phase, data phase and DRAM port occupancy are inlined
        # Resource.acquire calls (same FCFS arithmetic) — this function
        # runs once per local miss and the call overhead was measurable.
        bus.transactions += 1
        res = bus.address_path
        start = res.next_free if res.next_free > now else now
        if tracer is not None and start > now:
            tracer.add("bus_wait", "queue", node.node_id, now, start)
        t = start + self._lat_bus_request
        res.next_free = t
        res.busy_cycles += self._lat_bus_request
        res.acquisitions += 1
        dirty_sibling = None
        holders = node.presence._holders.get(line)
        if holders:
            for cid in holders:
                if node.cpus[cid].hierarchy.state(line) == _MODIFIED:
                    dirty_sibling = cid
                    break
        if dirty_sibling is not None:
            if tracer is not None:
                tracer.add("intervention", "mem", node.node_id, t,
                           t + self._lat_intervention)
            t += self._lat_intervention
            if entry.mode.is_remote_backed and not is_write:
                # No local memory behind the frame: the dirty data is
                # written back to the home as part of the share.
                node.controller.share_dirty_lanuma(entry, line & self._lip_mask, t)
            else:
                node.memory.write(t)
        else:
            memory = node.memory
            res = memory.port
            start = res.next_free if res.next_free > t else t
            if tracer is not None:
                if start > t:
                    tracer.add("mem_wait", "queue", node.node_id, t, start)
                tracer.add("dram", "mem", node.node_id, start,
                           start + self._lat_serve_mem)
            t = start + self._lat_serve_mem
            res.next_free = t
            res.busy_cycles += self._lat_serve_mem
            res.acquisitions += 1
            memory.reads += 1
        res = bus.data_path
        start = res.next_free if res.next_free > t else t
        if tracer is not None and start > t:
            tracer.add("data_wait", "queue", node.node_id, t, start)
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
        holders = node.presence._holders.get(line)
        if not holders:
            return
        keep = cpu.local_id
        for cid in list(holders):
            if cid != keep:
                node.cpus[cid].hierarchy.invalidate(line)
                node.presence.remove(line, cid)

    def _max_sibling_state(self, node: Node, line: int) -> LineState:
        best = _INVALID
        for cid in node.presence._holders.get(line, ()):
            state = node.cpus[cid].hierarchy.state(line)
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
            if vstate == _MODIFIED:
                if ventry.mode.is_remote_backed:
                    node.controller.evict_writeback(
                        ventry, vline & self._lip_mask, now)
                else:
                    node.memory.write(now)
            elif (ventry.mode.is_remote_backed
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

        ``now`` is the simulated failure time (for the obs event;
        ``-1`` when failed outside a run).
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
        obs.counter("sim.node_failures", node=str(node_id)).inc()
        obs.gauge("sim.failed_nodes").set(len(self.failed_nodes))
        if sharers_pruned or hints_reset:
            obs.counter("sim.failover_sharers_pruned").inc(sharers_pruned)
            obs.counter("sim.failover_hints_reset").inc(hints_reset)

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
        if self._obs is not None:
            self._publish_final_metrics()

    # ------------------------------------------------------------------
    # Observability (active only with a metrics registry installed).
    # ------------------------------------------------------------------

    def _sample_epoch(self, now: int) -> None:
        """Per-epoch telemetry, taken at each barrier release: resource
        utilization curves and page-cache occupancy per node."""
        sample_utilization(self._obs, self.shared_resources(), now)
        for node in self.nodes:
            self._obs.series("kernel.page_cache_frames",
                             node=node.node_id).sample(
                now, node.pools.client_scoma_in_use)

    def _publish_final_metrics(self) -> None:
        """End-of-run roll-ups: protocol message mix, PIT traffic and
        hit ratio, frame-pool occupancy gauges."""
        registry = self._obs
        pit_lookups = pit_hash = 0
        for node in self.nodes:
            for kind in sorted(node.msglog.sent, key=lambda k: k.name):
                registry.counter("core.protocol_messages",
                                 kind=kind.name).inc(node.msglog.sent[kind])
            pit_lookups += node.pit.lookups
            pit_hash += node.pit.hash_lookups
            registry.gauge("core.pit_fast_ratio", node=node.node_id).set(
                round(node.pit.fast_ratio(), 4))
            for pool, value in node.pools.occupancy().items():
                registry.gauge("kernel.frame_pool." + pool,
                               node=node.node_id).set(value)
        registry.counter("core.pit_lookups").inc(pit_lookups)
        registry.counter("core.pit_hash_lookups").inc(pit_hash)
        registry.gauge("core.pit_fast_ratio").set(
            round(1.0 - pit_hash / pit_lookups, 4) if pit_lookups else 1.0)
        registry.gauge("sim.execution_cycles").set(
            self.stats.execution_cycles)
        if self._tracer is not None:
            self._tracer.publish(registry)
