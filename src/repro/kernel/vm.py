"""The per-node kernel: virtual memory management and external paging.

PRISM runs an independent kernel on every node (section 3.3).  Each
kernel owns a *node-private* page table, per-mode frame pools, and the
run-time page-mode policy.  It cooperates with the local coherence
controller through the command-mode interface (PIT/tag installation)
and with remote kernels through paging messages — but never requires a
global TLB shootdown: unmapping a page only touches the local node's
CPUs, because translations are node private.

The fault paths implement section 3.3's External Paging rules:

* a home-node fault allocates and initializes a real frame and installs
  the PIT entry with all fine-grain tags Exclusive;
* a client-node fault first ensures the page is paged-in at the home
  (so a later cache miss can never trigger a remote page fault), then
  installs a frame in the mode chosen by the policy with tags Invalid;
* the home-page-status flag optimization makes repeat faults on a page
  skip the home round-trip.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.modes import PageMode
from repro.core.policies import PageModePolicy
from repro.interconnect.messages import MessageKind


class NodeKernel:
    """One node's operating system kernel."""

    def __init__(self, node, machine, policy: PageModePolicy) -> None:
        self.node = node
        self.machine = machine
        self.policy = policy
        self.lat = machine.config.latency

        #: Node-private page table: vpage -> frame.
        self.page_table: "dict[int, int]" = {}
        #: vpage that maps each frame (for TLB shootdown on page-out).
        self._vpage_of_frame: "dict[int, int]" = {}

        #: LRU order over client S-COMA frames; refreshed on page-cache
        #: hits and faults ("considers only accesses from local
        #: processors", section 4.2).
        self._client_lru: "OrderedDict[int, None]" = OrderedDict()

        #: Sticky per-page mode set by demotions (and cleared by
        #: promotions); consulted by the policy at fault time.
        self.page_mode_override: "dict[int, PageMode]" = {}

        #: Home-page-status flags (section 3.3): pages known to be
        #: resident at their home.
        self.home_status: "set[int]" = set()

        #: Remote refetch counters for LA-NUMA pages (dyn-bidir).
        self.refetch_counts: "dict[int, int]" = {}
        #: Frames queued for promotion to S-COMA mode; drained by the
        #: machine between references (a frame cannot be paged out in
        #: the middle of the access that is filling it).
        self.pending_promotions: "list[int]" = []

    # ------------------------------------------------------------------
    # Policy helpers.
    # ------------------------------------------------------------------

    @property
    def pit(self):
        """The local coherence controller's PIT (the Dyn-Util policy
        queries it for fine-grain tag counts)."""
        return self.node.pit

    def lru_client_frame(self) -> "int | None":
        """Least-recently-used client S-COMA frame, or None."""
        if not self._client_lru:
            return None
        return next(iter(self._client_lru))

    def client_scoma_frames(self):
        """All client S-COMA frames currently mapped at this node."""
        return self._client_lru.keys()

    # ------------------------------------------------------------------
    # Page faults.
    # ------------------------------------------------------------------

    def fault(self, vpage: int, now: int) -> "tuple[int, int]":
        """Service a page fault for ``vpage`` at time ``now``.

        Returns ``(frame, completion_time)``.
        """
        layout = self.machine.layout
        if not layout.is_mapped(vpage):
            raise RuntimeError(
                "segmentation fault: vpage %d unmapped at node %d"
                % (vpage, self.node.node_id))
        gpage = layout.gpage_of(vpage)
        if gpage is None:
            return self._fault_private(vpage, now)
        home = self.machine.dynamic_home_of(gpage)
        if home in self.machine.failed_nodes:
            from repro.core.controller import NodeFailedError
            raise NodeFailedError(
                "page-in of gpage %d needs failed home node %d"
                % (gpage, home))
        if home == self.node.node_id:
            return self._fault_home(vpage, gpage, now)
        return self._fault_client(vpage, gpage, home, now)

    def _fault_private(self, vpage: int, now: int) -> "tuple[int, int]":
        frame = self.node.pools.alloc_real()
        self.node.pit.install(frame, gpage=-1,
                              static_home=self.node.node_id,
                              dynamic_home=self.node.node_id,
                              home_frame=frame, mode=PageMode.LOCAL)
        self.page_table[vpage] = frame
        self._vpage_of_frame[frame] = vpage
        self.node.stats.page_faults_local_home += 1
        self.node.stats.frames_allocated += 1
        return frame, now + self.lat.expected_fault_local

    def _fault_home(self, vpage: int, gpage: int, now: int) -> "tuple[int, int]":
        frame = self.ensure_home_mapping(gpage)
        self.page_table[vpage] = frame
        self._vpage_of_frame[frame] = vpage
        self.node.stats.page_faults_local_home += 1
        return frame, now + self.lat.expected_fault_local

    def ensure_home_mapping(self, gpage: int) -> int:
        """Page ``gpage`` in at this (home) node if not already resident.

        Returns the home frame.  Called locally by home faults and
        remotely (as the home-side kernel work) by client faults.
        """
        page = self.node.directory.page(gpage)
        if page is not None:
            return page.home_frame
        frame = self.node.pools.alloc_real()
        self.node.pit.install(frame, gpage=gpage,
                              static_home=self.machine.static_home_of(gpage),
                              dynamic_home=self.node.node_id,
                              home_frame=frame, mode=PageMode.SCOMA)
        self.node.directory.create_page(gpage, frame)
        self.node.stats.frames_allocated += 1
        return frame

    def _fault_client(self, vpage: int, gpage: int, home: int,
                      now: int) -> "tuple[int, int]":
        # The page may already be backed here without a page-table entry
        # (a home migration left our old home frame behind as a client
        # frame): just wire up the translation.
        existing = self.node.pit.entry_for_gpage(gpage)
        if existing is not None:
            self.page_table[vpage] = existing.frame
            self._vpage_of_frame[existing.frame] = vpage
            self.node.stats.page_faults_local_home += 1
            return existing.frame, now + self.lat.expected_fault_local

        mode = self.policy.initial_mode(self, gpage)
        pools = self.node.pools
        done = now

        if mode == PageMode.SCOMA and pools.page_cache_full():
            action = self.policy.on_cache_full(self, gpage)
            if action.kind == "lanuma":
                mode = PageMode.LANUMA
            else:
                done = self.page_out_client(action.victim_frame, done,
                                            demote=action.demote)

        # Contact the home unless the home-page-status flag says the
        # page is already resident there (section 3.3 optimization,
        # enabled by config.home_status_flags).
        home_node = self.machine.nodes[home]
        home_frame = None
        if (self.machine.config.home_status_flags
                and gpage in self.home_status):
            dir_page = home_node.directory.page(gpage)
            home_frame = dir_page.home_frame if dir_page else None
            done += self.lat.expected_fault_local
            self.node.stats.page_faults_local_home += 1
        if home_frame is None:
            self.node.msglog.record(MessageKind.PAGE_IN_REQ)
            home_frame = home_node.kernel.ensure_home_mapping(gpage)
            home_node.kernel_resource.acquire(done, self.lat.fault_home_kernel)
            home_node.msglog.record(MessageKind.PAGE_IN_REPLY)
            for mark in self.machine.probes.mark:
                mark("page_in", "network", self.node.node_id, done,
                     done + self.lat.expected_fault_remote, home=home)
            done += self.lat.expected_fault_remote
            self.home_status.add(gpage)
            self.node.stats.page_faults_remote_home += 1
        home_node.directory.page(gpage).clients.add(self.node.node_id)

        if mode == PageMode.SCOMA:
            frame = pools.alloc_real(client_scoma=True)
            self._client_lru[frame] = None
            self.node.stats.frames_allocated += 1
            peak = pools.client_scoma_peak
            if peak > self.node.stats.scoma_client_frames_peak:
                self.node.stats.scoma_client_frames_peak = peak
        else:
            # LA-NUMA and CC-NUMA client frames consume no local memory.
            frame = pools.alloc_imaginary()
            self.node.stats.imaginary_frames_allocated += 1
        self.node.pit.install(frame, gpage=gpage,
                              static_home=self.machine.static_home_of(gpage),
                              dynamic_home=home, home_frame=home_frame,
                              mode=mode)
        self.page_table[vpage] = frame
        self._vpage_of_frame[frame] = vpage
        return frame, done

    # ------------------------------------------------------------------
    # Page-outs and mode changes.
    # ------------------------------------------------------------------

    def page_out_client(self, frame: int, now: int, demote: bool = False) -> int:
        """Page out a client frame (S-COMA or LA-NUMA).

        Writes modified data back to the home, removes this node from
        the page's directory state, tears down the local translation
        (local TLBs only — no global shootdown), and frees the frame.
        If ``demote``, the page's future faults at this node allocate
        LA-NUMA frames.  Returns the completion time.
        """
        pit = self.node.pit
        entry = pit.entry_or_none(frame)
        if entry is None:
            raise KeyError("page_out of unmapped frame %d" % frame)
        if not entry.mode.is_global or entry.dynamic_home == self.node.node_id:
            raise ValueError("page_out_client needs a client frame")
        gpage = entry.gpage
        is_scoma = entry.mode == PageMode.SCOMA

        owned = self.node.controller.flush_client_page(entry, now)
        # Kernel work + the synchronous notification round-trip to the
        # home kernel ("informs the home node's kernel of the page out",
        # section 3.3) + per-owned-line write-back issue.
        cost = (self.lat.pageout_kernel
                + 2 * self.lat.net_latency
                + self.lat.pageout_per_line * owned)
        self.node.msglog.record(MessageKind.CLIENT_PAGE_OUT)

        # Tear down local translations: page table, per-CPU TLBs.
        vpage = self._vpage_of_frame.pop(frame, None)
        if vpage is not None:
            self.page_table.pop(vpage, None)
            for cpu in self.node.cpus:
                cpu.tlb.invalidate(vpage)

        pit.remove(frame)
        self.machine.retire_frame_utilization(entry)
        self._client_lru.pop(frame, None)
        self.node.pools.free(frame, client_scoma=is_scoma)
        if is_scoma:
            self.node.stats.client_page_outs += 1
        if demote:
            self.page_mode_override[gpage] = PageMode.LANUMA
            self.node.stats.mode_demotions += 1
        return now + cost

    def note_lanuma_refetch(self, entry) -> None:
        """Count a remote fetch on a LA-NUMA page; queue a promotion if
        the policy supports it and the page is refetch-heavy
        (dyn-bidir).  The actual mode change happens between references
        via :meth:`drain_promotions`."""
        if not self.policy.promotes:
            return
        gpage = entry.gpage
        count = self.refetch_counts.get(gpage, 0) + 1
        if count >= self.policy.promote_threshold:
            self.refetch_counts[gpage] = 0
            self.pending_promotions.append(entry.frame)
        else:
            self.refetch_counts[gpage] = count

    def drain_promotions(self, now: int) -> int:
        """Apply queued LA-NUMA -> S-COMA promotions (dyn-bidir).

        Pages out the LA-NUMA frame and clears its mode override; the
        next fault re-maps the page in S-COMA mode.  Returns the time
        after the (kernel-side) work.
        """
        while self.pending_promotions:
            frame = self.pending_promotions.pop()
            entry = self.node.pit.entry_or_none(frame)
            if entry is None or entry.mode != PageMode.LANUMA:
                continue
            self.page_mode_override.pop(entry.gpage, None)
            now = self.page_out_client(frame, now)
            self.node.stats.mode_promotions += 1
        return now
