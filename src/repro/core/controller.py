"""The PRISM coherence controller (sections 3.1-3.2, 3.4).

One controller per node.  It dispatches on the *mode* of the frame a
bus transaction touches (Figure 4): Local-mode transactions are ignored,
S-COMA transactions consult the fine-grain tags, LA-NUMA transactions
always translate through the PIT and converse with the home node, and
Command-mode transactions carry OS requests.

The controller implements both sides of the inter-node protocol:

* the *client side* (:meth:`fetch`): translate the physical address to
  a global address, route the request to the (possibly stale) dynamic
  home, and complete the bus transaction when data/ownership returns;
* the *home side* (:meth:`home_service`): reverse-translate, walk the
  full-map directory, supply data from home memory, intervene on local
  caches, forward to a third-party owner, or fan out invalidations.

Timing: every step charges the matching component of the
:class:`~repro.sim.latency.LatencyModel` against the real resources
(controller occupancy, buses, memory ports, network interfaces), so
uncontended transactions reproduce Table 1 and contended ones stretch.
"""

from __future__ import annotations

from repro.core.directory import NO_SHARERS, DirState
from repro.core.finegrain import Tag
from repro.core.modes import PageMode
from repro.interconnect.messages import MessageKind
from repro.mem.cache import LineState
from repro.sim.engine import Resource

# Enum members hoisted to module globals: an enum class attribute
# lookup costs about 100 ns, and the per-transaction paths below make
# several.  Tag writes on those paths store the tag's byte value.
_MODIFIED = LineState.MODIFIED
_LANUMA = PageMode.LANUMA
_CCNUMA = PageMode.CCNUMA
_HOME_EXCL = DirState.HOME_EXCL
_DIR_SHARED = DirState.SHARED
_CLIENT_EXCL = DirState.CLIENT_EXCL
_READ_REQ = MessageKind.READ_REQ
_READ_EXCL_REQ = MessageKind.READ_EXCL_REQ
_UPGRADE_REQ = MessageKind.UPGRADE_REQ
_INTERVENTION = MessageKind.INTERVENTION
_DATA_REPLY = MessageKind.DATA_REPLY
_WRITEBACK = MessageKind.WRITEBACK
_INVALIDATE = MessageKind.INVALIDATE
_ACK = MessageKind.ACK


class ProtocolError(RuntimeError):
    """An inter-node protocol invariant was violated."""


class NodeFailedError(RuntimeError):
    """The transaction needed a node that has failed.

    PRISM's failure model (section 3.3): each node is an independent
    failure unit; when one fails, "the rest of the nodes may continue
    running, although applications using resources on the failed node
    may be terminated".  A transaction whose home or owner is the dead
    node raises this error — the simulated analogue of terminating the
    affected application — while traffic among surviving nodes is
    untouched, because physical addresses never name remote memory.
    """


class UnreachableNodeError(NodeFailedError):
    """Bounded retransmission gave up on a node.

    Raised by the fault plane (``repro.faults``) when a message stays
    undeliverable after every retry — the destination hard-failed, or a
    partition/drop rule outlasted the :class:`RetryPolicy` budget.  It
    subclasses :class:`NodeFailedError` because that is exactly how the
    protocol treats an unreachable peer: the transaction fails cleanly
    and the survivors keep running.
    """


class WildWriteError(RuntimeError):
    """A remote write was rejected by the PIT memory firewall.

    Section 3.2: every remote access is checked against the PIT, so a
    capability list per entry filters wild writes from faulty nodes —
    the fault-containment property CC-NUMA's global physical addresses
    cannot provide.
    """


class CoherenceController:
    """Coherence controller of one node."""

    def __init__(self, node, machine) -> None:
        self.node = node
        self.machine = machine
        self.lat = machine.config.latency
        self.lpp = machine.config.lines_per_page
        self.resource = Resource("node%d.ctrl" % node.node_id)
        # Hoisted latency components for the per-transaction paths.
        lat = self.lat
        self._lat_dispatch = lat.ctrl_dispatch
        self._lat_dispatch_pit = lat.ctrl_dispatch + lat.pit_access

    # ------------------------------------------------------------------
    # Client side.
    # ------------------------------------------------------------------

    def fetch(self, entry, lip: int, want_excl: bool, has_copy: bool,
              now: int) -> int:
        """Run a remote transaction for line ``lip`` of ``entry``'s page.

        ``want_excl`` requests exclusivity (write); ``has_copy`` marks an
        upgrade (the node already holds the data).  The caller has
        already charged the local bus address phase.  Returns the
        completion time at the requesting CPU.
        """
        lat = self.lat
        node = self.node
        machine = self.machine
        gpage = entry.gpage
        marks = machine.probes.mark
        # TRANSIT and the final grant are written straight into the tag
        # bytes: neither is a transition to Invalid, the only kind that
        # must go through FineGrainTags.set.
        tags = entry.tags
        if tags is not None:
            prior = tags.tags[lip]
            tags.tags[lip] = 3  # Tag.TRANSIT

        # Client controller dispatch + forward PIT translation.
        # CC-NUMA frames bypass the PIT: the physical address directly
        # identifies the memory location at the home (section 3.2).
        pit_free = entry.mode == _CCNUMA
        res = self.resource
        occ = self._lat_dispatch if pit_free else self._lat_dispatch_pit
        start = res.next_free if res.next_free > now else now
        if marks and start > now:
            for mark in marks:
                mark("ctrl_queue", "queue", node.node_id, now, start)
        t = start + occ
        res.next_free = t
        res.busy_cycles += occ
        res.acquisitions += 1
        if not pit_free:
            node.pit.lookups += 1
        if has_copy:
            kind = _UPGRADE_REQ
        elif want_excl:
            kind = _READ_EXCL_REQ
        else:
            kind = _READ_REQ
        sent = node.msglog.sent
        sent[kind] = sent.get(kind, 0) + 1

        # Route to the home, following (possibly stale) dynamic-home
        # info; misdirected requests bounce via the static home
        # (section 3.5).
        home_id = entry.dynamic_home
        true_home = machine.migration.dynamic_home.get(gpage)
        if true_home is None:
            true_home = machine.ipc.home_of(gpage)
        if true_home in machine.failed_nodes:
            raise NodeFailedError(
                "gpage %d is homed at failed node %d" % (gpage, true_home))
        send = machine.network.send
        node_id = node.node_id
        t = send(node_id, home_id, t, kind)
        if home_id != true_home:
            t = self._reroute(entry, home_id, true_home, t)
            home_id = true_home
        home = machine.nodes[home_id]

        for mark in marks:
            mark("home_service", "home", home_id, t, None, gpage=gpage)
        t, sender_id, granted_excl = home.controller.home_service(
            node.node_id, gpage, lip, want_excl, has_copy,
            entry.home_frame, t, pit_free)
        for mark in marks:
            mark("home_service", "home", home_id, None, t)

        # Cache the home frame number for future fast reverse
        # translation, and the confirmed dynamic home.
        dir_page = home.directory._pages.get(gpage)
        if dir_page is not None:
            entry.home_frame = dir_page.home_frame
        entry.dynamic_home = home_id

        # Response flight + client-side completion (dispatch and data
        # phase inlined as in the request path).
        t = send(sender_id, node_id, t, _DATA_REPLY)
        occ = self._lat_dispatch
        start = res.next_free if res.next_free > t else t
        if marks and start > t:
            for mark in marks:
                mark("ctrl_queue", "queue", node_id, t, start)
        t = start + occ
        res.next_free = t
        res.busy_cycles += occ
        res.acquisitions += 1
        # MemoryBus.transfer spelled out (same FCFS arithmetic).
        res = node.bus.data_path
        occ = lat.bus_data
        t = (res.next_free if res.next_free > t else t) + occ
        res.next_free = t
        res.busy_cycles += occ
        res.acquisitions += 1
        t += lat.cache_fill

        if tags is not None:
            if granted_excl:
                tags.tags[lip] = 2  # Tag.EXCLUSIVE
            elif not has_copy:
                tags.tags[lip] = 1  # Tag.SHARED
            else:  # pragma: no cover - upgrades are granted exclusive
                tags.set(lip, Tag(prior))
        if has_copy:
            node.stats.remote_upgrades += 1
        else:
            node.stats.remote_misses += 1
            if entry.mode == _LANUMA:
                node.kernel.note_lanuma_refetch(entry)
        return t

    def _reroute(self, entry, stale_home: int, true_home: int, t: int) -> int:
        """Forward a misdirected request to the current dynamic home."""
        lat = self.lat
        machine = self.machine
        stale = machine.nodes[stale_home]
        t = stale.controller.resource.acquire(t, lat.ctrl_dispatch)
        stale.msglog.record(MessageKind.FORWARD)
        self.node.stats.forwarded_requests += 1
        static = entry.static_home
        if static not in (stale_home, true_home):
            t = machine.network.send(stale_home, static, t,
                                     MessageKind.FORWARD)
            static_node = machine.nodes[static]
            t = static_node.controller.resource.acquire(t, lat.ctrl_dispatch)
            static_node.msglog.record(MessageKind.FORWARD)
            t = machine.network.send(static, true_home, t,
                                     MessageKind.FORWARD)
        else:
            t = machine.network.send(stale_home, true_home, t,
                                     MessageKind.FORWARD)
        entry.home_frame = None  # any cached guess is stale
        return t

    # ------------------------------------------------------------------
    # Home side.
    # ------------------------------------------------------------------

    def home_service(self, requester: int, gpage: int, lip: int,
                     want_excl: bool, has_copy: bool,
                     frame_guess: "int | None",
                     arrival: int,
                     pit_free: bool = False) -> "tuple[int, int, bool]":
        """Service a coherence request at this (dynamic home) node.

        Returns ``(data_ready_time, sender_node, granted_exclusive)``;
        the data response departs from ``sender_node`` (the home, or the
        third-party owner for cache-to-cache transfers).  ``pit_free``
        marks CC-NUMA transactions, whose physical addresses identify
        home memory directly and skip the reverse translation.
        """
        lat = self.lat
        node = self.node
        res = self.resource
        occ = self._lat_dispatch
        start = res.next_free if res.next_free > arrival else arrival
        t = start + occ
        res.next_free = t
        res.busy_cycles += occ
        res.acquisitions += 1

        entry = node.pit.by_gpage(gpage, frame_guess)
        if entry is None:
            raise ProtocolError(
                "home node %d has no PIT entry for gpage %d (external "
                "paging must keep home pages resident)" % (node.node_id, gpage))
        if pit_free:
            node.pit.lookups -= 1
            node.pit.hash_lookups -= 1
        elif frame_guess is not None and entry.frame == frame_guess:
            t += lat.pit_access
        else:
            t += lat.pit_hash

        # Memory firewall: the PIT capability check rejects writes from
        # nodes not on the page's writer list (section 3.2).
        if want_excl and not node.pit.write_allowed(entry.frame, requester):
            node.stats.wild_writes_blocked += 1
            raise WildWriteError(
                "node %d may not write gpage %d (home %d firewall)"
                % (requester, gpage, node.node_id))

        dir_page = node.directory._pages.get(gpage)
        if dir_page is None:
            raise ProtocolError("no directory for gpage %d at home %d"
                                % (gpage, node.node_id))
        dl = dir_page.lines[lip]
        hit = node.directory.cache.access(gpage, lip)
        t += lat.dir_cache_hit if hit else lat.dir_cache_miss
        dir_page.remote_refs += 1
        migration = self.machine.migration
        if migration.enabled:
            migration.note_request(gpage, requester, dir_page)

        home_tags = entry.tags
        home_line = entry.frame * self.lpp + lip

        if dl.state == _CLIENT_EXCL and dl.owner != requester:
            return self._three_party(dl, dir_page, gpage, lip, want_excl,
                                     requester, home_tags, t)

        if dl.state == _DIR_SHARED and want_excl:
            return self._write_to_shared(dl, gpage, lip, requester,
                                         home_tags, home_line, t)

        # Remaining cases: HOME_EXCL, SHARED read, or the defensive
        # CLIENT_EXCL-with-owner==requester case (home memory valid).
        return self._home_supply(dl, lip, want_excl, requester,
                                 home_tags, home_line, t)

    # -- home supplies from its own memory ------------------------------

    def _home_supply(self, dl, lip: int, want_excl: bool, requester: int,
                     home_tags, home_line: int, t: int) -> "tuple[int, int, bool]":
        lat = self.lat
        node = self.node
        memory = node.memory
        if requester == node.node_id:
            # A home CPU re-acquiring its own page's line (tags were
            # Invalid after a client took the line away and returned
            # it, or a defensive re-grant).  Home memory is valid.
            t = memory.port.acquire(t, lat.local_memory)
            if want_excl or not dl.sharers:
                if home_tags is not None:
                    home_tags.tags[lip] = 2  # Tag.EXCLUSIVE
                dl.state = _HOME_EXCL
                dl.owner = -1
                dl.sharers = NO_SHARERS
                return t, node.node_id, True
            if home_tags is not None:
                home_tags.tags[lip] = 1  # Tag.SHARED
            return t, node.node_id, False
        # The local CPU (if any) holding the line MODIFIED.
        dirty_cpu = None
        holders = bits = node.presence._holders.get(home_line, 0)
        while bits:
            low = bits & -bits
            bits ^= low
            cid = low.bit_length() - 1
            if node.cpus[cid].hierarchy.state(home_line) == _MODIFIED:
                dirty_cpu = cid
                break
        if dirty_cpu is not None:
            # 2-party access to a modified line: intervene on the home
            # bus to pull the dirty data out of the home CPU's cache.
            t = node.bus.request(t)
            t += lat.intervention - lat.bus_request
            node.stats.interventions_received += 1
            if want_excl:
                self._drop_local_copies(home_line)
            else:
                node.cpus[dirty_cpu].hierarchy.downgrade(home_line)
        elif want_excl:
            # 2-party write to a shared/home line: the home invalidates
            # its own copy before granting exclusivity.
            t += lat.intervention
            self._drop_local_copies(home_line)

        # Resource.acquire on the DRAM port, spelled out (same
        # arithmetic and counters).
        res = memory.port
        occ = lat.local_memory
        t = (res.next_free if res.next_free > t else t) + occ
        res.next_free = t
        res.busy_cycles += occ
        res.acquisitions += 1
        if dirty_cpu is not None:
            # The pulled dirty data drains to memory from the write
            # buffer after the supply (off the critical path).
            memory.write(t)

        if want_excl:
            if home_tags is not None:
                home_tags.set(lip, Tag.INVALID)
            dl.state = _CLIENT_EXCL
            dl.owner = requester
            dl.sharers = NO_SHARERS
            return t, node.node_id, True
        if home_tags is not None:
            home_tags.tags[lip] = 1  # Tag.SHARED
        if dl.state != _DIR_SHARED:
            dl.state = _DIR_SHARED
            dl.owner = -1
        # Home CPU copies of an exclusive line become shared.
        while holders:
            low = holders & -holders
            holders ^= low
            node.cpus[low.bit_length() - 1].hierarchy.downgrade(home_line)
        if dl.sharers is NO_SHARERS:
            dl.sharers = {requester}
        else:
            dl.sharers.add(requester)
        return t, node.node_id, False

    # -- 3-party transfer -----------------------------------------------

    def _three_party(self, dl, dir_page, gpage: int, lip: int,
                     want_excl: bool, requester: int,
                     home_tags, t: int) -> "tuple[int, int, bool]":
        lat = self.lat
        machine = self.machine
        owner_id = dl.owner
        if owner_id in machine.failed_nodes:
            raise NodeFailedError(
                "gpage %d line %d is owned by failed node %d"
                % (gpage, lip, owner_id))
        owner = machine.nodes[owner_id]
        self.node.msglog.record(_INTERVENTION)

        t = machine.network.send(self.node.node_id, owner_id, t,
                                 _INTERVENTION)
        t = owner.controller.resource.acquire(t, lat.ctrl_dispatch)
        owner_entry = owner.pit.by_gpage(gpage, None)
        t += owner.controller._client_reverse_cost(owner_entry)
        if owner_entry is None:
            raise ProtocolError(
                "directory says node %d owns gpage %d line %d but it has "
                "no mapping" % (owner_id, gpage, lip))
        owner.stats.interventions_received += 1

        owner_line = owner_entry.frame * self.lpp + lip
        t = owner.bus.request(t)
        t += lat.intervention
        t = owner.memory.port.acquire(t, lat.local_memory)
        t = owner.bus.transfer(t)

        requester_is_home = requester == self.node.node_id
        if want_excl:
            # Ownership moves to the requester; owner drops everything.
            owner.controller._drop_local_copies(owner_line)
            if owner_entry.tags is not None:
                owner_entry.tags.set(lip, Tag.INVALID)
            owner.stats.invalidations_received += 1
            if requester_is_home:
                dl.state = _HOME_EXCL
                dl.owner = -1
                dl.sharers = NO_SHARERS
                if home_tags is not None:
                    home_tags.tags[lip] = 2  # Tag.EXCLUSIVE
            else:
                dl.owner = requester
                dl.sharers = NO_SHARERS
            return t, owner_id, True

        # Read: owner keeps a shared copy and writes the dirty data back
        # to the home ("sharing writeback"); home memory becomes valid.
        mask = owner.presence._holders.get(owner_line, 0)
        while mask:  # each holder's bit, lowest first
            low = mask & -mask
            mask ^= low
            owner.cpus[low.bit_length() - 1].hierarchy.downgrade(owner_line)
        if owner_entry.tags is not None:
            owner_entry.tags.tags[lip] = 1  # Tag.SHARED
        owner.msglog.record(_WRITEBACK)
        self.node.memory.write(t)  # home memory update, off critical path
        if home_tags is not None:
            home_tags.tags[lip] = 1  # Tag.SHARED
        dl.state = _DIR_SHARED
        dl.sharers = {owner_id}
        if not requester_is_home:
            dl.sharers.add(requester)
        dl.owner = -1
        return t, owner_id, False

    # -- write to a widely shared line ----------------------------------

    def _write_to_shared(self, dl, gpage: int, lip: int, requester: int,
                         home_tags, home_line: int,
                         t: int) -> "tuple[int, int, bool]":
        lat = self.lat
        machine = self.machine
        node = self.node
        requester_is_home = requester == node.node_id

        if not requester_is_home:
            # Invalidate the home's own copy first.
            t += lat.intervention
            self._drop_local_copies(home_line)
            if home_tags is not None:
                home_tags.set(lip, Tag.INVALID)

        # Serialized invalidation issue; acknowledgements gathered.
        # Failed sharers hold no live copies; their invalidations are
        # acknowledged by timeout at the home (no message exchanged).
        sharers = [s for s in dl.sharers
                   if s != requester and s not in machine.failed_nodes]
        if dl.sharers:
            dl.sharers.difference_update(machine.failed_nodes)
        issue = t
        last_ack = t
        marks = machine.probes.mark
        for s in sharers:
            issue = self.resource.acquire(issue, lat.inval_issue)
            node.msglog.record(_INVALIDATE)
            for mark in marks:
                mark("invalidate", "inval", node.node_id, issue, None,
                     target=s)
            arr = machine.network.send(node.node_id, s, issue,
                                       _INVALIDATE)
            ack_ready = machine.nodes[s].controller.handle_invalidate(
                gpage, lip, arr)
            ack = machine.network.send(s, node.node_id, ack_ready,
                                       _ACK)
            for mark in marks:
                mark("invalidate", "inval", node.node_id, None, ack)
            if ack > last_ack:
                last_ack = ack
        if sharers:
            t = self.resource.acquire(last_ack, lat.ctrl_dispatch)

        t = node.memory.port.acquire(t, lat.local_memory)

        if requester_is_home:
            dl.state = _HOME_EXCL
            dl.owner = -1
            if home_tags is not None:
                home_tags.tags[lip] = 2  # Tag.EXCLUSIVE
        else:
            dl.state = _CLIENT_EXCL
            dl.owner = requester
        dl.sharers = NO_SHARERS
        return t, node.node_id, True

    def handle_invalidate(self, gpage: int, lip: int, arrival: int) -> int:
        """Invalidate this node's copy of a line (home -> sharer).

        Invalidations carry no frame hint, so reverse translation takes
        the PIT hash path (section 4.1).  Returns the ack-ready time.
        """
        lat = self.lat
        node = self.node
        t = self.resource.acquire(arrival, lat.ctrl_dispatch)
        entry = node.pit.by_gpage(gpage, None)
        t += self._client_reverse_cost(entry)
        node.stats.invalidations_received += 1
        node.msglog.record(_ACK)
        if entry is None:
            return t  # stale sharer: page already gone locally
        t = node.bus.request(t)
        line = entry.frame * self.lpp + lip
        self._drop_local_copies(line)
        if entry.tags is not None:
            entry.tags.set(lip, Tag.INVALID)
        return t

    # ------------------------------------------------------------------
    # Paging support (called by the kernel).
    # ------------------------------------------------------------------

    def flush_client_page(self, entry, now: int) -> int:
        """Flush a client frame for page-out (section 3.3).

        Invalidates all locally cached lines of the frame, writes
        modified data back to the home, and removes this node from the
        page's directory state.  Returns the number of *owned* lines
        written back (the kernel charges per-line cost for these).
        """
        machine = self.machine
        node = self.node
        gpage = entry.gpage
        home = machine.nodes[machine.dynamic_home_of(gpage)]
        dir_page = home.directory.page(gpage)
        home_entry = (home.pit.entry_or_none(dir_page.home_frame)
                      if dir_page is not None else None)
        home_tags = home_entry.tags if home_entry is not None else None

        owned = 0
        base = entry.frame * self.lpp
        tag_bytes = entry.tags.tags if entry.tags is not None else None
        cached = node.presence._holders
        for lip in range(self.lpp):
            line = base + lip
            if (tag_bytes is not None and tag_bytes[lip] == 0
                    and line not in cached):
                continue  # Invalid and uncached here: nothing to flush
            dirty = self._drop_local_copies(line)
            if dir_page is None:
                continue
            dl = dir_page.lines[lip]
            if tag_bytes is not None:
                tag = tag_bytes[lip]
                if tag == 2:  # Tag.EXCLUSIVE
                    owned += 1
                    self._return_line_home(dl, lip, home, home_tags, now)
                elif tag == 1:  # Tag.SHARED
                    self._leave_sharers(dl, lip, home_tags)
                entry.tags.set(lip, Tag.INVALID)
            else:
                if dl.state == DirState.CLIENT_EXCL and dl.owner == node.node_id:
                    if dirty:
                        owned += 1
                    self._return_line_home(dl, lip, home, home_tags, now)
                elif node.node_id in dl.sharers:
                    self._leave_sharers(dl, lip, home_tags)
        home.controller.resource.acquire(now, self.lat.ctrl_dispatch)
        return owned

    def _return_line_home(self, dl, lip: int, home, home_tags, now: int) -> None:
        """Write an owned line back to the home; home becomes exclusive."""
        self.node.msglog.record(MessageKind.WRITEBACK)
        self.node.stats.writebacks_remote += 1
        home.memory.write(now)
        dl.state = DirState.HOME_EXCL
        dl.owner = -1
        dl.sharers = NO_SHARERS
        if home_tags is not None:
            home_tags.set(lip, Tag.EXCLUSIVE)

    def _leave_sharers(self, dl, lip: int, home_tags) -> None:
        if dl.sharers:
            dl.sharers.discard(self.node.node_id)
        if dl.state == DirState.SHARED and not dl.sharers:
            dl.state = DirState.HOME_EXCL
            dl.owner = -1
            if home_tags is not None:
                home_tags.set(lip, Tag.EXCLUSIVE)

    # ------------------------------------------------------------------
    # Eviction traffic (called by the machine's replacement handling).
    # ------------------------------------------------------------------

    def evict_writeback(self, entry, lip: int, now: int) -> None:
        """A dirty LA-NUMA line left the last local cache: write it back
        to the home.  Posted (off the CPU's critical path); only
        resource occupancy is charged."""
        machine = self.machine
        node = self.node
        home = machine.nodes[machine.dynamic_home_of(entry.gpage)]
        dir_page = home.directory.page(entry.gpage)
        node.msglog.record(MessageKind.WRITEBACK)
        node.stats.writebacks_remote += 1
        arrival = machine.network.send(node.node_id, home.node_id, now,
                                       MessageKind.WRITEBACK)
        home.controller.resource.acquire(arrival, self.lat.writeback_issue)
        home.memory.write(arrival)
        if dir_page is None:
            return
        dl = dir_page.lines[lip]
        if dl.state == DirState.CLIENT_EXCL and dl.owner == node.node_id:
            dl.state = DirState.HOME_EXCL
            dl.owner = -1
            dl.sharers = NO_SHARERS
            home_entry = home.pit.entry_or_none(dir_page.home_frame)
            if home_entry is not None and home_entry.tags is not None:
                home_entry.tags.set(lip, Tag.EXCLUSIVE)

    def replacement_hint(self, entry, lip: int, now: int) -> None:
        """A clean exclusive LA-NUMA line left the last local cache:
        tell the home it owns the line again (home memory is valid)."""
        machine = self.machine
        node = self.node
        home = machine.nodes[machine.dynamic_home_of(entry.gpage)]
        dir_page = home.directory.page(entry.gpage)
        if dir_page is None:
            return
        dl = dir_page.lines[lip]
        if dl.state != DirState.CLIENT_EXCL or dl.owner != node.node_id:
            return
        node.msglog.record(MessageKind.REPLACEMENT_HINT)
        machine.network.send(node.node_id, home.node_id, now,
                             MessageKind.REPLACEMENT_HINT)
        dl.state = DirState.HOME_EXCL
        dl.owner = -1
        dl.sharers = NO_SHARERS
        home_entry = home.pit.entry_or_none(dir_page.home_frame)
        if home_entry is not None and home_entry.tags is not None:
            home_entry.tags.set(lip, Tag.EXCLUSIVE)

    def share_dirty_lanuma(self, entry, lip: int, now: int) -> None:
        """A dirty LA-NUMA line is being shared between sibling CPUs
        (read snarf): with no local memory behind the frame, the data is
        written back to the home and the node keeps shared copies."""
        machine = self.machine
        node = self.node
        home = machine.nodes[machine.dynamic_home_of(entry.gpage)]
        dir_page = home.directory.page(entry.gpage)
        node.msglog.record(MessageKind.WRITEBACK)
        node.stats.writebacks_remote += 1
        home.memory.write(machine.network.send(node.node_id, home.node_id,
                                               now, MessageKind.WRITEBACK))
        if dir_page is None:
            return
        dl = dir_page.lines[lip]
        if dl.state == DirState.CLIENT_EXCL and dl.owner == node.node_id:
            dl.state = DirState.SHARED
            dl.sharers = {node.node_id}
            dl.owner = -1
            home_entry = home.pit.entry_or_none(dir_page.home_frame)
            if home_entry is not None and home_entry.tags is not None:
                home_entry.tags.set(lip, Tag.SHARED)

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------

    def _client_reverse_cost(self, entry) -> int:
        """Reverse-translation cost for a message arriving at a client.

        Normally the hash search (the directory carries no client frame
        numbers, section 4.1); with the section 4.3 mitigation enabled
        (``config.directory_caches_client_frames``) the message carries
        a frame hint and the fast path applies.  CC-NUMA frames skip
        the PIT entirely.
        """
        if entry is not None and entry.mode == _CCNUMA:
            self.node.pit.lookups -= 1
            self.node.pit.hash_lookups -= 1
            return 0
        if self.machine.config.directory_caches_client_frames:
            self.node.pit.hash_lookups -= 1
            return self.lat.pit_access
        return self.lat.pit_hash

    def _drop_local_copies(self, line: int) -> bool:
        """Invalidate every local CPU copy of ``line``; True if any was
        dirty."""
        node = self.node
        mask = node.presence._holders.pop(line, 0)
        dirty = False
        cpus = node.cpus
        while mask:  # each holder's bit, lowest first
            low = mask & -mask
            mask ^= low
            if cpus[low.bit_length() - 1].hierarchy.invalidate(line):
                dirty = True
        return dirty
