"""Latency model for the simulated PRISM machine.

All values are in processor cycles, following Table 1 of the paper.  The
paper reports *composite* end-to-end latencies measured by a
memory-latency microbenchmark; the simulator charges *component*
latencies as a transaction walks through the machine (bus, coherence
controller, PIT, directory, network, DRAM).  The component values below
are calibrated so that the composites land on (or near) the paper's
Table 1 numbers.  The derived properties compute the expected composite
values analytically; ``benchmarks/test_table1_latencies.py`` verifies
that the simulator actually produces them.

Table 1 of the paper (for reference):

===============================================  ================
Memory access type                               Latency (cycles)
===============================================  ================
L1 miss, L2 hit                                  12
Uncached, line in local memory                   36
Uncached, line in remote memory                  573
2-party read/write to a modified line            608
3-party read/write to a modified line            866
2-party write to shared line                     608
(3+n)-party write to shared line                 1142 + 80n
TLB miss                                         30
In-core page fault, local home                   2300
In-core page fault, remote home                  4400
===============================================  ================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import field_dict


@dataclass
class LatencyModel:
    """Component latencies (cycles) charged by the simulator.

    The defaults are calibrated against Table 1 of the paper; see the
    ``expected_*`` properties for the resulting composite latencies.
    """

    # Processor-side hierarchy.
    l1_hit: int = 1
    l2_hit: int = 12          # total L1-miss/L2-hit latency (Table 1)
    tlb_miss: int = 30        # hardware TLB reload (Table 1)

    # Node memory bus (split-transaction, fully pipelined).
    bus_request: int = 10     # arbitration + address phase
    bus_data: int = 16        # data phase for one cache line
    local_memory: int = 36    # uncached access satisfied by local DRAM

    # Coherence controller.
    ctrl_dispatch: int = 85   # protocol dispatcher + FSM handler occupancy
    intervention: int = 35    # bus intervention to pull a line from a cache
    inval_issue: int = 80     # per-extra-sharer invalidation issue cost
    writeback_issue: int = 20 # issuing a (non-blocking) write-back

    # Page Information Table.
    pit_access: int = 2       # SRAM PIT lookup (10 for a DRAM PIT, section 4.3)
    pit_hash: int = 20        # reverse translation via hash search

    # Directory (DRAM-backed with a cache).
    dir_cache_hit: int = 2
    dir_cache_miss: int = 22

    # Interconnect.
    net_latency: int = 120    # one-way end-to-end network latency

    # Cache fill at the requester after data returns.
    cache_fill: int = 12

    # Kernel paging costs (charged by the OS layer, not the controller).
    fault_kernel: int = 1950      # kernel fault-handler work at the faulting node
    fault_pit_insert: int = 350   # command-mode PIT/tag installation traffic
    fault_home_kernel: int = 1860 # home-node kernel work for a client page-in
    pageout_kernel: int = 800     # kernel work to page out a client frame
    pageout_per_line: int = 24    # per owned line: tag sweep + write-back issue
    barrier_cost: int = 40        # barrier release overhead per processor
    lock_cost: int = 30           # uncontended lock acquire/release overhead

    def to_dict(self) -> "dict[str, int]":
        """All component latencies as a plain dict (JSON-safe)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: "dict[str, int]") -> "LatencyModel":
        """Rebuild a model from :meth:`to_dict` output."""
        return cls(**data)

    # ------------------------------------------------------------------
    # Composite (Table 1) latencies derived from the components.
    # ------------------------------------------------------------------

    @property
    def expected_l2_hit(self) -> int:
        """'L1 miss, L2 hit' row of Table 1."""
        return self.l2_hit

    @property
    def expected_local_memory(self) -> int:
        """'Uncached, line in local memory' row of Table 1."""
        return self.local_memory

    def _request_leg(self) -> int:
        """Client bus + client controller + PIT + network to home."""
        return (self.bus_request + self.ctrl_dispatch + self.pit_access
                + self.net_latency)

    def _response_leg(self) -> int:
        """Network back + client controller + data phase + cache fill."""
        return (self.net_latency + self.ctrl_dispatch + self.bus_data
                + self.cache_fill)

    def _home_base(self, dir_hit: bool = True) -> int:
        """Home controller dispatch + reverse PIT + directory access."""
        dir_cost = self.dir_cache_hit if dir_hit else self.dir_cache_miss
        return self.ctrl_dispatch + self.pit_access + dir_cost

    @property
    def expected_remote_clean(self) -> int:
        """'Uncached, line in remote memory' row of Table 1 (~573)."""
        return (self._request_leg() + self._home_base()
                + self.local_memory + self._response_leg())

    @property
    def expected_2party_modified(self) -> int:
        """'2-party read/write to a modified line' row (~608).

        The home's copy is dirty in a home-node processor cache, so the
        home controller must intervene on its local bus.
        """
        return self.expected_remote_clean + self.intervention

    @property
    def expected_3party_modified(self) -> int:
        """'3-party read/write to a modified line' row (~866).

        The line is dirty at a third node; the home forwards the request
        and the owner supplies the data directly to the requester.  The
        owner is a *client* node, so its reverse translation of the
        global address goes through the PIT hash search (the directory
        does not cache client frame numbers, section 4.1).
        """
        return (self._request_leg() + self._home_base()
                + self.net_latency                       # forward to owner
                + self.ctrl_dispatch + self.pit_hash     # owner controller
                + self.bus_request + self.intervention   # pull from cache
                + self.local_memory + self.bus_data      # line transfer
                + self._response_leg())

    @property
    def expected_2party_write_shared(self) -> int:
        """'2-party write to shared line' row (~608).

        Only the home (and possibly the requester) share the line; the
        home invalidates its own copy via a local intervention before
        granting exclusivity.
        """
        return self.expected_remote_clean + self.intervention

    def expected_write_shared(self, extra_sharers: int) -> int:
        """'(3+n)-party write to shared line' row (~1142 + 80n).

        ``extra_sharers`` is the paper's *n*: sharers beyond the home and
        one remote client.  The home issues invalidations serially and
        the completion waits for the last acknowledgement round-trip.
        """
        base = (self._request_leg() + self._home_base()
                + self.intervention                       # kill home copy
                + self.inval_issue                        # first client inval
                + 2 * self.net_latency                    # inval + ack flight
                + self.ctrl_dispatch + self.pit_hash      # sharer controller
                + self.bus_request                        # sharer bus inval
                + self.ctrl_dispatch                      # home gathers acks
                + self.local_memory                       # supply the data
                + self._response_leg())
        return base + self.inval_issue * extra_sharers

    @property
    def expected_fault_local(self) -> int:
        """'In-core page fault, local home' row (~2300)."""
        return self.fault_kernel + self.fault_pit_insert

    @property
    def expected_fault_remote(self) -> int:
        """'In-core page fault, remote home' row (~4400)."""
        return (self.fault_kernel + self.fault_pit_insert
                + 2 * self.net_latency + self.fault_home_kernel)


def paper_latency_model() -> LatencyModel:
    """The latency model calibrated against Table 1 of the paper."""
    return LatencyModel()


#: Table 1 of the paper, used by tests and EXPERIMENTS.md comparisons.
PAPER_TABLE1 = {
    "l2_hit": 12,
    "local_memory": 36,
    "remote_clean": 573,
    "2party_modified": 608,
    "3party_modified": 866,
    "2party_write_shared": 608,
    "write_shared_base": 1142,
    "write_shared_per_sharer": 80,
    "tlb_miss": 30,
    "fault_local": 2300,
    "fault_remote": 4400,
}
