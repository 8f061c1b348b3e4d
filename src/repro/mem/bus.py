"""Split-transaction memory bus model.

The paper models a 16-byte-wide, fully-pipelined, split-transaction bus
with separate address and data paths running at half processor speed.
We model the two paths as independent FCFS resources: an address-phase
occupancy per request and a data-phase occupancy per line transfer.
A split bus means the requester does not hold the bus while a remote
transaction is outstanding — only the address and data phases occupy it.
"""

from __future__ import annotations

from repro.sim.engine import Resource
from repro.sim.latency import LatencyModel


class MemoryBus:
    """The memory bus of one node."""

    __slots__ = ("node_id", "address_path", "data_path", "lat",
                 "transactions")

    def __init__(self, node_id: int, lat: LatencyModel) -> None:
        self.node_id = node_id
        self.lat = lat
        self.address_path = Resource("node%d.bus.addr" % node_id)
        self.data_path = Resource("node%d.bus.data" % node_id)
        self.transactions = 0

    # request, transfer and NodeMemory.write spell out Resource.acquire
    # (same FCFS arithmetic and counters): each runs at least once per
    # remote miss.

    def request(self, now: int) -> int:
        """Run an address phase; returns its completion time."""
        self.transactions += 1
        res = self.address_path
        duration = self.lat.bus_request
        end = (res.next_free if res.next_free > now else now) + duration
        res.next_free = end
        res.busy_cycles += duration
        res.acquisitions += 1
        return end

    def transfer(self, now: int) -> int:
        """Run a data phase for one cache line; returns completion time."""
        res = self.data_path
        duration = self.lat.bus_data
        end = (res.next_free if res.next_free > now else now) + duration
        res.next_free = end
        res.busy_cycles += duration
        res.acquisitions += 1
        return end


class NodeMemory:
    """Local DRAM of one node, as a latency/occupancy model.

    Data contents are not simulated — only residency and timing.  The
    memory services uncached reads for Local and S-COMA frames (the
    machine's miss path charges them on ``port`` inline) and absorbs
    write-backs.
    """

    __slots__ = ("node_id", "port", "lat")

    def __init__(self, node_id: int, lat: LatencyModel) -> None:
        self.node_id = node_id
        self.lat = lat
        self.port = Resource("node%d.dram" % node_id)

    def write(self, now: int) -> int:
        """Line write-back into local DRAM.  Write-backs are buffered in
        real hardware; we charge port occupancy but the caller normally
        does not put this on the critical path."""
        res = self.port
        duration = self.lat.local_memory // 2
        end = (res.next_free if res.next_free > now else now) + duration
        res.next_free = end
        res.busy_cycles += duration
        res.acquisitions += 1
        return end
