"""Interconnection network model.

The paper uses a fixed one-way end-to-end latency of 120 cycles and
explicitly does *not* model contention inside the network switches
("Latency and contention is accounted for at all system resources
except the processor internals and network switches").  We therefore
model the network as: per-node network-interface (NI) occupancy — which
*is* a system resource — plus a flat flight latency.

:meth:`Network.send` is the only code that charges a hop.  Schedule
jitter, the fault plane and hop spans are ``send`` probes
(``repro.sim.probes``) composed around :meth:`Network._hop`.
"""

from __future__ import annotations

from repro.interconnect.messages import MessageKind
from repro.sim.engine import Resource
from repro.sim.latency import LatencyModel


class Network:
    """Flat-latency network with per-node NI injection occupancy."""

    #: Cycles a message occupies the sending NI (header + line data fit
    #: in a handful of flits on a 16-byte datapath).
    NI_OCCUPANCY = 8

    def __init__(self, num_nodes: int, lat: LatencyModel) -> None:
        self.interfaces = [Resource("node%d.ni" % n) for n in range(num_nodes)]
        self.messages = 0
        # NI occupancy is carved out of the one-way latency so that an
        # uncontended hop costs exactly ``net_latency`` end to end.
        self._flight = lat.net_latency - self.NI_OCCUPANCY

    def send(self, src_node: int, dst_node: int, now: int,
             kind: "MessageKind" = MessageKind.DATA_REPLY) -> int:
        """One message hop; returns its arrival time at ``dst_node``.

        Intra-node "hops" (src == dst) are free — the controller talks
        to itself through the bus, which the caller already charged —
        and fire no ``send`` probe.  ``kind`` classifies the hop for the
        probes (the fault plane's rule matching, hop span names).
        """
        if src_node == dst_node:
            return now
        return self._hop(src_node, dst_node, now, kind)

    def _hop(self, src_node: int, dst_node: int, now: int,
             kind: "MessageKind") -> int:
        """Charge one inter-node hop: the source NI, then the flight.

        The ``send`` probe chain is bound over this method."""
        self.messages += 1
        # Resource.acquire spelled out (same FCFS arithmetic).
        ni = self.interfaces[src_node]
        occ = self.NI_OCCUPANCY
        injected = (ni.next_free if ni.next_free > now else now) + occ
        ni.next_free = injected
        ni.busy_cycles += occ
        ni.acquisitions += 1
        return injected + self._flight
