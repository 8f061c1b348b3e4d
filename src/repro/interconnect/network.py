"""Interconnection network model.

The paper uses a fixed one-way end-to-end latency of 120 cycles and
explicitly does *not* model contention inside the network switches
("Latency and contention is accounted for at all system resources
except the processor internals and network switches").  We therefore
model the network as: per-node network-interface (NI) occupancy — which
*is* a system resource — plus a flat flight latency.
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
        self.lat = lat
        self.interfaces = [Resource("node%d.ni" % n) for n in range(num_nodes)]
        self.messages = 0
        self.hops_charged = 0
        #: Optional per-hop jitter source (``() -> int`` extra flight
        #: cycles), installed by the machine when it runs under a
        #: :class:`~repro.sim.engine.SchedulePerturbation`.
        self.jitter = None
        #: Optional fault plane (a
        #: :class:`~repro.faults.injector.FaultInjector`), installed by
        #: the machine when it runs under a fault plan.  None keeps the
        #: fault-free path at a single pointer test.
        self.faults = None
        #: Optional causal-trace collector (a
        #: :class:`~repro.obs.tracing.TraceCollector`), installed by
        #: ``TraceCollector.attach``.  Every hop taken inside an
        #: active transaction becomes a ``network`` child span; with no
        #: collector this is one pointer test.
        self.tracer = None

    def send(self, src_node: int, dst_node: int, now: int,
             kind: "MessageKind" = MessageKind.DATA_REPLY) -> int:
        """One message hop; returns its arrival time at ``dst_node``.

        Intra-node "hops" (src == dst) are free — the controller talks
        to itself through the bus, which the caller already charged.
        ``kind`` classifies the hop for the fault plane's rule matching
        (ignored — not even read — on the fault-free path).
        """
        if src_node == dst_node:
            return now
        if self.faults is not None:
            return self.faults.deliver(self, src_node, dst_node, now, kind)
        self.messages += 1
        self.hops_charged += 1
        # NI occupancy is carved out of the one-way latency so that an
        # uncontended hop costs exactly ``net_latency`` end to end.
        injected = self.interfaces[src_node].acquire(now, self.NI_OCCUPANCY)
        arrival = injected + self.lat.net_latency - self.NI_OCCUPANCY
        if self.jitter is not None:
            arrival += self.jitter()
        if self.tracer is not None:
            self.tracer.add("net:" + kind.name, "network", src_node,
                            now, arrival, dst=dst_node)
        return arrival

    def multicast(self, src_node: int, dst_nodes: "list[int]", now: int,
                  kind: "MessageKind" = MessageKind.DATA_REPLY) -> "list[int]":
        """Send to several nodes; injections serialize at the source NI.

        Returns per-destination arrival times, in ``dst_nodes`` order.
        """
        arrivals = []
        for dst in dst_nodes:
            arrivals.append(self.send(src_node, dst, now, kind))
        return arrivals
