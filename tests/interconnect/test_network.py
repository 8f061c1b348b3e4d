"""Unit tests for the network model."""

from repro.interconnect.network import Network
from repro.sim.latency import LatencyModel


def test_uncontended_hop_costs_exactly_net_latency():
    lat = LatencyModel()
    net = Network(4, lat)
    assert net.send(0, 1, 1000) == 1000 + lat.net_latency


def test_intra_node_send_is_free():
    net = Network(4, LatencyModel())
    assert net.send(2, 2, 500) == 500
    assert net.messages == 0


def test_ni_injection_serializes():
    lat = LatencyModel()
    net = Network(4, lat)
    a = net.send(0, 1, 0)
    b = net.send(0, 2, 0)  # second injection waits for the first NI slot
    assert b == a + Network.NI_OCCUPANCY


def test_receiving_ni_is_not_charged():
    lat = LatencyModel()
    net = Network(4, lat)
    net.send(0, 1, 0)
    # A send from another node to the same destination is unaffected.
    assert net.send(2, 1, 0) == lat.net_latency

