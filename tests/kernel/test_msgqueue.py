"""Tests for the command-mode message passing channel."""

import pytest

from repro.core.modes import PageMode
from repro.kernel.msgqueue import ChannelError, MessageChannel
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


@pytest.fixture
def machine():
    return Machine(MachineConfig(num_nodes=4, cpus_per_node=1))


@pytest.fixture
def channel(machine):
    return MessageChannel(machine, src_node=0, dst_node=1)


def test_endpoints_pin_command_frames(machine, channel):
    for node, frame in ((machine.nodes[0], channel.src_frame),
                        (machine.nodes[1], channel.dst_frame)):
        entry = node.pit.entry_or_none(frame)
        assert entry.mode == PageMode.COMMAND


def test_payload_round_trip(channel):
    channel.send({"kind": "work", "items": [1, 2, 3]}, now=0)
    received = channel.receive(now=10_000)
    assert received is not None
    payload, _ = received
    assert payload == {"kind": "work", "items": [1, 2, 3]}


def test_fifo_ordering(channel):
    for i in range(5):
        channel.send(i, now=i * 1_000)
    got = []
    clock = 100_000
    while True:
        out = channel.receive(clock)
        if out is None:
            break
        got.append(out[0])
        clock += 1_000
    assert got == [0, 1, 2, 3, 4]


def test_receive_before_arrival_returns_none(channel):
    channel.send("late", now=0)
    # The flight takes at least one network latency.
    assert channel.receive(now=5) is None
    assert channel.pending() == 1


def test_capacity_backpressure(machine):
    channel = MessageChannel(machine, 0, 1, capacity=2)
    channel.send("a", 0)
    channel.send("b", 1_000)
    with pytest.raises(ChannelError):
        channel.send("c", 2_000)
    assert channel.full_rejections == 1
    channel.receive(1_000_000)
    channel.send("c", 2_000_000)  # space again


def test_send_cost_is_low_overhead(machine, channel):
    """The headline claim: a command-mode send costs the sender far
    less than a coherent shared-memory handoff."""
    lat = machine.config.latency
    done = channel.send("x", now=1_000_000)
    send_cost = done - 1_000_000
    # A shared-memory handoff of one line: the producer's
    # write-invalidate plus the consumer's remote miss, per Table 1.
    handoff = lat.expected_2party_write_shared + lat.expected_remote_clean
    assert send_cost < handoff / 3
    # ... and is roughly bus + controller occupancy.
    assert send_cost <= (lat.bus_request + lat.bus_data
                         + lat.ctrl_dispatch + 10)


def test_same_node_endpoints_rejected(machine):
    with pytest.raises(ChannelError):
        MessageChannel(machine, 2, 2)


def test_zero_capacity_rejected(machine):
    with pytest.raises(ChannelError):
        MessageChannel(machine, 0, 1, capacity=0)


class TestFaultPlane:
    """Channel behavior under a COMMAND-duplicating fault plan."""

    def _machine_with_dups(self):
        from repro.faults import FaultInjector, FaultPlan
        plan = FaultPlan().duplicate(1.0, kinds="command")
        return Machine(MachineConfig(num_nodes=4, cpus_per_node=1),
                       faults=FaultInjector(plan, seed=1))

    def test_duplicate_deposits_are_dedupped(self):
        machine = self._machine_with_dups()
        channel = MessageChannel(machine, 0, 1)
        channel.send("once", now=0)
        assert channel.pending() == 2  # the duplicate deposit is queued
        got = channel.receive(now=1_000_000)
        assert got is not None and got[0] == "once"
        # The duplicate must never surface as a second payload.
        assert channel.receive(now=2_000_000) is None
        assert channel.dedup_drops == 1
        assert machine.faults.stats.duplicated == 1
        assert channel.pending() == 0

    def test_stream_survives_duplication(self):
        machine = self._machine_with_dups()
        channel = MessageChannel(machine, 0, 1)
        for i in range(4):
            channel.send(i, now=i * 10_000)
        got, clock = [], 10_000_000
        while True:
            out = channel.receive(clock)
            if out is None:
                break
            got.append(out[0])
            clock += 1_000
        assert got == [0, 1, 2, 3]
        assert channel.dedup_drops == 4

    def test_duplicate_charges_receiver_controller(self):
        machine = self._machine_with_dups()
        channel = MessageChannel(machine, 0, 1)
        resource = machine.nodes[1].controller.resource
        busy_before = resource.busy_cycles
        acq_before = resource.acquisitions
        channel.send("x", now=0)
        # Two deposits -> two controller dispatches at the receiver.
        assert resource.acquisitions >= acq_before + 2
        assert (resource.busy_cycles
                >= busy_before + 2 * machine.config.latency.ctrl_dispatch)

    def test_no_faults_attribute_is_harmless(self, channel):
        # The default machine has faults=None; the gated lookups in
        # send/receive must stay inert.
        channel.send("plain", now=0)
        assert channel.receive(now=1_000_000)[0] == "plain"
        assert channel.dedup_drops == 0


def test_a_send_to_a_failed_node_aborts_its_span():
    """A send whose hop raises must not leave its ``channel_send``
    span open for the next transaction to nest under: the collector
    unwinds it and counts the trace as aborted."""
    from repro.core.controller import UnreachableNodeError
    from repro.faults import FaultInjector, FaultPlan
    from repro.obs import tracing
    with tracing.collecting() as collector:
        machine = Machine(MachineConfig(num_nodes=4, cpus_per_node=1),
                          faults=FaultInjector(FaultPlan(), seed=0))
        channel = MessageChannel(machine, src_node=0, dst_node=1)
        machine.fail_node(1)
        with pytest.raises(UnreachableNodeError):
            channel.send("lost", now=0)
    assert collector._stack == []
    assert collector.errors == 1
    assert collector.aborted.spans[0]["name"] == "channel_send"
    assert collector.aborted.error == "UnreachableNodeError"
