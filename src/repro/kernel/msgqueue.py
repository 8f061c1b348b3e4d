"""Command-mode message passing (section 3.2).

Command-mode page frames "implement a memory-mapped command interface
between the local processors and the coherence controller ... This
command interface may also be used to provide a low-overhead message
passing interface to software."

This module builds that software facility: a :class:`MessageChannel` is
a pair of command-mode frames (one per endpoint node).  A send is a
burst of uncached stores into the local command frame; the controller
forwards the payload to the peer's controller, which deposits it in the
receiver's command frame and the receiver polls it out with uncached
loads.  No cache coherence protocol runs — the cost is bus + controller
+ network occupancy only, which is what makes it "low-overhead"
relative to shared-memory handoff (miss + invalidate + miss).

Timing: ``send`` charges the sender's bus/controller/NI and the
receiver-side controller deposit; ``receive`` charges the receiver's
polling loads.  Payload *contents* are carried for real (the channel is
usable as a data path in tests/examples).
"""

from __future__ import annotations

from collections import deque

from repro.core.modes import PageMode
from repro.interconnect.messages import MessageKind


class ChannelError(RuntimeError):
    """Misuse of a command-mode message channel."""


class MessageChannel:
    """A unidirectional command-mode channel between two nodes."""

    def __init__(self, machine, src_node: int, dst_node: int,
                 capacity: int = 64) -> None:
        if src_node == dst_node:
            raise ChannelError("channel endpoints must be distinct nodes")
        if capacity < 1:
            raise ChannelError("capacity must be positive")
        self.machine = machine
        self.src = machine.nodes[src_node]
        self.dst = machine.nodes[dst_node]
        self.capacity = capacity
        self.lat = machine.config.latency
        self._queue: "deque[object]" = deque()
        self.sends = 0
        self.receives = 0
        self.full_rejections = 0
        #: Duplicated deposits discarded by sequence-number dedup (only
        #: ever non-zero under a fault plan that duplicates COMMAND
        #: messages; see ``repro.faults``).
        self.dedup_drops = 0
        self._next_seq = 0
        self._last_accepted = -1

        # Each endpoint pins a command-mode frame; the controller
        # recognizes accesses to it as commands, not memory traffic.
        self.src_frame = self._alloc_command_frame(self.src)
        self.dst_frame = self._alloc_command_frame(self.dst)

    @staticmethod
    def _alloc_command_frame(node) -> int:
        frame = node.pools.alloc_real()
        node.pit.install(frame, gpage=-1, static_home=node.node_id,
                         dynamic_home=node.node_id, home_frame=frame,
                         mode=PageMode.COMMAND)
        node.stats.frames_allocated += 1
        return frame

    # -- data path ---------------------------------------------------------

    def send(self, payload, now: int) -> int:
        """Send ``payload`` at time ``now``; returns the completion time
        at the *sender* (the flight to the receiver is asynchronous).

        Raises :class:`ChannelError` when the receive queue is full
        (back-pressure is software's problem, as on real NIs).
        """
        if len(self._queue) >= self.capacity:
            self.full_rejections += 1
            raise ChannelError("channel full (capacity %d)" % self.capacity)
        lat = self.lat
        seq = self._next_seq
        self._next_seq = seq + 1
        # A send is its own root span; the receive's span carries the
        # same ``seq``, which links the two across CPUs.
        marks = self.machine.probes.mark
        for mark in marks:
            mark("channel_send", "msg", self.src.node_id, now, None,
                 dst=self.dst.node_id, seq=seq)
        # Uncached stores of the payload into the command frame.
        t = self.src.bus.request(now)
        t = self.src.bus.transfer(t)
        # The controller picks the command up and injects the message.
        t = self.src.controller.resource.acquire(t, lat.ctrl_dispatch)
        self.src.msglog.record(MessageKind.COMMAND)
        arrival = self.machine.network.send(self.src.node_id,
                                            self.dst.node_id, t,
                                            MessageKind.COMMAND)
        # Receiver-side controller deposits into the command frame
        # (off the sender's critical path).
        self.dst.controller.resource.acquire(arrival, lat.ctrl_dispatch)
        self._queue.append((payload, arrival + lat.ctrl_dispatch, seq))
        faults = getattr(self.machine, "faults", None)
        if faults is not None and faults.consume_duplicate():
            # The fault plane delivered this deposit twice: the copy
            # carries the same sequence number and is queued for real —
            # ``receive`` discards it (idempotent delivery).
            self.dst.controller.resource.acquire(arrival, lat.ctrl_dispatch)
            self._queue.append((payload, arrival + lat.ctrl_dispatch, seq))
        self.sends += 1
        for mark in marks:
            mark("channel_send", "msg", self.src.node_id, None, t)
        return t

    def receive(self, now: int) -> "tuple[object, int] | None":
        """Poll for a message at time ``now``.

        Returns ``(payload, completion_time)`` if a message has arrived
        by ``now`` (plus the polling load cost), else ``None``.
        """
        lat = self.lat
        t = self.dst.bus.request(now)
        t = self.dst.bus.transfer(t)
        while self._queue:
            payload, ready, seq = self._queue[0]
            if ready > now:
                return None
            self._queue.popleft()
            if seq <= self._last_accepted:
                # A duplicated deposit (fault plane): same sequence
                # number as an already-accepted message — discard it.
                self.dedup_drops += 1
                faults = getattr(self.machine, "faults", None)
                if faults is not None:
                    faults.count_dedup_drop()
                continue
            self._last_accepted = seq
            self.receives += 1
            for mark in self.machine.probes.mark:
                # The receive belongs to the *receiver's* causal chain:
                # its own span (a root outside any transaction), linked
                # to the send's by ``seq``.
                mark("channel_recv", "msg", self.dst.node_id, ready, None,
                     src=self.src.node_id, seq=seq)
                mark("channel_recv", "msg", self.dst.node_id, None, t)
            return payload, t
        return None

    def pending(self) -> int:
        """Messages queued at the receiver."""
        return len(self._queue)
