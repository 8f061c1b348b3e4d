"""Inter-node protocol message vocabulary.

The simulator resolves transactions atomically, so messages are not
queued objects; they are *accounted* — every protocol step increments
a per-node :class:`MessageLog` counter keyed by :class:`MessageKind`,
and under a fault plan each hop is stamped with a per-link sequence
number by a :class:`SequenceTracker`.
"""

from __future__ import annotations

from enum import IntEnum, auto


class MessageKind(IntEnum):
    """Every message type the nodes exchange."""

    # Coherence protocol.
    READ_REQ = auto()          # client -> home: shared copy wanted
    READ_EXCL_REQ = auto()     # client -> home: exclusive copy wanted
    UPGRADE_REQ = auto()       # client -> home: shared -> exclusive
    DATA_REPLY = auto()        # home/owner -> client: line data
    ACK = auto()               # generic acknowledgement
    INVALIDATE = auto()        # home -> sharer
    INTERVENTION = auto()      # home -> owner: fetch / downgrade
    WRITEBACK = auto()         # owner -> home: dirty line
    REPLACEMENT_HINT = auto()  # owner -> home: clean exclusive dropped
    FORWARD = auto()           # stale home -> static home -> dynamic home

    # External paging (section 3.3).
    PAGE_IN_REQ = auto()       # client kernel -> home kernel
    PAGE_IN_REPLY = auto()     # home kernel -> client kernel
    PAGE_OUT_REQ = auto()      # home kernel -> client kernels
    PAGE_OUT_ACK = auto()
    CLIENT_PAGE_OUT = auto()   # client kernel -> home kernel
    STATUS_RESET = auto()      # home unmapped: reset home-page-status

    # Global naming (section 3.4).
    SEG_CREATE = auto()        # kernel -> global IPC server
    SEG_ATTACH = auto()
    SEG_REPLY = auto()

    # Lazy migration (section 3.5).
    MIGRATE_REQ = auto()       # static home -> old/new dynamic homes
    MIGRATE_ACK = auto()

    # Command-mode interface (section 3.2).
    COMMAND = auto()           # processor -> controller, memory mapped


class SequenceTracker:
    """Per-link sequence numbers with receiver-side dedup.

    Under a fault plan, every (src, dst) link stamps its messages with a
    monotonically increasing sequence number and the receiver remembers
    the highest number it has *accepted*.  Because a link delivers its
    accepted messages in stamp order (a retransmission reuses the
    original stamp), a duplicate or replayed message always arrives with
    ``seq <= accepted`` and is discarded — protocol handlers run at most
    once per stamp, which is what makes duplication idempotent.
    """

    __slots__ = ("_next", "_accepted", "dedup_drops")

    def __init__(self) -> None:
        self._next: "dict[tuple[int, int], int]" = {}
        self._accepted: "dict[tuple[int, int], int]" = {}
        self.dedup_drops = 0

    def stamp(self, src: int, dst: int) -> int:
        """Assign the next sequence number for the src->dst link."""
        link = (src, dst)
        seq = self._next.get(link, 0)
        self._next[link] = seq + 1
        return seq

    def accept(self, src: int, dst: int, seq: int) -> bool:
        """Receiver-side check: ``True`` for a fresh message, ``False``
        (counted in :attr:`dedup_drops`) for a duplicate/replay."""
        link = (src, dst)
        if seq <= self._accepted.get(link, -1):
            self.dedup_drops += 1
            return False
        self._accepted[link] = seq
        return True

    def seen(self, src: int, dst: int, seq: int) -> bool:
        """Would :meth:`accept` reject this stamp? (no side effects)."""
        return seq <= self._accepted.get((src, dst), -1)


class MessageLog:
    """Per-node counters of protocol messages sent, by kind."""

    __slots__ = ("sent",)

    def __init__(self) -> None:
        self.sent: "dict[MessageKind, int]" = {}

    def record(self, kind: MessageKind, count: int = 1) -> None:
        """Count ``count`` sends of ``kind``."""
        self.sent[kind] = self.sent.get(kind, 0) + count

    def total(self) -> int:
        """All messages sent."""
        return sum(self.sent.values())

    def get(self, kind: MessageKind) -> int:
        """Messages of one kind sent."""
        return self.sent.get(kind, 0)
