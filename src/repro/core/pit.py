"""The Page Information Table (sections 3.2, 4.1, Figure 5).

Every node's coherence controller owns a PIT with one entry per local
page frame.  An entry records the global page backed by the frame, the
page's home (split into *static* and *dynamic* home for lazy migration,
section 3.5), a cached guess of the frame number at the home, the
frame's mode, the fine-grain tags (S-COMA frames only), and — for the
fault-containment extension — a writer capability list.

Forward translation (physical -> global) is a table lookup at
``pit_access`` cycles.  Reverse translation (global -> physical) uses a
guessed frame number carried in the message when available (requests to
the home carry the home frame number cached in the client's PIT) and
falls back to a hash search at ``pit_hash`` cycles otherwise — exactly
the asymmetry section 4.1 describes: home nodes enjoy the fast path,
invalidations arriving at client nodes take the hash path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.finegrain import FineGrainTags, Tag
from repro.core.modes import PageMode
from repro.kernel.frames import IMAGINARY_BASE


@dataclass
class PitEntry:
    """One Page Information Table entry (Figure 5)."""

    frame: int
    gpage: int
    static_home: int
    dynamic_home: int
    home_frame: "int | None"
    mode: PageMode
    tags: "FineGrainTags | None" = None
    #: Bitmask of lines ever accessed through this frame (Table 3's
    #: page-utilization probe).
    touched: int = 0
    #: Home-page-status flag (section 3.3): while set, faults on this
    #: page need not contact the home again.
    home_status: bool = True
    #: Optional capability list for the memory-firewall extension; None
    #: means "no filtering".
    allowed_writers: "set[int] | None" = None

    def touched_lines(self) -> int:
        """How many distinct lines were ever accessed."""
        return bin(self.touched).count("1")


class PageInformationTable:
    """Per-node PIT with forward and reverse translation."""

    def __init__(self, node_id: int, lines_per_page: int) -> None:
        self.node_id = node_id
        self.lines_per_page = lines_per_page
        self._by_frame: "dict[int, PitEntry]" = {}
        self._by_gpage: "dict[int, int]" = {}   # the "hash table"
        # Dense frame -> entry tables mirroring _by_frame, one per frame
        # number range (real frames count from 0, imaginary frames from
        # IMAGINARY_BASE).  The simulator's per-reference paths resolve
        # frames with a single list index here; the modeled
        # pit_access/pit_hash latencies are charged by the callers as
        # before — this is host-speed bookkeeping only.
        self.dense_real: "list[PitEntry | None]" = []
        self.dense_imag: "list[PitEntry | None]" = []
        self.lookups = 0
        self.hash_lookups = 0

    def _dense_set(self, frame: int, entry: "PitEntry | None") -> None:
        if frame < IMAGINARY_BASE:
            dense = self.dense_real
        else:
            dense = self.dense_imag
            frame -= IMAGINARY_BASE
        if frame >= len(dense):
            dense.extend([None] * (frame + 1 - len(dense)))
        dense[frame] = entry

    # -- installation / removal ----------------------------------------

    def install(self, frame: int, gpage: int, static_home: int,
                dynamic_home: int, home_frame: "int | None",
                mode: PageMode) -> PitEntry:
        """Insert a translation (OS command-mode interface)."""
        if frame in self._by_frame:
            raise KeyError("frame %d already mapped" % frame)
        if mode.is_remote_backed and dynamic_home == self.node_id:
            raise ValueError(
                "%s frames may not be used at the home node (section 3.3)"
                % mode.name)
        tags = None
        if mode == PageMode.SCOMA:
            initial = (Tag.EXCLUSIVE if dynamic_home == self.node_id
                       else Tag.INVALID)
            tags = FineGrainTags(self.lines_per_page, initial)
        entry = PitEntry(frame=frame, gpage=gpage, static_home=static_home,
                         dynamic_home=dynamic_home, home_frame=home_frame,
                         mode=mode, tags=tags)
        self._by_frame[frame] = entry
        self._dense_set(frame, entry)
        if mode.is_global:
            if gpage in self._by_gpage:
                raise KeyError("gpage %d already mapped at node %d"
                               % (gpage, self.node_id))
            self._by_gpage[gpage] = frame
        return entry

    def remove(self, frame: int) -> PitEntry:
        """Remove a translation (page-out / demotion)."""
        entry = self._by_frame.pop(frame)
        self._dense_set(frame, None)
        if entry.mode.is_global:
            self._by_gpage.pop(entry.gpage, None)
        return entry

    # -- translation ---------------------------------------------------

    def by_gpage(self, gpage: int,
                 guess_frame: "int | None" = None) -> "PitEntry | None":
        """Reverse translation: global page -> entry.

        ``guess_frame`` models the frame-number hint carried in protocol
        messages; a correct guess avoids the hash search (and its extra
        latency, accounted by the caller via :attr:`hash_lookups`).
        """
        self.lookups += 1
        if guess_frame is not None:
            entry = self._by_frame.get(guess_frame)
            if entry is not None and entry.gpage == gpage:
                return entry
        self.hash_lookups += 1
        frame = self._by_gpage.get(gpage)
        if frame is None:
            return None
        return self._by_frame[frame]

    def entry_or_none(self, frame: int) -> "PitEntry | None":
        """Forward lookup without charging a statistics lookup (used by
        bookkeeping paths that model no hardware access)."""
        if frame < IMAGINARY_BASE:
            dense = self.dense_real
        else:
            dense = self.dense_imag
            frame -= IMAGINARY_BASE
        return dense[frame] if frame < len(dense) else None

    def entry_for_gpage(self, gpage: int) -> "PitEntry | None":
        """Reverse lookup without charging a statistics lookup (used by
        kernel bookkeeping, e.g. reattaching to a frame left behind by a
        home migration)."""
        frame = self._by_gpage.get(gpage)
        if frame is None:
            return None
        return self._by_frame[frame]

    def fast_ratio(self) -> float:
        """Fraction of charged lookups that avoided the hash search.

        1.0 when no lookups were charged (nothing was slow).  The
        observability layer publishes this per node at the end of a run
        (``core.pit_fast_ratio`` — the section 4.1/4.3 asymmetry as a
        single number).
        """
        if not self.lookups:
            return 1.0
        return 1.0 - (self.hash_lookups / self.lookups)

    def frames(self) -> "list[PitEntry]":
        """All entries (one per mapped frame)."""
        return list(self._by_frame.values())

    def __len__(self) -> int:
        return len(self._by_frame)

    def __contains__(self, frame: int) -> bool:
        return frame in self._by_frame

    # -- memory firewall (fault-containment extension) ------------------

    def write_allowed(self, frame: int, writer_node: int) -> bool:
        """Check a remote write against the frame's capability list.

        Since every remote access is checked against the PIT anyway, a
        capability list per entry filters wild writes from faulty nodes
        (section 3.2 "memory firewall").
        """
        entry = self._by_frame.get(frame)
        if entry is None:
            return False
        if entry.allowed_writers is None:
            return True
        return writer_node in entry.allowed_writers
