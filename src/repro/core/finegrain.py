"""Fine-grain access tags for S-COMA mode frames (section 3.2).

The coherence controller keeps a two-bit tag for every cache line of a
frame in S-COMA mode.  The tag encodes the *node-level* state of the
line in the local page cache:

* ``T`` (Transit)   — a transaction is in flight; bus retries are
  asserted for any access.
* ``E`` (Exclusive) — this node holds the only copy machine-wide; all
  local accesses proceed under the local bus protocol.
* ``S`` (Shared)    — other nodes may hold copies; local reads proceed,
  local writes stall while the controller obtains exclusivity.
* ``I`` (Invalid)   — any access stalls while the controller obtains a
  copy from the home.

Home-node frames are initialized all-``E`` at page-in; client frames
all-``I``.  The tags also double as the paper's utilization probe: a
line whose tag ever left ``I`` (clients) or was ever accessed (home)
counts as *touched* for Table 3.
"""

from __future__ import annotations

from enum import IntEnum


class Tag(IntEnum):
    """The 2-bit per-line tag states (module docstring)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    TRANSIT = 3


#: Tag members indexed by their value: ``_TAGS[byte]`` is ``Tag(byte)``
#: without the enum constructor call.
_TAGS: "tuple[Tag, ...]" = tuple(Tag)


class FineGrainTags:
    """Tag array for one S-COMA frame."""

    __slots__ = ("tags",)

    def __init__(self, lines_per_page: int, initial: Tag = Tag.INVALID) -> None:
        self.tags = bytearray([int(initial)] * lines_per_page)

    def get(self, line_in_page: int) -> Tag:
        """Tag of one line."""
        return _TAGS[self.tags[line_in_page]]

    def set(self, line_in_page: int, tag: Tag) -> None:
        """Set one line's tag."""
        self.tags[line_in_page] = int(tag)

    def count(self, tag: Tag) -> int:
        """Number of lines currently in ``tag`` state (Dyn-Util uses
        the Invalid count to pick demotion victims)."""
        return self.tags.count(int(tag))

    def lines_in(self, tag: Tag) -> "list[int]":
        """Line indices currently in ``tag`` state."""
        value = int(tag)
        return [i for i, t in enumerate(self.tags) if t == value]

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self):
        return (_TAGS[t] for t in self.tags)
