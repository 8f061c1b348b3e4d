"""Page frame modes (section 3.2 of the paper).

A *mode* is associated with every page frame and dictates how the
coherence controller handles bus transactions touching that frame:

* ``LOCAL``   — private local memory; the controller takes no action.
* ``SCOMA``   — the frame is part of the local page cache for globally
  shared pages; the controller consults 2-bit fine-grain tags per line.
* ``LANUMA``  — an *imaginary* frame that addresses no memory; the
  controller acts as the memory behind it, translating to a global
  address via the PIT and conversing with the home node.
* ``COMMAND`` — memory-mapped command interface between the OS and the
  controller (used for PIT/tag installation during paging).
* ``CCNUMA``  — the optional extension mode of section 3.2: physical
  addresses directly identify memory at the home node, bypassing the
  PIT.  Used by the pure CC-NUMA machine configuration.

The paper encodes the mode either in high-order physical address bits
or in the frame's PIT entry; this model uses the PIT-entry style, which
is what allows a frame's mode to change dynamically.
"""

from __future__ import annotations

from enum import IntEnum


class PageMode(IntEnum):
    """The per-frame modes the controller dispatches on."""

    LOCAL = 0
    SCOMA = 1
    LANUMA = 2
    COMMAND = 3
    CCNUMA = 4

    @property
    def is_global(self) -> bool:
        """Does the mode back a *globally shared* page?"""
        return self in (PageMode.SCOMA, PageMode.LANUMA, PageMode.CCNUMA)

    @property
    def is_real(self) -> bool:
        """Does a frame in this mode occupy *local* physical memory?

        CC-NUMA client frames name memory at the home node directly, so
        like LA-NUMA frames they consume no local memory.
        """
        return self in (PageMode.LOCAL, PageMode.SCOMA)

    @property
    def is_remote_backed(self) -> bool:
        """Is the frame's data held at the (remote) home — i.e. no
        local page-cache copy exists for the controller to consult?"""
        return self in (PageMode.LANUMA, PageMode.CCNUMA)

