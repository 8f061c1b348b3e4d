"""Per-node page frame pools (section 3.3, "Page Mode Binding").

The OS maintains a pool of free page frames for each mode and allocates
from the pool matching the faulting page's mode.  *Real* frames occupy
local memory; *imaginary* frames (LA-NUMA mode) are pure name space and
are drawn from a disjoint number range so a frame number alone
identifies its kind.

The page-cache capacity limit that drives the paper's SCOMA-70 and
adaptive experiments applies to *client S-COMA frames* — S-COMA frames
backing pages whose home is elsewhere.  Home frames and private frames
are not limited in the paper's runs, and are not here.
"""

from __future__ import annotations

#: Imaginary frame numbers start here; real frames count up from zero.
IMAGINARY_BASE = 1 << 40


def is_imaginary(frame: int) -> bool:
    """Does ``frame`` come from the imaginary number range?"""
    return frame >= IMAGINARY_BASE


class FramePools:
    """Frame allocator for one node."""

    def __init__(self, node_id: int,
                 page_cache_frames: "int | None" = None) -> None:
        self.node_id = node_id
        self.page_cache_frames = page_cache_frames

        self._next_real = 0
        self._next_imaginary = IMAGINARY_BASE
        self._free_real: "list[int]" = []
        self._free_imaginary: "list[int]" = []

        self.real_in_use = 0
        self.imaginary_in_use = 0
        #: Client S-COMA frames currently in use (page-cache occupancy).
        self.client_scoma_in_use = 0
        self.client_scoma_peak = 0

        self.real_allocated_total = 0
        self.imaginary_allocated_total = 0

    # -- queries ---------------------------------------------------------

    def page_cache_full(self) -> bool:
        """Is the client page cache at its configured capacity?"""
        if self.page_cache_frames is None:
            return False
        return self.client_scoma_in_use >= self.page_cache_frames

    def occupancy(self) -> "dict[str, int]":
        """Current pool occupancy and cumulative totals.

        The observability layer publishes these as per-node
        ``kernel.frame_pool.*`` gauges at the end of a run.
        """
        return {
            "real_in_use": self.real_in_use,
            "imaginary_in_use": self.imaginary_in_use,
            "client_scoma_in_use": self.client_scoma_in_use,
            "client_scoma_peak": self.client_scoma_peak,
            "real_allocated_total": self.real_allocated_total,
            "imaginary_allocated_total": self.imaginary_allocated_total,
        }

    # -- allocation ------------------------------------------------------

    def alloc_real(self, client_scoma: bool = False) -> int:
        """Allocate a real frame.

        ``client_scoma`` marks the frame as a client page-cache frame
        and charges it against the page-cache capacity; the caller must
        check :meth:`page_cache_full` first (the kernel's fault handler
        pages out or demotes a victim before retrying).
        """
        if client_scoma and self.page_cache_full():
            raise MemoryError("node %d page cache full" % self.node_id)
        if self._free_real:
            frame = self._free_real.pop()
        else:
            frame = self._next_real
            self._next_real += 1
        self.real_in_use += 1
        self.real_allocated_total += 1
        if client_scoma:
            self.client_scoma_in_use += 1
            if self.client_scoma_in_use > self.client_scoma_peak:
                self.client_scoma_peak = self.client_scoma_in_use
        return frame

    def alloc_imaginary(self) -> int:
        """Allocate an imaginary (LA-NUMA) frame: name space only."""
        if self._free_imaginary:
            frame = self._free_imaginary.pop()
        else:
            frame = self._next_imaginary
            self._next_imaginary += 1
        self.imaginary_in_use += 1
        self.imaginary_allocated_total += 1
        return frame

    def free(self, frame: int, client_scoma: bool = False) -> None:
        """Return a frame to its pool (mirror of the alloc flags)."""
        if is_imaginary(frame):
            self._free_imaginary.append(frame)
            self.imaginary_in_use -= 1
            if self.imaginary_in_use < 0:
                raise RuntimeError("imaginary frame double free")
        else:
            self._free_real.append(frame)
            self.real_in_use -= 1
            if self.real_in_use < 0:
                raise RuntimeError("real frame double free")
            if client_scoma:
                self.client_scoma_in_use -= 1
                if self.client_scoma_in_use < 0:
                    raise RuntimeError("client S-COMA accounting underflow")
