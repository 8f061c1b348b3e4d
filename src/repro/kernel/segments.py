"""Global naming and binding (sections 3.3-3.4).

PRISM exposes shared memory through globalized System V calls: a global
IPC server hands out global segment identifiers (GSIDs) for unique keys
(``shmget``), and processes attach virtual-address regions to global
segments (``shmat``).  Global binding — attaching virtual addresses to
global addresses — happens once per *segment*, at user-controlled
granularity, instead of per page at fault time; after binding, all
translations are node-local.

The simulator keeps one machine-wide :class:`AddressSpaceLayout` because
the application loader attaches every process at identical virtual
addresses (section 3.3).  Homes for shared pages are assigned round
robin across the nodes, as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interconnect.messages import MessageKind, MessageLog


@dataclass
class GlobalSegment:
    """A global segment created via the globalized ``shmget``."""

    gsid: int
    key: int
    size_bytes: int
    gpage_base: int
    num_pages: int
    attach_count: int = 0


class GlobalIpcServer:
    """The machine-wide IPC server that names global segments.

    Creation requests are idempotent on the key, as with System V IPC.
    The server also owns the global page number space: segments receive
    disjoint, page-aligned global page ranges.
    """

    def __init__(self, num_nodes: int, page_bytes: int) -> None:
        self.num_nodes = num_nodes
        self.page_bytes = page_bytes
        self._segments_by_key: "dict[int, GlobalSegment]" = {}
        self._segments_by_gsid: "dict[int, GlobalSegment]" = {}
        self._next_gsid = 1
        self._next_gpage = 0
        self.log = MessageLog()

    def shmget(self, key: int, size_bytes: int) -> GlobalSegment:
        """Create (or look up) the global segment for ``key``."""
        self.log.record(MessageKind.SEG_CREATE)
        seg = self._segments_by_key.get(key)
        if seg is not None:
            if seg.size_bytes < size_bytes:
                raise ValueError(
                    "segment key %d exists with smaller size" % key)
            return seg
        num_pages = -(-size_bytes // self.page_bytes)
        seg = GlobalSegment(gsid=self._next_gsid, key=key,
                            size_bytes=size_bytes,
                            gpage_base=self._next_gpage,
                            num_pages=num_pages)
        self._next_gsid += 1
        self._next_gpage += num_pages
        self._segments_by_key[key] = seg
        self._segments_by_gsid[seg.gsid] = seg
        return seg

    def shmat(self, gsid: int) -> GlobalSegment:
        """Increment the attach count for a segment."""
        self.log.record(MessageKind.SEG_ATTACH)
        seg = self._segments_by_gsid.get(gsid)
        if seg is None:
            raise KeyError("no global segment with gsid %d" % gsid)
        seg.attach_count += 1
        return seg

    def home_of(self, gpage: int) -> int:
        """Static home node of a global page: round robin (section 4.2)."""
        return gpage % self.num_nodes


@dataclass
class Region:
    """A contiguous virtual-address region bound to one segment."""

    vbase: int
    size_bytes: int
    #: ``None`` for node-private regions; otherwise the attached GSID.
    gsid: "int | None"
    gpage_base: int = -1


class AddressSpaceLayout:
    """The (identical-everywhere) virtual address space of a workload.

    Maps virtual page numbers to either a global page (shared regions)
    or "private" (node-local memory).  Built by the workload via
    :meth:`attach_shared` and :meth:`add_private`; queried on every page
    fault by the node kernels.
    """

    def __init__(self, ipc: GlobalIpcServer, page_bytes: int) -> None:
        self.ipc = ipc
        self.page_bytes = page_bytes
        self.regions: "list[Region]" = []
        #: vpage -> gpage for shared pages; private pages are absent.
        self._vpage_to_gpage: "dict[int, int]" = {}
        self._private_vpages: "set[int]" = set()
        self._next_vbase = self.page_bytes  # leave page 0 unmapped

    def _carve(self, size_bytes: int) -> int:
        vbase = self._next_vbase
        pages = -(-size_bytes // self.page_bytes)
        self._next_vbase += pages * self.page_bytes
        return vbase

    def attach_shared(self, key: int, size_bytes: int) -> Region:
        """shmget + shmat: create/look up a segment and bind a region."""
        seg = self.ipc.shmget(key, size_bytes)
        self.ipc.shmat(seg.gsid)
        vbase = self._carve(seg.num_pages * self.page_bytes)
        region = Region(vbase=vbase, size_bytes=seg.num_pages * self.page_bytes,
                        gsid=seg.gsid, gpage_base=seg.gpage_base)
        self.regions.append(region)
        vpage0 = vbase // self.page_bytes
        for i in range(seg.num_pages):
            self._vpage_to_gpage[vpage0 + i] = seg.gpage_base + i
        return region

    def add_private(self, size_bytes: int) -> Region:
        """Reserve a node-private region (stacks, per-process data)."""
        vbase = self._carve(size_bytes)
        pages = -(-size_bytes // self.page_bytes)
        region = Region(vbase=vbase, size_bytes=pages * self.page_bytes,
                        gsid=None)
        self.regions.append(region)
        vpage0 = vbase // self.page_bytes
        for i in range(pages):
            self._private_vpages.add(vpage0 + i)
        return region

    def gpage_of(self, vpage: int) -> "int | None":
        """Global page backing ``vpage``; ``None`` for private pages."""
        return self._vpage_to_gpage.get(vpage)

    def is_mapped(self, vpage: int) -> bool:
        """Is ``vpage`` inside any attached region?"""
        return vpage in self._vpage_to_gpage or vpage in self._private_vpages
