"""The memory-latency microbenchmark behind Table 1.

The paper measures uncontended cache-miss latencies and paging
overheads "by a memory-latency microbenchmark".  This module sets up
the same scenarios on a small machine and measures each access with the
simulator's own reference path, so the numbers reflect exactly what
application references pay.

Every probe isolates one Table 1 row; all probes leave large time gaps
between accesses so resources are idle (uncontended latencies).
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine

#: Gap between probe accesses, enough for any resource to drain.
GAP = 100_000


def _microbench_config(**overrides) -> MachineConfig:
    cfg = MachineConfig(
        num_nodes=8,
        cpus_per_node=2,
        page_bytes=1024,
        line_bytes=32,
        l1=CacheConfig(1024, 32, 2),
        l2=CacheConfig(8192, 32, 4),
        tlb_entries=16,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class LatencyProbe:
    """Drives crafted references through a machine and times them."""

    def __init__(self, config: "MachineConfig | None" = None,
                 policy: str = "lanuma") -> None:
        self.machine = Machine(config or _microbench_config(), policy=policy)
        self.clock = 0
        # One large shared segment; gpage g is homed at node g % N.
        self.region = self.machine.layout.attach_shared(
            key=9001, size_bytes=256 * self.machine.config.page_bytes)
        self.private = self.machine.layout.add_private(
            64 * self.machine.config.page_bytes)

    # -- plumbing --------------------------------------------------------

    def access(self, cpu_index: int, vaddr: int, write: bool = False) -> int:
        """One reference; returns its latency in cycles."""
        self.clock += GAP
        cpu = self.machine.cpus[cpu_index]
        end = self.machine._access(cpu, vaddr, write, self.clock)
        return end - self.clock

    def cpu_on_node(self, node_id: int, local: int = 0) -> int:
        """Global CPU index of a node's ``local``-th CPU."""
        return node_id * self.machine.config.cpus_per_node + local

    def shared_vaddr(self, page_index: int, line_in_page: int = 0) -> int:
        """Virtual address of a line within the probe region."""
        cfg = self.machine.config
        return (self.region.vbase + page_index * cfg.page_bytes
                + line_in_page * cfg.line_bytes)

    def warm_directory(self, page_index: int, line_in_page: int) -> None:
        """Pre-touch a directory-cache entry so the measured access sees
        a directory cache hit (Table 1 reports steady-state latencies)."""
        gpage = self.region.gpage_base + page_index
        home = self.machine.nodes[self.machine.dynamic_home_of(gpage)]
        home.directory.cache.access(gpage, line_in_page)

    def page_homed_at(self, node_id: int, skip: int = 0) -> int:
        """Index (within the region) of a page homed at ``node_id``."""
        base_gpage = self.region.gpage_base
        count = 0
        for i in range(256):
            if self.machine.static_home_of(base_gpage + i) == node_id:
                if count == skip:
                    return i
                count += 1
        raise RuntimeError("no page homed at node %d" % node_id)

    # -- Table 1 probes ---------------------------------------------------

    def probe_l2_hit(self) -> int:
        """L1 miss, L2 hit: evict a line from L1 (2-way) with two
        same-L1-set lines from other pages, then re-access it."""
        cfg = self.machine.config
        page = cfg.page_bytes
        target = self.private.vbase
        self.access(0, target)                    # fault + miss (page 0)
        self.access(0, target + page)             # fault page 1
        self.access(0, target + 2 * page)         # fault page 2
        self.access(0, target + page)             # same L1 set as target
        self.access(0, target + 2 * page)         # evicts target from L1
        return self.access(0, target)

    def probe_local_memory(self) -> int:
        """'Uncached, line in local memory' (Table 1)."""
        vaddr = self.private.vbase + 3 * self.machine.config.page_bytes
        self.access(0, vaddr)                          # fault the page
        return self.access(0, vaddr + self.machine.config.line_bytes)

    def probe_tlb_miss(self) -> int:
        """'TLB miss' (Table 1)."""
        cfg = self.machine.config
        base = self.private.vbase + 8 * cfg.page_bytes
        lines_per_page = cfg.lines_per_page
        pages = cfg.tlb_entries + 4
        for p in range(pages):
            # Distinct lines so the measured page's line stays cached.
            self.access(0, base + p * cfg.page_bytes
                        + (p % lines_per_page) * cfg.line_bytes)
        # Page 0's translation has been evicted; its line is still in L2
        # or L1, so the extra cost over a hit is the TLB reload.
        return self.access(0, base) - self.machine.config.latency.l1_hit

    def probe_remote_clean(self) -> int:
        """'Uncached, line in remote memory' (Table 1)."""
        home = 1
        page = self.page_homed_at(home)
        client = self.cpu_on_node(0)
        self.access(client, self.shared_vaddr(page))          # fault
        self.warm_directory(page, 1)
        return self.access(client, self.shared_vaddr(page, 1))

    def probe_2party_modified(self) -> int:
        """'2-party read/write to a modified line' (Table 1)."""
        home = 2
        page = self.page_homed_at(home)
        home_cpu = self.cpu_on_node(home)
        client = self.cpu_on_node(0)
        vaddr = self.shared_vaddr(page, 2)
        self.access(home_cpu, vaddr, write=True)   # dirty in home's cache
        self.access(client, self.shared_vaddr(page, 3))       # fault page
        self.warm_directory(page, 2)
        return self.access(client, vaddr)

    def probe_3party_modified(self) -> int:
        """'3-party read/write to a modified line' (Table 1)."""
        home = 3
        page = self.page_homed_at(home)
        owner = self.cpu_on_node(4)
        requester = self.cpu_on_node(5)
        vaddr = self.shared_vaddr(page, 4)
        self.access(owner, vaddr, write=True)      # owner node holds M
        self.access(requester, self.shared_vaddr(page, 5))    # fault page
        return self.access(requester, vaddr)

    def probe_2party_write_shared(self) -> int:
        """'2-party write to shared line' (Table 1)."""
        home = 6
        page = self.page_homed_at(home)
        client = self.cpu_on_node(0)
        vaddr = self.shared_vaddr(page, 6)
        self.access(client, vaddr)                 # shared copy
        return self.access(client, vaddr, write=True)

    def probe_write_shared(self, extra_sharers: int) -> int:
        """'(3+n)-party write to shared line' (Table 1)."""
        home = 7
        page = self.page_homed_at(home)
        vaddr = self.shared_vaddr(page, 7)
        writer_node = 0
        sharer_nodes = [n for n in range(self.machine.config.num_nodes)
                        if n not in (home, writer_node)]
        readers = sharer_nodes[:1 + extra_sharers]
        self.access(self.cpu_on_node(writer_node), vaddr)
        for node in readers:
            self.access(self.cpu_on_node(node), vaddr)
        return self.access(self.cpu_on_node(writer_node), vaddr, write=True)

    def probe_fault_local(self) -> int:
        """'In-core page fault, local home' (Table 1)."""
        vaddr = self.private.vbase + 40 * self.machine.config.page_bytes
        full = self.access(0, vaddr)
        return full - self.machine.config.latency.expected_local_memory

    def probe_fault_remote(self) -> int:
        """'In-core page fault, remote home' (Table 1)."""
        page = self.page_homed_at(1, skip=8)
        vaddr = self.shared_vaddr(page, 8)
        self.warm_directory(page, 8)
        full = self.access(self.cpu_on_node(0), vaddr)
        return full - self.machine.config.latency.expected_remote_clean


def run_microbenchmark(config: "MachineConfig | None" = None) -> "dict[str, int]":
    """Measure every Table 1 row; returns ``{row_name: cycles}``.

    Each probe's machine is closed when the measurement is done.
    """
    results: "dict[str, int]" = {}
    with ExitStack() as owned:
        probe = LatencyProbe(config)
        owned.callback(probe.machine.close)
        results["l2_hit"] = probe.probe_l2_hit()
        results["local_memory"] = probe.probe_local_memory()
        results["remote_clean"] = probe.probe_remote_clean()
        results["2party_modified"] = probe.probe_2party_modified()
        results["3party_modified"] = probe.probe_3party_modified()
        results["2party_write_shared"] = probe.probe_2party_write_shared()
        base_probe = LatencyProbe(config)
        owned.callback(base_probe.machine.close)
        base = base_probe.probe_write_shared(0)
        results["write_shared_base"] = base
        two_probe = LatencyProbe(config)
        owned.callback(two_probe.machine.close)
        with_two = two_probe.probe_write_shared(2)
        results["write_shared_per_sharer"] = (with_two - base) // 2
        results["tlb_miss"] = probe.probe_tlb_miss()
        fresh = LatencyProbe(config)
        owned.callback(fresh.machine.close)
        results["fault_local"] = fresh.probe_fault_local()
        results["fault_remote"] = fresh.probe_fault_remote()
    return results
