"""Focused tests for replacement (eviction) traffic.

The policy-performance gap in the paper comes down to what happens when
a line leaves the processor caches: S-COMA lines land in the local page
cache, LA-NUMA lines must go back to the remote home.
"""

import pytest

from repro.core.directory import DirState
from repro.sim.invariants import check_machine

from tests.conftest import Harness


def overflow_l2(h, cpu, home, start_skip, count=None):
    """Read enough distinct lines to evict everything previously
    cached by ``cpu``."""
    cfg = h.machine.config
    lines = count if count is not None else cfg.l2.num_lines + 4
    pages_needed = -(-lines // cfg.lines_per_page)
    done = 0
    skip = start_skip
    while done < lines:
        page = h.page_homed_at(home, skip=skip)
        for lip in range(cfg.lines_per_page):
            h.read(cpu, h.vaddr(page, lip))
            done += 1
            if done >= lines:
                break
        skip += 1


class TestScomaReplacement:
    def test_dirty_eviction_stays_local(self, harness):
        h = harness
        cpu = h.cpu_on_node(0)
        page = h.page_homed_at(1)
        h.write(cpu, h.vaddr(page, 0))
        wbr_before = h.node(0).stats.writebacks_remote
        dram_before = h.node(0).memory.port.busy_cycles
        overflow_l2(h, cpu, home=1, start_skip=1)
        # The dirty line went to the local page cache, not to the home.
        assert h.node(0).stats.writebacks_remote == wbr_before
        assert h.node(0).memory.port.busy_cycles > dram_before
        # Ownership is retained in the page cache: the tag is still E.
        from repro.core.finegrain import Tag
        assert h.entry_at(0, page).tags.get(0) == Tag.EXCLUSIVE
        assert h.dir_line(page, 0).owner == 0
        assert check_machine(h.machine) == []

    def test_reread_after_eviction_hits_page_cache(self, harness):
        h = harness
        cpu = h.cpu_on_node(0)
        page = h.page_homed_at(1)
        h.write(cpu, h.vaddr(page, 0))
        overflow_l2(h, cpu, home=1, start_skip=1)
        rm_before = h.node(0).stats.remote_misses
        latency = h.read(cpu, h.vaddr(page, 0))
        assert h.node(0).stats.remote_misses == rm_before
        assert latency <= 100  # local page-cache service


class TestLanumaReplacement:
    def test_dirty_eviction_returns_ownership_to_home(self):
        h = Harness(policy="lanuma")
        cpu = h.cpu_on_node(0)
        page = h.page_homed_at(1)
        h.write(cpu, h.vaddr(page, 0))   # node 0 owns the line, dirty
        from repro.interconnect.messages import MessageKind
        overflow_l2(h, cpu, home=1, start_skip=1)
        # The dirty line was written back; the directory reverted.
        assert h.dir_line(page, 0).state == DirState.HOME_EXCL
        assert h.node(0).msglog.sent.get(MessageKind.WRITEBACK, 0) >= 1
        assert check_machine(h.machine) == []

    def test_reread_after_eviction_goes_remote(self):
        h = Harness(policy="lanuma")
        cpu = h.cpu_on_node(0)
        page = h.page_homed_at(1)
        h.write(cpu, h.vaddr(page, 0))
        overflow_l2(h, cpu, home=1, start_skip=1)
        rm_before = h.node(0).stats.remote_misses
        latency = h.read(cpu, h.vaddr(page, 0))
        assert h.node(0).stats.remote_misses == rm_before + 1
        assert latency > 500  # full remote fetch

    def test_sibling_keeps_line_alive(self):
        """If a sibling CPU still caches the line, eviction on one CPU
        must not revert ownership to the home."""
        h = Harness(policy="lanuma")
        cpu0 = h.cpu_on_node(0, 0)
        cpu1 = h.cpu_on_node(0, 1)
        page = h.page_homed_at(1)
        h.write(cpu0, h.vaddr(page, 0))
        h.read(cpu1, h.vaddr(page, 0))       # sibling snarfs a copy
        overflow_l2(h, cpu0, home=1, start_skip=1)
        # cpu1 still holds it; the node must still be listed.
        dl = h.dir_line(page, 0)
        assert (dl.state == DirState.SHARED and 0 in dl.sharers) or \
               (dl.state == DirState.CLIENT_EXCL and dl.owner == 0)
        assert check_machine(h.machine) == []


class TestDirtySiblingShare:
    def test_lanuma_read_snarf_writes_back_home(self):
        h = Harness(policy="lanuma")
        cpu0 = h.cpu_on_node(0, 0)
        cpu1 = h.cpu_on_node(0, 1)
        page = h.page_homed_at(1)
        h.write(cpu0, h.vaddr(page, 0))      # dirty in cpu0's cache
        wbr = h.node(0).stats.writebacks_remote
        h.read(cpu1, h.vaddr(page, 0))       # sibling read
        assert h.node(0).stats.writebacks_remote == wbr + 1
        dl = h.dir_line(page, 0)
        assert dl.state == DirState.SHARED
        assert dl.sharers == {0}
        assert check_machine(h.machine) == []

    def test_scoma_read_snarf_stays_local(self, harness):
        h = harness
        cpu0 = h.cpu_on_node(0, 0)
        cpu1 = h.cpu_on_node(0, 1)
        page = h.page_homed_at(1)
        h.write(cpu0, h.vaddr(page, 0))
        wbr = h.node(0).stats.writebacks_remote
        h.read(cpu1, h.vaddr(page, 0))
        assert h.node(0).stats.writebacks_remote == wbr
        assert h.dir_line(page, 0).owner == 0  # node still owns it
        assert check_machine(h.machine) == []
