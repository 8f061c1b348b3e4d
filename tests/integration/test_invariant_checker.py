"""Meta-tests: the invariant checker must actually catch corruption.

A checker that always returns an empty list would pass every other
test in this suite; here we deliberately break each invariant and
assert it is reported.
"""

import pytest

from repro.core.directory import DirState
from repro.core.finegrain import Tag
from repro.mem.cache import LineState
from repro.sim.invariants import check_machine

from tests.conftest import Harness


@pytest.fixture
def populated():
    h = Harness()
    page = h.page_homed_at(1)
    h.read(h.cpu_on_node(0), h.vaddr(page, 0))    # SHARED line
    h.write(h.cpu_on_node(2), h.vaddr(page, 1))   # CLIENT_EXCL line
    assert check_machine(h.machine) == []
    return h, page


def test_detects_stale_presence(populated):
    h, page = populated
    h.node(0).presence._holders[4242] = 1 << 0
    assert any("stale presence" in p for p in check_machine(h.machine))


def test_detects_presence_cache_mismatch(populated):
    h, page = populated
    entry = h.entry_at(0, page)
    line = entry.frame * h.machine.config.lines_per_page
    cpu = h.machine.cpus[h.cpu_on_node(0)]
    cpu.hierarchy.invalidate(line)   # cache dropped, presence kept
    assert any("presence" in p for p in check_machine(h.machine))


@pytest.mark.parametrize("bit", [1, 5])
def test_detects_one_corrupted_presence_bit(populated, bit):
    """A presence mask with one extra bit set -- a sibling that holds
    nothing, or a CPU the node does not have -- is reported."""
    h, page = populated
    entry = h.entry_at(0, page)
    line = entry.frame * h.machine.config.lines_per_page
    holders = h.node(0).presence._holders
    assert holders[line] == 1 << h.machine.cpus[h.cpu_on_node(0)].local_id
    holders[line] ^= 1 << bit
    problems = check_machine(h.machine)
    assert any("presence" in p and "line %d" % line in p for p in problems)


def test_detects_broken_reverse_map(populated):
    h, page = populated
    other_page = h.page_homed_at(1, skip=1)
    h.read(h.cpu_on_node(0), h.vaddr(other_page, 0))
    pit = h.node(0).pit
    entry = h.entry_at(0, page)
    other = h.entry_at(0, other_page)
    pit._by_gpage[entry.gpage] = other.frame  # cross the pointers
    problems = check_machine(h.machine)
    assert any("reverse-maps" in p for p in problems)


def test_detects_home_excl_with_client_copies(populated):
    h, page = populated
    dl = h.dir_line(page, 0)     # SHARED with node 0
    dl.state = DirState.HOME_EXCL
    dl.sharers = set()
    assert any("HOME_EXCL but clients" in p
               for p in check_machine(h.machine))


def test_detects_missing_sharer(populated):
    h, page = populated
    dl = h.dir_line(page, 0)
    dl.sharers.discard(0)
    assert any("not sharers" in p for p in check_machine(h.machine))


def test_detects_wrong_home_tag(populated):
    h, page = populated
    h.entry_at(1, page).tags.set(1, Tag.EXCLUSIVE)  # line 1 is CLIENT_EXCL
    assert any("CLIENT_EXCL but home tag E" in p
               for p in check_machine(h.machine))


def test_detects_double_modified(populated):
    h, page = populated
    entry0 = h.entry_at(0, page)
    lpp = h.machine.config.lines_per_page
    line0 = entry0.frame * lpp + 1
    cpu0 = h.machine.cpus[h.cpu_on_node(0)]
    cpu0.hierarchy.fill(line0, LineState.MODIFIED)
    holders = h.node(0).presence._holders
    holders[line0] = holders.get(line0, 0) | 1 << 0
    entry0.tags.set(1, Tag.EXCLUSIVE)
    problems = check_machine(h.machine)
    assert any("MODIFIED" in p or "also hold copies" in p
               for p in problems)


def test_detects_shared_with_exclusive_node(populated):
    h, page = populated
    dl = h.dir_line(page, 0)
    h.entry_at(0, page).tags.set(0, Tag.EXCLUSIVE)
    assert any("SHARED but" in p and "exclusive" in p
               for p in check_machine(h.machine))
