"""Unit tests for global naming and binding."""

import pytest

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer


@pytest.fixture
def ipc():
    return GlobalIpcServer(num_nodes=4, page_bytes=256)


def test_shmget_is_idempotent_on_key(ipc):
    a = ipc.shmget(7, 1024)
    b = ipc.shmget(7, 512)
    assert a is b
    assert a.num_pages == 4


def test_shmget_disjoint_gpage_ranges(ipc):
    a = ipc.shmget(1, 1024)
    b = ipc.shmget(2, 512)
    assert b.gpage_base >= a.gpage_base + a.num_pages


def test_shmat_counts_attaches(ipc):
    seg = ipc.shmget(1, 256)
    ipc.shmat(seg.gsid)
    ipc.shmat(seg.gsid)
    assert seg.attach_count == 2


def test_shmat_unknown_gsid(ipc):
    with pytest.raises(KeyError):
        ipc.shmat(99)


def test_round_robin_homes(ipc):
    assert [ipc.home_of(g) for g in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_layout_translations(ipc):
    layout = AddressSpaceLayout(ipc, page_bytes=256)
    shared = layout.attach_shared(key=1, size_bytes=1024)
    private = layout.add_private(512)
    svp = shared.vbase // 256
    assert layout.gpage_of(svp) == shared.gpage_base
    assert layout.gpage_of(svp + 3) == shared.gpage_base + 3
    pvp = private.vbase // 256
    assert layout.gpage_of(pvp) is None
    assert layout.is_mapped(pvp)
    assert not layout.is_mapped(0)  # page 0 is deliberately unmapped


def test_layout_regions_do_not_overlap(ipc):
    layout = AddressSpaceLayout(ipc, page_bytes=256)
    a = layout.attach_shared(key=1, size_bytes=1000)  # rounds to 4 pages
    b = layout.add_private(100)
    assert b.vbase >= a.vbase + a.size_bytes


def test_total_shared_pages(ipc):
    layout = AddressSpaceLayout(ipc, page_bytes=256)
    regions = [layout.attach_shared(key=1, size_bytes=1024),
               layout.attach_shared(key=2, size_bytes=256)]
    gpages = {layout.gpage_of(region.vbase // 256 + i)
              for region in regions
              for i in range(region.size_bytes // 256)}
    assert len(gpages) == 5 and None not in gpages


def test_oversize_reuse_rejected(ipc):
    ipc.shmget(5, 256)
    with pytest.raises(ValueError):
        ipc.shmget(5, 4096)
