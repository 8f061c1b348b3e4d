"""Unit tests for the per-node frame pools."""

import pytest

from repro.kernel.frames import IMAGINARY_BASE, FramePools, is_imaginary


def test_real_and_imaginary_ranges_disjoint():
    pools = FramePools(0)
    real = pools.alloc_real()
    imag = pools.alloc_imaginary()
    assert not is_imaginary(real)
    assert is_imaginary(imag)
    assert imag >= IMAGINARY_BASE


def test_free_and_reuse():
    pools = FramePools(0)
    f = pools.alloc_real()
    pools.free(f)
    assert pools.alloc_real() == f
    assert pools.real_in_use == 1


def test_page_cache_accounting():
    pools = FramePools(0, page_cache_frames=2)
    a = pools.alloc_real(client_scoma=True)
    assert not pools.page_cache_full()
    b = pools.alloc_real(client_scoma=True)
    assert pools.page_cache_full()
    with pytest.raises(MemoryError):
        pools.alloc_real(client_scoma=True)
    pools.free(b, client_scoma=True)
    assert not pools.page_cache_full()
    assert pools.client_scoma_peak == 2


def test_page_cache_only_limits_client_frames():
    pools = FramePools(0, page_cache_frames=1)
    pools.alloc_real(client_scoma=True)
    # Home/private frames are not limited by the page cache.
    pools.alloc_real()
    pools.alloc_real()
    assert pools.real_in_use == 3


def test_double_free_detected():
    pools = FramePools(0)
    f = pools.alloc_real()
    pools.free(f)
    with pytest.raises(RuntimeError):
        pools.free(f)


def test_allocation_totals():
    pools = FramePools(0)
    pools.alloc_real()
    f = pools.alloc_real()
    pools.free(f)
    pools.alloc_real()
    pools.alloc_imaginary()
    assert pools.real_allocated_total == 3
    assert pools.imaginary_allocated_total == 1
