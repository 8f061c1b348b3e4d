"""Unit tests for the full-map directory and its cache."""

import pytest

from repro.core.directory import Directory, DirectoryCache, DirState


def test_create_and_lookup():
    d = Directory(0, lines_per_page=4, cache_entries=8)
    page = d.create_page(10, home_frame=3)
    assert d.page(10) is page
    assert page.lines[2].state == DirState.HOME_EXCL
    assert d.page(11) is None
    assert 10 in d
    assert len(d) == 1


def test_duplicate_page_rejected():
    d = Directory(0, 4, 8)
    d.create_page(10, 3)
    with pytest.raises(KeyError):
        d.create_page(10, 4)


def test_remove_and_adopt_moves_state():
    src = Directory(0, 4, 8)
    dst = Directory(1, 4, 8)
    page = src.create_page(10, 3)
    page.lines[1].state = DirState.SHARED
    page.lines[1].sharers = {2}
    moved = src.remove_page(10)
    dst.adopt_page(moved, home_frame=7)
    assert 10 not in src
    assert dst.page(10).home_frame == 7
    assert dst.page(10).lines[1].sharers == {2}


def test_adopt_duplicate_rejected():
    d = Directory(0, 4, 8)
    page = d.create_page(10, 3)
    with pytest.raises(KeyError):
        d.adopt_page(page, 4)


def test_directory_cache_hit_miss():
    cache = DirectoryCache(2)
    assert cache.access(1, 0) is False  # cold
    assert cache.access(1, 0) is True
    cache.access(2, 0)
    cache.access(3, 0)  # evicts (1, 0), LRU
    assert cache.access(1, 0) is False
    assert cache.misses == 3 + 1
    assert cache.hits == 1


def test_directory_cache_lru_refresh():
    cache = DirectoryCache(2)
    cache.access(1, 0)
    cache.access(2, 0)
    cache.access(1, 0)      # refresh 1
    cache.access(3, 0)      # evicts 2
    assert cache.access(1, 0) is True
    assert cache.access(2, 0) is False


def test_clients_and_counters():
    d = Directory(0, 4, 8)
    page = d.create_page(10, 3)
    page.clients.add(5)
    page.remote_refs += 3
    assert d.page(10).clients == {5}
    assert d.page(10).remote_refs == 3
