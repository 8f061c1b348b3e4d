"""Unit tests for the fine-grain access tags."""

from repro.core.finegrain import FineGrainTags, Tag


def test_initial_state():
    tags = FineGrainTags(8)
    assert all(t == Tag.INVALID for t in tags)
    tags = FineGrainTags(8, Tag.EXCLUSIVE)
    assert all(t == Tag.EXCLUSIVE for t in tags)


def test_set_get():
    tags = FineGrainTags(4)
    tags.set(2, Tag.SHARED)
    assert tags.get(2) == Tag.SHARED
    assert tags.get(1) == Tag.INVALID


def test_count():
    tags = FineGrainTags(8)
    tags.set(0, Tag.EXCLUSIVE)
    tags.set(1, Tag.EXCLUSIVE)
    tags.set(2, Tag.TRANSIT)
    assert tags.count(Tag.EXCLUSIVE) == 2
    assert tags.count(Tag.INVALID) == 5
    assert tags.count(Tag.TRANSIT) == 1


def test_len_and_iter():
    tags = FineGrainTags(12)
    assert len(tags) == 12
    assert len(list(tags)) == 12
