"""Unit tests for the Page Information Table."""

import pytest

from repro.core.finegrain import Tag
from repro.core.modes import PageMode
from repro.core.pit import PageInformationTable


@pytest.fixture
def pit():
    return PageInformationTable(node_id=1, lines_per_page=8)


def test_install_scoma_client_tags_invalid(pit):
    entry = pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                        home_frame=9, mode=PageMode.SCOMA)
    assert entry.tags is not None
    assert entry.tags.get(0) == Tag.INVALID


def test_install_scoma_home_tags_exclusive(pit):
    entry = pit.install(3, gpage=40, static_home=1, dynamic_home=1,
                        home_frame=3, mode=PageMode.SCOMA)
    assert entry.tags.get(5) == Tag.EXCLUSIVE


def test_lanuma_has_no_tags(pit):
    entry = pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                        home_frame=9, mode=PageMode.LANUMA)
    assert entry.tags is None


def test_lanuma_at_home_rejected(pit):
    with pytest.raises(ValueError):
        pit.install(3, gpage=40, static_home=1, dynamic_home=1,
                    home_frame=3, mode=PageMode.LANUMA)


def test_double_install_rejected(pit):
    pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                home_frame=9, mode=PageMode.SCOMA)
    with pytest.raises(KeyError):
        pit.install(3, gpage=41, static_home=0, dynamic_home=0,
                    home_frame=9, mode=PageMode.SCOMA)


def test_same_gpage_twice_rejected(pit):
    pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                home_frame=9, mode=PageMode.SCOMA)
    with pytest.raises(KeyError):
        pit.install(4, gpage=40, static_home=0, dynamic_home=0,
                    home_frame=9, mode=PageMode.SCOMA)


def test_reverse_translation_with_correct_guess_is_fast(pit):
    pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                home_frame=9, mode=PageMode.SCOMA)
    entry = pit.by_gpage(40, guess_frame=3)
    assert entry.frame == 3
    assert pit.hash_lookups == 0


def test_reverse_translation_with_wrong_guess_falls_to_hash(pit):
    pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                home_frame=9, mode=PageMode.SCOMA)
    pit.install(5, gpage=41, static_home=0, dynamic_home=0,
                home_frame=2, mode=PageMode.SCOMA)
    entry = pit.by_gpage(40, guess_frame=5)  # guess points at gpage 41
    assert entry.frame == 3
    assert pit.hash_lookups == 1


def test_reverse_translation_unmapped(pit):
    assert pit.by_gpage(99) is None


def test_remove_clears_reverse_map(pit):
    pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                home_frame=9, mode=PageMode.SCOMA)
    pit.remove(3)
    assert pit.by_gpage(40) is None
    assert 3 not in pit


def test_local_frames_skip_reverse_map(pit):
    pit.install(7, gpage=-1, static_home=1, dynamic_home=1,
                home_frame=7, mode=PageMode.LOCAL)
    assert pit.by_gpage(-1) is None


def test_touched_lines(pit):
    entry = pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                        home_frame=9, mode=PageMode.SCOMA)
    # The machine's reference path sets one bit per line it touches.
    for line in (0, 5, 5):
        entry.touched |= 1 << line
    assert entry.touched_lines() == 2


def test_memory_firewall():
    pit = PageInformationTable(node_id=1, lines_per_page=8)
    entry = pit.install(3, gpage=40, static_home=0, dynamic_home=0,
                        home_frame=9, mode=PageMode.SCOMA)
    assert pit.write_allowed(3, writer_node=5)  # no capability list
    entry.allowed_writers = {0, 2}
    assert pit.write_allowed(3, writer_node=2)
    assert not pit.write_allowed(3, writer_node=5)
    assert not pit.write_allowed(99, writer_node=0)  # unmapped frame
