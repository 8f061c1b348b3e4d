"""Unit tests for page frame modes."""

from repro.core.modes import PageMode


def test_globality():
    assert PageMode.SCOMA.is_global
    assert PageMode.LANUMA.is_global
    assert PageMode.CCNUMA.is_global
    assert not PageMode.LOCAL.is_global
    assert not PageMode.COMMAND.is_global


def test_reality():
    assert PageMode.LOCAL.is_real
    assert PageMode.SCOMA.is_real
    assert not PageMode.LANUMA.is_real

