"""Unit tests for the text-table renderer."""

import pytest

from repro.harness.report import TextTable


def test_basic_render():
    table = TextTable("Title", ["name", "value"])
    table.add_row("alpha", 42)
    table.add_row("beta", 3.14159)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "====="
    assert "alpha" in text
    assert "3.142" in text  # floats get 3 decimals


def test_numeric_cells_right_aligned():
    table = TextTable("T", ["k", "v"])
    table.add_row("row", 7)
    body = table.render().splitlines()[-1]
    key_cell, value_cell = body.split(" | ")
    assert key_cell.startswith("row")
    assert value_cell.endswith("7")


def test_column_widths_grow_with_content():
    table = TextTable("T", ["c"])
    table.add_row("a-very-wide-cell-value")
    header = table.render().splitlines()[2]
    assert len(header) >= len("a-very-wide-cell-value")


def test_wrong_cell_count_rejected():
    table = TextTable("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_str_equals_render():
    table = TextTable("T", ["a"])
    table.add_row(1)
    assert str(table) == table.render()
