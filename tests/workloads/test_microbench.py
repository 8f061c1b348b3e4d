"""The microbenchmark must reproduce Table 1: the paper's exact rows
exactly, the model's remote composites within 2%, and every row on the
conformance driver's run path."""

import pytest

from repro.sim.latency import PAPER_TABLE1, LatencyModel
from repro.verify.mutations import apply_mutation
from repro.verify.runner import Verdict, run_litmus
from repro.workloads.microbench import (Table1Row, run_microbenchmark,
                                        table1_rows, write_shared_row)

#: What the simulator measures for every Table 1 row.
TABLE1 = {
    "l2_hit": 12, "local_memory": 36, "remote_clean": 575,
    "2party_modified": 610, "3party_modified": 861,
    "2party_write_shared": 610, "write_shared_base": 1130,
    "write_shared_per_sharer": 80, "tlb_miss": 30,
    "fault_local": 2300, "fault_remote": 4400,
}

#: Rows whose timed reference is one coherence transaction.
SINGLE_TRANSACTION = ("remote_clean", "2party_modified", "3party_modified",
                      "2party_write_shared", "write_shared_base",
                      "write_shared+2")


@pytest.fixture(scope="module")
def measured():
    return run_microbenchmark()


EXACT_ROWS = ("l2_hit", "local_memory", "tlb_miss",
              "fault_local", "fault_remote")
CLOSE_ROWS = ("remote_clean", "2party_modified", "3party_modified",
              "2party_write_shared", "write_shared_base",
              "write_shared_per_sharer")


@pytest.mark.parametrize("row", EXACT_ROWS)
def test_exact_rows_match_paper(measured, row):
    assert measured[row] == PAPER_TABLE1[row]


@pytest.mark.parametrize("row", CLOSE_ROWS)
def test_remote_rows_within_2pct(measured, row):
    paper = PAPER_TABLE1[row]
    assert abs(measured[row] - paper) <= max(2, 0.02 * paper), \
        "%s: measured %d vs paper %d" % (row, measured[row], paper)


def test_table1_is_pinned_exactly(measured):
    assert measured == TABLE1
    assert list(measured) == list(PAPER_TABLE1)


def _run(row, trace=False):
    result = run_litmus(row, trace=trace)
    assert result.verdict == Verdict.COMPLETED_SC, result.describe()
    return result


def test_l1_hit_is_single_cycle():
    """Two reads of one private line: the second costs one cycle."""
    row = Table1Row("l1_hit", lambda w: [(0, w.private_line(0), False)] * 2)
    _run(row)
    assert row.value == 1


def test_a_row_that_fails_the_checks_raises():
    """A protocol bug on a row's path is an error, not a number: the
    client keeping its copy after the home's write breaks the walks."""
    with apply_mutation("skip-client-invalidate"), \
            pytest.raises(RuntimeError, match="row 2party_modified"):
        run_microbenchmark()


def test_ordering_invariants(measured):
    """Relative ordering of Table 1 rows must hold."""
    assert (measured["l2_hit"] < measured["local_memory"]
            < measured["remote_clean"]
            <= measured["2party_modified"]
            < measured["3party_modified"]
            < measured["write_shared_base"])
    assert measured["fault_local"] < measured["fault_remote"]


def test_extra_sharers_cost_linear():
    """The (3+n)-party write is the base plus one invalidation issue per
    extra sharer, exactly."""
    per_sharer = LatencyModel().inval_issue
    for extra in range(6):
        row = write_shared_row(extra)
        _run(row)
        assert row.value == TABLE1["write_shared_base"] + extra * per_sharer


def _latest(traces, name=None):
    """The trace whose root began last (of root ``name``, if given)."""
    return max((t for t in traces if name in (None, t.spans[0]["name"])),
               key=lambda t: t.spans[0]["begin"])


def test_table1_under_the_tracer():
    """Traced rows measure the same values; a single-transaction row's
    timed reference is one root span that lasts exactly the row and
    whose breakdown sums to it, and a fault row's fault span is the
    row."""
    values = {}
    for row in table1_rows():
        collector = _run(row, trace=True).trace
        values[row.name] = row.value
        traces = collector.slowest(collector.top_capacity)
        assert len(traces) == collector.finished
        if row.name in SINGLE_TRANSACTION:
            timed = _latest(traces)
            assert timed.spans[0]["name"] in ("miss", "upgrade")
            assert timed.duration == row.value
            assert sum(timed.breakdown.values()) == row.value
        elif row.name.startswith("fault_"):
            assert _latest(traces, "fault").duration == row.value
    with_two = values.pop("write_shared+2")
    values["write_shared_per_sharer"] = \
        (with_two - values["write_shared_base"]) // 2
    assert values == TABLE1
