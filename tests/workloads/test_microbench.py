"""The microbenchmark must reproduce Table 1 within tight tolerance."""

import pytest

from repro.sim.latency import PAPER_TABLE1
from repro.workloads.microbench import LatencyProbe, run_microbenchmark


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


def test_l1_hit_is_single_cycle():
    probe = LatencyProbe()
    vaddr = probe.private.vbase
    probe.access(0, vaddr)          # fault + cold miss
    assert probe.access(0, vaddr) == 1


def test_ordering_invariants(measured):
    """Relative ordering of Table 1 rows must hold."""
    assert (measured["l2_hit"] < measured["local_memory"]
            < measured["remote_clean"]
            <= measured["2party_modified"]
            < measured["3party_modified"]
            < measured["write_shared_base"])
    assert measured["fault_local"] < measured["fault_remote"]


def test_extra_sharers_cost_linear():
    base = LatencyProbe().probe_write_shared(0)
    plus3 = LatencyProbe().probe_write_shared(3)
    per = (plus3 - base) / 3
    assert per == pytest.approx(PAPER_TABLE1["write_shared_per_sharer"],
                                abs=5)
