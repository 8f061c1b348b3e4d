"""Tests for the experiment runner, tables and figure generation."""

import pytest

import repro
from repro.harness.figures import figure7_ascii, figure7_table
from repro.harness.runner import CAPPED_POLICIES
from repro.harness.session import ExperimentSpec, Session
from repro.harness.tables import table1, table2, table3, table4, table5


@pytest.fixture(scope="module")
def suites():
    cfg = repro.tiny_config()
    apps = ("water-nsq", "fft")
    return Session().run_campaign(apps, preset="tiny", config=cfg)


def test_session_run_returns_result():
    result = Session().run(ExperimentSpec("fft", "scoma", preset="tiny",
                                          config=repro.tiny_config()))
    assert result.workload == "fft"
    assert result.policy == "scoma"
    assert result.stats.execution_cycles > 0


def test_suite_contains_all_policies(suites):
    for suite in suites.values():
        assert set(suite.results) == {"scoma", "lanuma", "scoma-70",
                                      "dyn-fcfs", "dyn-util", "dyn-lru"}


def test_caps_are_70pct_of_scoma_peak(suites):
    suite = suites["fft"]
    scoma = suite.results["scoma"]
    expected = [max(1, int(0.7 * node_stats.scoma_client_frames_peak))
                for node_stats in scoma.stats.nodes]
    assert suite.page_cache_caps == expected
    for policy in CAPPED_POLICIES:
        if policy in suite.results:
            assert suite.results[policy].page_cache_caps == expected
    assert suite.results["lanuma"].page_cache_caps is None


def test_scoma70_actually_pages_out(suites):
    assert suites["fft"].page_outs("scoma-70") > 0


def test_normalized_time_baseline_is_one(suites):
    for suite in suites.values():
        assert suite.normalized_time("scoma") == 1.0


def test_suite_always_runs_scoma_first_for_caps():
    # Even when the caller omits scoma, the suite runs it to derive the
    # page-cache caps that the capped policies need.
    suite = Session().run_workload_suite(
        "water-nsq", policies=("scoma-70",), preset="tiny",
        config=repro.tiny_config())
    assert "scoma" in suite.results
    assert suite.page_cache_caps


def test_capped_policies_list():
    assert "scoma-70" in CAPPED_POLICIES
    assert "lanuma" not in CAPPED_POLICIES


def test_figure7_outputs(suites):
    assert suites["fft"].normalized_time("scoma") == 1.0
    text = figure7_ascii(suites)
    assert "fft" in text and "dyn-lru" in text
    table = figure7_table(suites)
    rendered = table.render()
    assert "water-nsq" in rendered


def test_table_renderers(suites):
    for table in (table3(suites), table4(suites), table5(suites)):
        rendered = table.render()
        assert "fft" in rendered
        assert "Paper" in rendered or "paper" in rendered


def test_table2_lists_all_apps():
    rendered = table2().render()
    for app in repro.APPLICATIONS:
        assert app in rendered


@pytest.mark.slow
def test_table1_renders():
    rendered = table1().render()
    assert "TLB miss" in rendered
    assert "573" in rendered
