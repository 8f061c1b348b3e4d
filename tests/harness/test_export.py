"""Tests for result serialization."""

import pytest

import repro
from repro.harness.export import (campaign_to_dict, load_campaign,
                                  save_campaign, suite_to_dict)
from repro.harness.session import Session


@pytest.fixture(scope="module")
def suite():
    return Session().run_workload_suite(
        "water-spa", policies=("scoma", "lanuma", "scoma-70"),
        preset="tiny", config=repro.tiny_config())


def test_suite_to_dict(suite):
    flat = suite_to_dict(suite)
    assert flat["policies"]["scoma"]["normalized_time"] == 1.0
    assert flat["policies"]["lanuma"]["remote_misses"] > 0
    assert flat["page_cache_caps"]
    assert (flat["page_cache_caps"]
            == suite.results["scoma-70"].page_cache_caps)


def test_save_and_load_campaign(suite, tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign({"water-spa": suite}, str(path))
    back = load_campaign(str(path))
    assert back["water-spa"]["policies"]["lanuma"]["execution_cycles"] > 0
    assert back == campaign_to_dict({"water-spa": suite})

