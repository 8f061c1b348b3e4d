"""Coverage for the Figure 7 renderers (repro.harness.figures).

Builds a real two-app campaign at the tiny preset, then smoke-renders
every figure form — text table, ASCII bars — and writes
the rendered artifacts to a temp dir, asserting each lands on disk
non-empty.
"""

import pytest

from repro.harness.figures import figure7_ascii, figure7_table
from repro.harness.session import Session

APPS = ("fft", "lu")
POLICIES = ("scoma", "lanuma", "ccnuma")


@pytest.fixture(scope="module")
def suites():
    session = Session(jobs=1, cache_dir=None)
    return session.run_campaign(APPS, policies=POLICIES, preset="tiny")


def test_series_is_normalized_to_scoma(suites):
    assert set(suites) == set(APPS)
    for app in APPS:
        suite = suites[app]
        assert set(suite.results) == set(POLICIES)
        assert suite.normalized_time("scoma") == 1.0
        for policy in POLICIES:
            assert suite.normalized_time(policy) > 0.0


def test_table_renders_every_app_row(suites):
    text = figure7_table(suites).render()
    assert "Figure 7" in text
    for app in APPS:
        assert app in text
    for policy in ("scoma", "lanuma"):
        assert policy in text


def test_ascii_chart_draws_bars_for_every_app(suites):
    chart = figure7_ascii(suites, width=20)
    assert "normalized to SCOMA" in chart
    for app in APPS:
        assert app in chart
    assert "#" in chart  # at least one bar got drawn
    assert "labelled bars" in chart


def test_rendered_figures_land_on_disk(suites, tmp_path):
    outputs = {
        "figure7_table.txt": figure7_table(suites).render(),
        "figure7_ascii.txt": figure7_ascii(suites),
    }
    for name, text in outputs.items():
        path = tmp_path / name
        path.write_text(text + "\n")
        assert path.exists()
        assert path.stat().st_size > 0


def test_ascii_caps_runaway_bars():
    class FakeStats:
        def __init__(self, cycles):
            self.execution_cycles = cycles

    class FakeRun:
        def __init__(self, cycles):
            self.stats = FakeStats(cycles)

    class FakeSuite:
        def __init__(self):
            self.results = {"scoma": FakeRun(100), "lanuma": FakeRun(1000)}

        def normalized_time(self, policy, baseline="scoma"):
            return (self.results[policy].stats.execution_cycles
                    / self.results[baseline].stats.execution_cycles)

    chart = figure7_ascii({"toy": FakeSuite()}, width=10)
    line = next(l for l in chart.splitlines() if "lanuma" in l)
    assert "+" in line       # overflow marker
    assert "10.00" in line   # real value still printed
    assert line.count("#") == 10
