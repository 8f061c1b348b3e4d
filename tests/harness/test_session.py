"""Tests for the parallel campaign engine (ExperimentSpec / Session)."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.harness import session as session_module
from repro.harness.report import CampaignProgress
from repro.harness.session import ExperimentSpec, Session, execute_spec
from repro.sim.config import MachineConfig, tiny_config

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def spec(workload="fft", policy="scoma", **kwargs):
    kwargs.setdefault("preset", "tiny")
    kwargs.setdefault("config", tiny_config())
    return ExperimentSpec(workload, policy, **kwargs)


class TestExperimentSpec:
    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            spec().policy = "lanuma"

    def test_cache_fraction_defaults_by_policy(self):
        assert spec(policy="scoma-70").cache_fraction == 0.7
        assert spec(policy="dyn-lru").cache_fraction == 0.7
        # A policy that takes no cap has no fraction.
        assert spec().cache_fraction is None
        assert spec(policy="lanuma", cache_fraction=0.4).cache_fraction is None
        # An absolute cap (config.page_cache_frames) sets no fraction.
        assert spec(policy="scoma-70",
                    cache_fraction=None).cache_fraction is None
        # The fraction is part of the cell, and so of its cache key.
        capped = spec(policy="scoma-70")
        assert capped.cache_key() != spec(policy="scoma-70",
                                          cache_fraction=0.4).cache_key()
        assert hash(capped) == hash(spec(policy="scoma-70"))

    def test_none_config_resolves_to_default(self):
        s = ExperimentSpec("fft", "scoma")
        assert s.resolved_config() == MachineConfig()
        # ... and shares a cache entry with the explicit default.
        explicit = ExperimentSpec("fft", "scoma", config=MachineConfig())
        assert s.cache_key() == explicit.cache_key()

    def test_cache_key_sensitive_to_inputs(self):
        base = spec()
        assert base.cache_key() == spec().cache_key()
        assert base.cache_key() != spec(policy="lanuma").cache_key()
        assert base.cache_key() != spec(seed=7).cache_key()
        assert (base.cache_key()
                != spec(config=tiny_config(tlb_entries=16)).cache_key())
        # Nested latency fields count too.
        from dataclasses import replace

        from repro.sim.latency import LatencyModel
        slow_pit = replace(tiny_config(), latency=LatencyModel(pit_access=10))
        assert base.cache_key() != spec(config=slow_pit).cache_key()

    def test_payload_round_trip(self):
        s = spec(policy="scoma-70", cache_fraction=0.4)
        back = ExperimentSpec.from_payload(s.to_payload())
        assert back == ExperimentSpec(
            "fft", "scoma-70", preset="tiny", config=tiny_config(),
            cache_fraction=0.4)
        assert back.cache_key() == s.cache_key()


class TestSessionRun:
    def test_run_matches_direct_machine(self):
        s = spec()
        via_session = Session().run(s)
        direct = execute_spec(s)
        assert via_session.stats.to_dict() == direct.stats.to_dict()
        assert via_session.workload == "fft"
        assert via_session.policy == "scoma"

    def test_run_suite_preserves_input_order(self):
        results = Session().run_suite(
            [spec(policy="lanuma"), spec(policy="scoma")])
        assert [r.policy for r in results] == ["lanuma", "scoma"]

    def test_workload_suite_matches_single_runs(self):
        cfg = tiny_config()
        suite = Session().run_workload_suite("water-nsq", preset="tiny",
                                             config=cfg)
        # Each suite cell must equal the same spec run standalone.
        caps = suite.page_cache_caps
        for policy in ("scoma", "lanuma"):
            single = execute_spec(ExperimentSpec("water-nsq", policy,
                                                 preset="tiny", config=cfg))
            assert (suite.results[policy].stats.to_dict()
                    == single.stats.to_dict())
        assert caps == [max(1, int(0.7 * n.scoma_client_frames_peak))
                        for n in suite.results["scoma"].stats.nodes]

    def test_capped_run_matches_the_campaign_cell(self):
        # A lone capped cell runs its SCOMA sibling first, unreported,
        # and comes out as the campaign's cell.
        suite = Session().run_workload_suite("fft", preset="tiny")
        session = Session(progress=CampaignProgress(enabled=False))
        alone = session.run(ExperimentSpec("fft", "scoma-70", preset="tiny"))
        cell = suite.results["scoma-70"]
        assert alone.stats.to_dict() == cell.stats.to_dict()
        assert (alone.stats.execution_cycles,
                alone.stats.client_page_outs) == (366866, 28)
        assert alone.page_cache_caps == suite.page_cache_caps
        assert session.progress.done == 1
        dyn_lru = ExperimentSpec("fft", "dyn-lru", preset="tiny")
        assert Session().page_cache_caps(dyn_lru) == suite.page_cache_caps
        assert (Session().run(dyn_lru).stats.to_dict()
                == suite.results["dyn-lru"].stats.to_dict())

    def test_execute_spec_never_runs_a_capped_cell_uncapped(self):
        with pytest.raises(ValueError, match="SCOMA sibling"):
            execute_spec(spec(policy="scoma-70"))
        with pytest.raises(ValueError, match="SCOMA sibling"):
            execute_spec(spec(), caps=[1, 1])
        caps = Session().page_cache_caps(spec(policy="scoma-70"))
        assert Session().page_cache_caps(spec()) is None
        assert (execute_spec(spec(policy="scoma-70"), caps=caps).stats
                .to_dict() == Session().run(spec(policy="scoma-70"))
                .stats.to_dict())

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            Session(jobs=0)


class TestResultCache:
    def test_warm_cache_skips_recomputation(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Session(cache_dir=cache_dir)
        suite = cold.run_workload_suite("fft", preset="tiny",
                                        config=tiny_config())
        cells = len(suite.results)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cells

        warm = Session(cache_dir=cache_dir)
        again = warm.run_workload_suite("fft", preset="tiny",
                                        config=tiny_config())
        assert warm.cache_hits == cells
        assert warm.cache_misses == 0
        for policy in suite.results:
            assert (again.results[policy].stats.to_dict()
                    == suite.results[policy].stats.to_dict())

    def test_config_tweak_only_recomputes_changed_cells(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        Session(cache_dir=cache_dir).run(spec(policy="lanuma"))
        s2 = Session(cache_dir=cache_dir)
        s2.run(spec(policy="lanuma"))
        assert (s2.cache_hits, s2.cache_misses) == (1, 0)
        s2.run(spec(policy="lanuma", config=tiny_config(tlb_entries=16)))
        assert (s2.cache_hits, s2.cache_misses) == (1, 1)

    def test_model_source_change_is_a_miss(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        Session(cache_dir=cache_dir).run(spec())
        monkeypatch.setattr(session_module, "model_digest",
                            lambda: "0" * 64)
        fresh = Session(cache_dir=cache_dir)
        fresh.run(spec())
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)

    def test_warm_cache_serves_a_capped_cell_without_its_sibling(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Session(cache_dir=cache_dir)
        first = cold.run(spec(policy="dyn-lru"))
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = Session(cache_dir=cache_dir)
        again = warm.run(spec(policy="dyn-lru"))
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert again.stats.to_dict() == first.stats.to_dict()
        assert again.page_cache_caps == first.page_cache_caps
        # Another fraction is another cell; its sibling is cached.
        other = Session(cache_dir=cache_dir)
        assert other.page_cache_caps(spec(policy="dyn-lru")) \
            == first.page_cache_caps
        other.run(spec(policy="dyn-lru", cache_fraction=0.4))
        assert (other.cache_hits, other.cache_misses) == (2, 1)

    @pytest.mark.parametrize("corrupt", [
        lambda entry: [entry],                            # not an object
        lambda entry: {k: v for k, v in entry.items() if k != "stats"},
        lambda entry: dict(entry, stats={
            k: v for k, v in entry["stats"].items() if k != "nodes"}),
    ], ids=["not-an-object", "no-stats", "truncated-stats"])
    def test_malformed_entry_is_a_miss_and_overwritten(self, tmp_path,
                                                        corrupt):
        import json
        cache_dir = str(tmp_path / "cache")
        first = Session(cache_dir=cache_dir).run(spec())
        (path,) = (tmp_path / "cache").rglob("*.json")
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        fresh = Session(cache_dir=cache_dir)
        again = fresh.run(spec())
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)
        assert again.stats.to_dict() == first.stats.to_dict()
        warm = Session(cache_dir=cache_dir)        # the entry was rewritten
        warm.run(spec())
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)


class TestMetricsCollection:
    def test_collect_metrics_attaches_snapshot(self):
        result = Session(collect_metrics=True).run(spec())
        assert result.metrics is not None
        assert result.metrics["schema"] == 1
        hist = result.metrics["histograms"][
            "sim.access_latency_cycles{policy=scoma}"]
        assert hist["count"] == result.stats.references

    def test_metrics_do_not_change_stats_or_cache_key(self):
        plain = Session().run(spec())
        metered = Session(collect_metrics=True).run(spec())
        assert metered.stats.to_dict() == plain.stats.to_dict()
        assert plain.metrics is None

    def test_metrics_ride_along_in_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        Session(cache_dir=cache_dir, collect_metrics=True).run(spec())
        warm = Session(cache_dir=cache_dir)
        result = warm.run(spec())
        assert warm.cache_hits == 1
        assert result.metrics is not None      # snapshot came from disk
        # Entries stored without metrics stay valid, just snapshot-less.
        other = Session(cache_dir=cache_dir).run(spec(policy="lanuma"))
        assert other.metrics is None
        again = Session(cache_dir=cache_dir).run(spec(policy="lanuma"))
        assert again.metrics is None

    def test_attach_observes_the_live_machine(self):
        from repro.obs import EventSink, validate_event
        from repro.obs.recorder import TraceRecorder
        sink = EventSink()
        result = execute_spec(
            spec(), collect_metrics=True,
            attach=lambda machine: TraceRecorder(machine,
                                                 sink=sink).__enter__())
        assert result.metrics is not None
        assert sink.events
        for event in sink.events[:50]:
            validate_event(event)
        # Identical to an unobserved run.
        assert result.stats.to_dict() == execute_spec(spec()).stats.to_dict()

    def test_metrics_session_reruns_entry_without_snapshot(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        Session(cache_dir=cache_dir).run(spec())       # stored, no snapshot
        metered = Session(cache_dir=cache_dir, collect_metrics=True)
        result = metered.run(spec())
        assert (metered.cache_hits, metered.cache_misses) == (0, 1)
        assert result.metrics is not None
        warm = Session(cache_dir=cache_dir, collect_metrics=True)
        assert warm.run(spec()).metrics is not None     # entry overwritten
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)

    def test_trace_session_reruns_entry_without_rollups(self, tmp_path):
        def rollups(metrics):
            return [k for k in metrics["gauges"] if k.startswith("trace.")]

        cache_dir = str(tmp_path / "cache")
        stored = Session(cache_dir=cache_dir, collect_metrics=True).run(spec())
        assert stored.metrics is not None and rollups(stored.metrics) == []
        traced = Session(cache_dir=cache_dir, trace_cells=True)
        result = traced.run(spec())
        assert (traced.cache_hits, traced.cache_misses) == (0, 1)
        assert rollups(result.metrics)
        warm = Session(cache_dir=cache_dir, trace_cells=True)
        assert rollups(warm.run(spec()).metrics)        # entry overwritten
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        # A metrics session takes the traced entry: it holds more.
        metered = Session(cache_dir=cache_dir, collect_metrics=True)
        metered.run(spec())
        assert (metered.cache_hits, metered.cache_misses) == (1, 0)

    def test_parallel_metrics_match_sequential(self):
        def deterministic(snapshot):
            # Everything but the wall-clock families (harness timers,
            # host throughput gauges) is a pure function of the
            # simulation and must match across runs.
            return {section: {k: v for k, v in members.items()
                              if not k.startswith(("harness.", "host."))}
                    for section, members in snapshot.items()
                    if isinstance(members, dict)}

        seq = Session(collect_metrics=True).run(spec())
        par = Session(jobs=2, collect_metrics=True).run_suite([spec()])[0]
        assert deterministic(par.metrics) == deterministic(seq.metrics)


class TestRemovedWrappers:
    def test_deprecated_free_functions_are_gone(self):
        # run_one / run_suite / run_all_suites were deprecated by the
        # parallel-harness change and have since been removed; the
        # Session / ExperimentSpec API is the only entry point.
        import repro.harness
        import repro.harness.runner as runner
        for name in ("run_one", "run_suite", "run_all_suites"):
            assert not hasattr(repro.harness, name)
            assert not hasattr(runner, name)
            assert name not in repro.harness.__all__


class TestProgress:
    def test_progress_lines_and_summary(self, capsys):
        session = Session(progress=CampaignProgress())
        session.run_workload_suite("fft", policies=("scoma", "lanuma"),
                                   preset="tiny", config=tiny_config())
        out = capsys.readouterr().out
        assert "fft" in out and "lanuma" in out
        assert session.progress.done == 2
        assert "2 cells" in session.progress.summary()

    def test_disabled_progress_prints_nothing(self, capsys):
        session = Session(progress=CampaignProgress(enabled=False))
        session.run(spec())
        assert capsys.readouterr().out == ""
        assert session.progress.done == 1

    def test_summary_reports_result_cache_counters(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        Session(cache_dir=cache_dir).run(spec())
        session = Session(cache_dir=cache_dir,
                          progress=CampaignProgress(enabled=False))
        session.run_suite([spec(), spec(policy="lanuma")])
        assert "[result cache: 1 hits, 1 misses]" in session.progress.summary()

    def test_summary_omits_cache_counters_without_cache(self):
        session = Session(progress=CampaignProgress(enabled=False))
        session.run(spec())
        assert "result cache" not in session.progress.summary()


@pytest.mark.parallel
class TestParallelScheduler:
    """The multiprocessing path must be output-identical to jobs=1."""

    def test_jobs4_suite_identical_to_jobs1(self):
        cfg = tiny_config()
        seq = Session(jobs=1).run_workload_suite("fft", preset="tiny",
                                                 config=cfg)
        par = Session(jobs=4).run_workload_suite("fft", preset="tiny",
                                                 config=cfg)
        assert list(par.results) == list(seq.results)
        assert par.page_cache_caps == seq.page_cache_caps
        for policy in seq.results:
            assert par.normalized_time(policy) == seq.normalized_time(policy)
            assert (par.results[policy].stats.to_dict()
                    == seq.results[policy].stats.to_dict())

    def test_jobs2_campaign_two_stage_dag(self):
        cfg = tiny_config()
        apps = ("fft", "water-nsq")
        seq = Session(jobs=1).run_campaign(apps, preset="tiny", config=cfg)
        par = Session(jobs=2).run_campaign(apps, preset="tiny", config=cfg)
        for app in apps:
            assert par[app].page_cache_caps == seq[app].page_cache_caps
            assert list(par[app].results) == list(seq[app].results)
            for policy in seq[app].results:
                assert (par[app].results[policy].stats.to_dict()
                        == seq[app].results[policy].stats.to_dict())

    def test_jobs2_lone_capped_cells_identical_to_jobs1(self):
        cells = [spec(policy="scoma-70"), spec(policy="lanuma"),
                 spec(policy="dyn-util", cache_fraction=0.4)]
        seq = Session(jobs=1).run_suite(cells)
        par = Session(jobs=2).run_suite(cells)
        assert ([r.stats.to_dict() for r in par]
                == [r.stats.to_dict() for r in seq])
        assert ([r.page_cache_caps for r in par]
                == [r.page_cache_caps for r in seq])

    def test_parallel_worker_error_propagates(self):
        with pytest.raises(ValueError):
            Session(jobs=2).run_suite(
                [spec(), ExperimentSpec("no-such-app", "scoma",
                                        preset="tiny",
                                        config=tiny_config())])


class TestModelDigest:
    """The cache key folds in the model's source (repro/{sim,core,mem,
    kernel,interconnect,workloads}), so an edit there misses the cache
    and an edit elsewhere does not.  Each case edits a copy of the
    package and runs one cell against a shared cache in a fresh
    interpreter."""

    CELL = ("from repro.harness.session import ExperimentSpec, Session\n"
            "session = Session(cache_dir=%r)\n"
            "session.run(ExperimentSpec('fft', 'scoma', preset='tiny'))\n"
            "print(session.cache_hits, session.cache_misses)\n")

    def lookups(self, tmp_path, name, edit=None):
        root = tmp_path / name
        shutil.copytree(SRC / "repro", root / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            path, old, new = edit
            text = (root / "repro" / path).read_text()
            assert old in text
            (root / "repro" / path).write_text(text.replace(old, new, 1))
        out = subprocess.run(
            [sys.executable, "-c", self.CELL % str(tmp_path / "cache")],
            env=dict(os.environ, PYTHONPATH=str(root)), cwd=str(root),
            check=True, capture_output=True, text=True).stdout
        return tuple(int(n) for n in out.split())

    def test_model_edits_miss_and_harness_edits_hit(self, tmp_path):
        assert self.lookups(tmp_path, "parent") == (0, 1)
        assert self.lookups(tmp_path, "same") == (1, 0)
        assert self.lookups(tmp_path, "cli", (
            "harness/cli.py", "import argparse\n",
            "import argparse\n# an edit outside the model\n")) == (1, 0)
        assert self.lookups(tmp_path, "latency", (
            "sim/latency.py", "l2_hit: int = 12", "l2_hit: int = 13")) \
            == (0, 1)
        assert self.lookups(tmp_path, "problem", (
            "workloads/__init__.py", "FftWorkload(points=256)",
            "FftWorkload(points=1024)")) == (0, 1)
