"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fft" in out
    assert "dyn-lru" in out
    assert "tiny" in out


def test_run_command(capsys):
    assert main(["run", "water-nsq", "--preset", "tiny",
                 "--policy", "dyn-fcfs", "--page-cache", "6",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "water-nsq / dyn-fcfs" in out
    assert "execution_cycles" in out


def test_run_with_migration(capsys):
    assert main(["run", "mp3d", "--preset", "tiny", "--migration",
                 "--no-cache"]) == 0
    assert "remote_misses" in capsys.readouterr().out


def test_run_caches_result(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["run", "fft", "--preset", "tiny", "--cache-dir", cache]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "[cached]" not in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "[cached]" in warm
    # The cached stats are identical to the simulated ones.
    assert warm.replace(" [cached]", "") == cold


def test_run_trace_and_metrics_out(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main(["run", "fft", "--preset", "tiny", "--no-cache",
                 "--trace-out", str(trace),
                 "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "execution_cycles" in out
    assert "wrote" in out
    from repro.obs import validate_jsonl
    assert validate_jsonl(str(trace)) > 0
    import json
    snap = json.load(metrics.open())
    assert snap["fft/scoma"]["histograms"]


def test_run_output_identical_with_and_without_flags(tmp_path, capsys):
    base_args = ["run", "fft", "--preset", "tiny", "--no-cache"]
    assert main(base_args) == 0
    plain = capsys.readouterr().out
    assert main(base_args + ["--trace-out",
                             str(tmp_path / "t.jsonl")]) == 0
    traced = capsys.readouterr().out
    # Stats block unchanged; only the trailing "wrote ..." line differs.
    assert traced.startswith(plain)


def test_metrics_command(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["metrics", "fft", "--preset", "tiny",
                 "--policy", "scoma", "--policy", "dyn-lru",
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "fft / scoma" in out and "fft / dyn-lru" in out
    assert "access latency (cycles)" in out
    assert "client_scoma_peak" in out
    assert "Per-cell telemetry" in out
    # Second invocation is served from the snapshots cached by the first.
    assert main(["metrics", "fft", "--preset", "tiny",
                 "--policy", "scoma", "--cache-dir", cache]) == 0
    assert "Per-cell telemetry" in capsys.readouterr().out


def test_run_metrics_over_plain_cache_reports_serving(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    base = ["run", "kvstore", "--preset", "tiny", "--cache-dir", cache]
    assert main(base) == 0
    plain = capsys.readouterr().out
    assert "p50=" not in plain
    # The plain entry has no snapshot, so it cannot serve --metrics.
    assert main(base + ["--metrics"]) == 0
    metered = capsys.readouterr().out
    assert "p50=" in metered
    assert "[cached]" not in metered
    assert metered.startswith(plain)


def test_microbench_command(capsys):
    assert main(["microbench"]) == 0
    out = capsys.readouterr().out
    assert "TLB miss" in out


def test_suite_command(capsys):
    assert main(["suite", "water-spa", "--preset", "tiny",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "scoma-70" in out
    assert "normalized" in out
    assert "campaign:" in out          # wall-clock summary line


def test_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom"])


def test_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fft", "--policy", "magic"])


def test_analyze_command(capsys):
    assert main(["analyze", "lu", "--preset", "tiny", "--cpus", "8"]) == 0
    out = capsys.readouterr().out
    assert "shared_fraction" in out
    assert "avg_sharing_degree" in out


def test_evaluate_save_command(tmp_path, capsys):
    path = tmp_path / "campaign.json"
    assert main(["evaluate", "--preset", "tiny", "--apps", "water-spa",
                 "--no-cache", "--save", str(path)]) == 0
    out = capsys.readouterr().out
    assert "saved campaign" in out
    import json
    blob = json.loads(path.read_text())
    assert "water-spa" in blob


def test_compare_command(tmp_path, capsys):
    import json
    blob = {"fft": {"policies": {"lanuma": {
        "normalized_time": 1.5, "remote_misses": 100,
        "page_outs": 0, "execution_cycles": 1000}}}}
    before = tmp_path / "a.json"
    after = tmp_path / "b.json"
    before.write_text(json.dumps(blob))
    blob["fft"]["policies"]["lanuma"]["remote_misses"] = 200
    after.write_text(json.dumps(blob))
    # Identical campaigns: exit 0.
    assert main(["compare", str(before), str(before)]) == 0
    # Drifted campaign: exit 1 and the drift is reported.
    assert main(["compare", str(before), str(after)]) == 1
    assert "remote_misses" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    chrome = tmp_path / "chrome.json"
    assert main(["trace", "fft", "--preset", "tiny", "--seed", "3",
                 "--top", "2", "--out", str(spans),
                 "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "transactions" in out
    assert "critical-path latency by segment" in out
    assert "#1" in out and "#2" in out and "#3" not in out
    assert "sum" in out and "= duration" in out
    from repro.obs.tracing import validate_spans_jsonl
    assert validate_spans_jsonl(spans) > 0
    import json
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]


def test_trace_command_is_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main(["trace", "fft", "--preset", "tiny", "--seed", "7",
                     "--out", str(path)]) == 0
        paths.append(path.read_text())
        capsys.readouterr()
    assert paths[0] == paths[1]


def test_top_command(tmp_path, capsys):
    assert main(["top", "--apps", "fft", "--preset", "tiny",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "campaign 6/6 cells" in out
    assert "p50" in out
    # Cells ran traced, so the critical-path column is populated.
    assert "queue" in out or "local" in out


def test_metrics_filter_and_formats(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    base = ["metrics", "fft", "--preset", "tiny", "--policy", "scoma",
            "--cache-dir", cache]
    assert main(base + ["--filter", "sim.access*"]) == 0
    table = capsys.readouterr().out
    assert "sim.access_latency_cycles" in table
    assert "p99" in table
    assert "frame pools" not in table          # flat listing, not detail

    assert main(base + ["--filter", "sim.access*", "--format",
                        "json"]) == 0
    import json
    rows = json.loads(capsys.readouterr().out)
    assert rows and rows[0]["kind"] == "histogram"
    assert rows[0]["cell"] == "fft/scoma"

    assert main(base + ["--format", "csv"]) == 0
    csv_out = capsys.readouterr().out.splitlines()
    assert csv_out[0] == "cell,kind,metric,value,count,sum,p50,p99"
    assert len(csv_out) > 2

    assert main(base + ["--filter", "no.such.metric"]) == 0
    assert "no.such.metric" not in capsys.readouterr().out


def test_chaos_trace_prints_failing_span_tree(capsys):
    # Drop plans with retransmission disabled are guaranteed to hang
    # (the mutation self-test configuration), giving --trace a failing
    # round to explain.
    code = main(["chaos", "--seed", "1", "--rounds", "4", "--no-retry",
                 "--trace"])
    out = capsys.readouterr().out
    assert code == 1
    assert "HUNG" in out
    assert "causal trace of the failing transaction" in out
    assert "transaction aborted" in out


def test_chaos_without_trace_output_is_unchanged(capsys):
    assert main(["chaos", "--seed", "7", "--rounds", "2"]) in (0, 1)
    out = capsys.readouterr().out
    assert "causal trace" not in out


def test_evaluate_prints_table1_next_to_the_campaign(capsys):
    # Table 1's latency microbenchmark builds its own machine geometry;
    # the campaign's config must not leak into it (regression: forcing
    # a default MachineConfig onto table1 overran the probe's private
    # region).
    assert main(["evaluate", "--preset", "tiny", "--apps", "fft",
                 "--skip-pit", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Figure 7" in out
