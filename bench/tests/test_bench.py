"""Tests of the benchmark itself, at the ``--quick`` scale.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run
from common import (BENCH_DIR, BENCHMARK_JSON, E2E, LAYERS, OTHER,
                    PER_LAYER, ROOT, SRC)

RUN = os.path.join(BENCH_DIR, "run.py")


def bench(*args, cwd=ROOT, **env):
    return subprocess.run([sys.executable, RUN, "--quick", "--seconds", "0",
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=dict(os.environ, **env))


def last_json(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def result_file(out_dir, workload, trace=False) -> dict:
    name = "%s-seed0-quick%s.json" % (workload, "-trace" if trace else "")
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("untraced"))
    return out, {w: bench("--workload", w, "--out-dir", out)
                 for w in run.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload, under different hash seeds."""
    outs = []
    for hash_seed in ("1", "2"):
        out = str(tmp_path_factory.mktemp("traced"))
        procs = {w: bench("--workload", w, "--trace", "1", "--out-dir", out,
                          PYTHONHASHSEED=hash_seed)
                 for w in run.WORKLOAD_NAMES}
        outs.append((out, procs))
    return outs


def test_benchmark_json_matches_the_catalogue():
    import passes
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.build_parser().get_default("seconds")
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(passes.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in E2E]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    _out, procs = untraced
    for workload, proc in procs.items():
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m.name: m.unit for m in E2E}, workload
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    for _out, procs in traced:
        for workload, proc in procs.items():
            assert proc.returncode == 0, proc.stderr
            result = last_json(proc)
            assert result["correct"]
            assert {name: m["unit"] for name, m in result["metrics"].items()} \
                == {m.name: m.unit for m in PER_LAYER}, workload


def test_layer_shares_sum_to_one(traced):
    out, _procs = traced[0]
    for workload in run.WORKLOAD_NAMES:
        metrics = result_file(out, workload, trace=True)["metrics"]
        shares = [metrics[layer + ".share"]["value"]
                  for layer in LAYERS + (OTHER,)]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert all(share >= 0 for share in shares)


def test_calls_per_kitem_repeat_exactly(traced):
    (out_a, _), (out_b, _) = traced
    for workload in run.WORKLOAD_NAMES:
        a = result_file(out_a, workload, trace=True)["metrics"]
        b = result_file(out_b, workload, trace=True)["metrics"]
        for name, metric in a.items():
            if metric["kind"] == "exact":
                assert b[name]["value"] == metric["value"], (workload, name)


def test_every_module_maps_to_a_layer():
    repro = os.path.join(SRC, "repro")
    modules = [os.path.join(d, f) for d, _dirs, files in os.walk(repro)
               for f in files if f.endswith(".py")]
    assert len(modules) > 50
    for path in modules:
        assert layers.layer_of(path) in LAYERS, path
    assert layers.layer_of(RUN) == OTHER
    assert layers.layer_of(json.__file__) is None


def test_corrupted_reference_fails_the_run(tmp_path):
    refs, out = str(tmp_path / "refs"), str(tmp_path / "out")
    args = ("--workload", "hot-32x8", "--out-dir", out,
            "--reference-dir", refs)
    assert bench(*args, "--record").returncode == 0
    path = os.path.join(refs, "hot-32x8.json")
    with open(path) as fh:
        reference = json.load(fh)
    assert bench(*args).returncode == 0
    reference["quick/0"]["run"] = "0" * 16
    with open(path, "w") as fh:
        json.dump(reference, fh)

    proc = bench(*args)
    assert proc.returncode == 1
    assert last_json(proc)["failed"] > 0
    result = os.path.join(out, "hot-32x8-seed0-quick.json")
    with open(result) as fh:
        assert json.load(fh)["metrics"]["fail_ratio"]["value"] > 0
    assert compare.main([result, "--", result]) == 1


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge_host(lower, base, base) == "UNCHANGED"
    assert compare.judge_host(lower, base, [v * 1.2 for v in base]) \
        == "REGRESSED"
    assert compare.judge_host(lower, base, [v * 0.8 for v in base]) \
        == "IMPROVED"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.judge_host(lower, base, noisy) == "UNRESOLVED"
    higher = dict(lower, better="higher")
    assert compare.judge_host(higher, base, [v * 0.8 for v in base]) \
        == "REGRESSED"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chaos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
