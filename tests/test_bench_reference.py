"""tools/bench_reference must cover every benchmark workload.

``bench/compare.py`` skips a workload that only one side has, so a
missing or mis-scaled reference file would silently drop that workload
from the exact gate in tools/ci_check.sh.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tools" / "bench_reference"


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_one_reference_file_per_workload():
    workloads = sorted(w["name"] for w in _benchmark()["workloads"])
    files = sorted(path.name for path in REFERENCE.glob("*.json"))
    assert files == ["%s-seed0-quick-trace.json" % name
                     for name in workloads]


def test_reference_files_are_traced_quick_seed0_runs():
    layers = [m["name"] for m in _benchmark()["per_layer"]
              if m["name"].endswith(".calls_per_kitem")]
    assert layers
    for path in REFERENCE.glob("*.json"):
        result = json.loads(path.read_text())
        assert (result["trace"], result["quick"], result["seed"],
                result["failed"]) == (1, True, 0, 0), path.name
        for name in layers:
            assert result["metrics"][name]["kind"] == "exact", \
                "%s: %s" % (path.name, name)
