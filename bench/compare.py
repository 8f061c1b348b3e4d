"""Compare two sets of benchmark results.

    python3 bench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

``A`` is the parent (or first) set, ``B`` the change.  The files are
the result files ``run.py`` writes.  One row per workload and metric
gives each side's median and quartiles and a verdict:

* ``exact`` metrics and output digests must be identical on every seed
  both sides ran: UNCHANGED, otherwise REGRESSED;
* ``host`` metrics are UNRESOLVED when either side's spread (quartile
  distance over median) exceeds the bound, unless every run of B beats
  every run of A (IMPROVED).  Otherwise IMPROVED when B wins at least
  nine tenths of all (A, B) pairs and the medians differ by more than
  A's quartile distance; REGRESSED when B's median is worse than A's
  by more than the bound; UNCHANGED otherwise;
* ``info`` metrics (per-layer host time) are listed, never judged.

The exit code is 1 when any row is REGRESSED or any result file has
failed items, and 2 on bad arguments.
"""

from __future__ import annotations

import json
import sys
from statistics import median

from common import quartiles


def _wins(better: str, a: float, b: float) -> bool:
    return b < a if better == "lower" else b > a


def judge_host(metric: dict, a_values, b_values) -> str:
    """Verdict for a noisy host metric (see the module docstring)."""
    better, bound = metric["better"], metric["bound"]
    a_med, b_med = median(a_values), median(b_values)
    a_q1, a_q3 = quartiles(a_values)
    b_q1, b_q3 = quartiles(b_values)
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    pairs = [(a, b) for a in a_values for b in b_values]
    wins = sum(_wins(better, a, b) for a, b in pairs)
    if spread > bound:
        return "IMPROVED" if wins == len(pairs) else "UNRESOLVED"
    if wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "IMPROVED"
    worse = (b_med - a_med) if better == "lower" else (a_med - b_med)
    if a_med and worse / abs(a_med) > bound:
        return "REGRESSED"
    return "UNCHANGED"


def judge_exact(a_runs, b_runs, value_of) -> str:
    """Verdict for a deterministic value: every run of one seed (and
    scale), on either side, must give the same value."""
    seen: "dict[tuple, set]" = {}
    for run in a_runs + b_runs:
        key = (run["seed"], run["quick"])
        seen.setdefault(key, set()).add(
            json.dumps(value_of(run), sort_keys=True))
    if any(len(values) > 1 for values in seen.values()):
        return "REGRESSED"
    common = ({(r["seed"], r["quick"]) for r in a_runs}
              & {(r["seed"], r["quick"]) for r in b_runs})
    return "UNCHANGED" if common else "UNRESOLVED"


def _load(paths) -> "list[dict]":
    results = []
    for path in paths:
        with open(path) as fh:
            results.append(json.load(fh))
    return results


def _fmt(values) -> str:
    q1, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (median(values), q1, q3)


def compare(a_results, b_results) -> "list[tuple]":
    """``(workload, metric, unit, A summary, B summary, verdict)`` rows."""
    rows = []
    workloads = sorted({r["workload"] for r in a_results}
                       & {r["workload"] for r in b_results})
    for workload in workloads:
        side_a = [r for r in a_results if r["workload"] == workload]
        side_b = [r for r in b_results if r["workload"] == workload]
        metrics = {}
        for run in side_a:
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, metric)
        for name, metric in metrics.items():
            a_runs = [r for r in side_a if name in r["metrics"]]
            b_runs = [r for r in side_b if name in r["metrics"]]
            if not b_runs:
                continue
            a_values = [r["metrics"][name]["value"] for r in a_runs]
            b_values = [r["metrics"][name]["value"] for r in b_runs]
            if metric["kind"] == "exact":
                verdict = judge_exact(
                    a_runs, b_runs,
                    lambda run, name=name: run["metrics"][name]["value"])
            elif metric["kind"] == "host":
                verdict = judge_host(metric, a_values, b_values)
            else:
                verdict = "INFO"
            rows.append((workload, name, metric["unit"], _fmt(a_values),
                         _fmt(b_values), verdict))
        verdict = judge_exact(side_a, side_b, lambda run: run["digests"])
        rows.append((workload, "output_digests", "-", "%d runs" % len(side_a),
                     "%d runs" % len(side_b), verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: compare.py A.json [A.json ...] -- B.json [B.json ...]",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("compare: both sides need at least one result file",
              file=sys.stderr)
        return 2
    a_results, b_results = _load(a_paths), _load(b_paths)
    rows = compare(a_results, b_results)
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "verdict")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    failed = [r for r in a_results + b_results if r["failed"]]
    for result in failed:
        print("failed items: %s seed %d: %d of %d"
              % (result["workload"], result["seed"], result["failed"],
                 result["attempted"]))
    regressed = [row for row in rows if row[-1] == "REGRESSED"]
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
