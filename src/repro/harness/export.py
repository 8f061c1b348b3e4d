"""Result persistence: serialize runs and campaigns to JSON / CSV.

``result_to_dict`` flattens one :class:`~repro.sim.machine.RunResult`;
``suite_to_dict`` covers a policy suite; ``save_campaign`` /
``load_campaign`` persist a whole Figure 7 campaign so EXPERIMENTS.md
numbers can be re-rendered without re-simulating.
"""

from __future__ import annotations

import json

from repro.sim.machine import RunResult
from repro.sim.stats import field_dict


def result_to_dict(result: RunResult) -> "dict[str, object]":
    """Flatten a run result (config geometry + headline + per-node)."""
    stats = result.stats
    cfg = result.config
    return {
        "workload": result.workload,
        "policy": result.policy,
        "config": {
            "num_nodes": cfg.num_nodes,
            "cpus_per_node": cfg.cpus_per_node,
            "page_bytes": cfg.page_bytes,
            "line_bytes": cfg.line_bytes,
            "l1_bytes": cfg.l1.size_bytes,
            "l2_bytes": cfg.l2.size_bytes,
            "page_cache_frames": cfg.page_cache_frames,
        },
        "summary": stats.summary(),
        "nodes": [field_dict(n) for n in stats.nodes],
        "cpus": [field_dict(c) for c in stats.cpus],
    }


def suite_to_dict(suite) -> "dict[str, object]":
    """Flatten a :class:`~repro.harness.runner.SuiteResult`."""
    return {
        "workload": suite.workload,
        "preset": suite.preset,
        "page_cache_caps": list(suite.page_cache_caps),
        "policies": {
            policy: {
                "normalized_time": suite.normalized_time(policy),
                "remote_misses": suite.remote_misses(policy),
                "page_outs": suite.page_outs(policy),
                "execution_cycles":
                    suite.results[policy].stats.execution_cycles,
            }
            for policy in suite.results
        },
    }


def campaign_to_dict(suites: "dict[str, object]") -> "dict[str, object]":
    """Flatten a whole campaign ({app: SuiteResult})."""
    return {app: suite_to_dict(suite) for app, suite in suites.items()}


def save_campaign(suites, path: str) -> None:
    """Write a campaign's flattened results as JSON."""
    with open(path, "w") as fh:
        json.dump(campaign_to_dict(suites), fh, indent=2, sort_keys=True)


def load_campaign(path: str) -> "dict[str, object]":
    """Read back a campaign saved by :func:`save_campaign`."""
    with open(path) as fh:
        return json.load(fh)


def metrics_to_dict(results: "list[RunResult]") -> "dict[str, object]":
    """Collect the metrics snapshots of many runs, keyed by cell.

    Cells without a snapshot (observability disabled, or served from a
    cache entry stored without metrics) appear with a null snapshot so
    the reader can tell "not collected" from "not run".
    """
    return {
        "%s/%s" % (result.workload, result.policy): result.metrics
        for result in results
    }


def save_metrics(results: "list[RunResult]", path: str) -> None:
    """Write the runs' metrics snapshots as a ``metrics.json``."""
    with open(path, "w") as fh:
        json.dump(metrics_to_dict(results), fh, indent=2, sort_keys=True)


def figure7_csv(suites) -> str:
    """Figure 7's series as CSV (one row per application)."""
    policies = sorted({p for s in suites.values() for p in s.results})
    lines = ["application," + ",".join(policies)]
    for app, suite in suites.items():
        cells = [app]
        for policy in policies:
            if policy in suite.results:
                cells.append("%.4f" % suite.normalized_time(policy))
            else:
                cells.append("")
        lines.append(",".join(cells))
    return "\n".join(lines)


def runs_csv(results: "list[RunResult]") -> str:
    """Headline stats of many runs as CSV."""
    if not results:
        return ""
    keys = sorted(results[0].stats.summary())
    lines = ["workload,policy," + ",".join(keys)]
    for result in results:
        summary = result.stats.summary()
        lines.append(",".join(
            [result.workload, result.policy]
            + [str(summary[k]) for k in keys]))
    return "\n".join(lines)
