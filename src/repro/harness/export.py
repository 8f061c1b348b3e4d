"""Result persistence: serialize campaigns and metrics to JSON.

``suite_to_dict`` flattens a policy suite; ``save_campaign`` /
``load_campaign`` persist a whole Figure 7 campaign so EXPERIMENTS.md
numbers can be re-rendered without re-simulating.
"""

from __future__ import annotations

import json

from repro.sim.machine import RunResult


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

