"""Suite/campaign result types and the SCOMA-relative cap derivation.

The SCOMA-70 and adaptive configurations are defined *relative to the
SCOMA run*: the page cache at each node is capped at 70% of the client
S-COMA frames that node allocated under SCOMA (section 4.2).  The suite
scheduler therefore always runs SCOMA first, derives the per-node caps,
and reuses them for every capped policy.

Experiments are run through the
:class:`~repro.harness.session.ExperimentSpec` +
:class:`~repro.harness.session.Session` API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.machine import RunResult

#: Policies in the paper's Figure 7 order.
PAPER_POLICIES = ("scoma", "lanuma", "scoma-70",
                  "dyn-fcfs", "dyn-util", "dyn-lru")

#: Policies that run with the 70%-of-SCOMA page-cache cap.
CAPPED_POLICIES = ("scoma-70", "dyn-fcfs", "dyn-util", "dyn-lru",
                   "dyn-bidir")


def derive_page_cache_caps(scoma_result: RunResult,
                           fraction: float = 0.7) -> "list[int]":
    """Per-node page-cache capacities: ``fraction`` of the SCOMA run's
    peak client S-COMA frame count at each node (section 4.2)."""
    caps = []
    for node_stats in scoma_result.stats.nodes:
        caps.append(max(1, int(node_stats.scoma_client_frames_peak * fraction)))
    return caps


@dataclass
class SuiteResult:
    """All policies' results for one workload."""

    workload: str
    preset: str
    results: "dict[str, RunResult]" = field(default_factory=dict)
    page_cache_caps: "list[int]" = field(default_factory=list)

    def normalized_time(self, policy: str,
                        baseline: str = "scoma") -> float:
        """Execution time normalized to the baseline (Figure 7)."""
        base = self.results[baseline].stats.execution_cycles
        return self.results[policy].stats.execution_cycles / base

    def remote_misses(self, policy: str) -> int:
        """Remote misses under ``policy`` (Tables 4/5)."""
        return self.results[policy].stats.remote_misses

    def page_outs(self, policy: str) -> int:
        """Client page-outs under ``policy`` (Tables 4/5)."""
        return self.results[policy].stats.client_page_outs
