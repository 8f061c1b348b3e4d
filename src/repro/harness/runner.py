"""Suite/campaign result types and the paper's policy sets.

The SCOMA-70 and adaptive configurations are defined *relative to the
SCOMA run*: the page cache at each node is capped at 70% of the client
S-COMA frames that node allocated under SCOMA (section 4.2).  The
session's scheduler (:mod:`repro.harness.session`) resolves that cap
for every cell of :data:`CAPPED_POLICIES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.machine import RunResult

#: Policies in the paper's Figure 7 order.
PAPER_POLICIES = ("scoma", "lanuma", "scoma-70",
                  "dyn-fcfs", "dyn-util", "dyn-lru")

#: Policies that run with a SCOMA-relative page-cache cap.
CAPPED_POLICIES = ("scoma-70", "dyn-fcfs", "dyn-util", "dyn-lru",
                   "dyn-bidir")


@dataclass
class SuiteResult:
    """All policies' results for one workload."""

    workload: str
    preset: str
    results: "dict[str, RunResult]" = field(default_factory=dict)
    #: The per-node caps the suite's capped policies ran with (empty
    #: when it has none).
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
