"""Live terminal view of a running campaign (``repro top``).

:class:`LiveCampaignView` is a :class:`~repro.harness.report.
CampaignProgress` that also takes the session's optional
``cell_metrics`` hook, and renders a full-screen frame after every
completed cell: per-cell progress with access-latency p50/p99,
result-cache counters, worker utilization, and rolling campaign-wide
latency quantiles with a critical-path segment breakdown (when the
cells ran with a trace collector the ``trace.segment_cycles`` roll-ups
feed it; otherwise the segment column is empty).

This is the seed of the ROADMAP's campaign-service dashboard: the view
consumes only :mod:`repro.obs` snapshot dicts — exactly what a
long-running campaign service would publish — and renders to a plain
string (:meth:`render`) so it is equally usable against a terminal, a
log file or a test.

On a real terminal each frame repaints in place (ANSI home+clear);
when the output stream is not a TTY the view degrades to one compact
line per completed cell, which keeps piped output and CI logs sane.
"""

from __future__ import annotations

from repro.obs.registry import find_metrics, quantile
from repro.harness.report import CampaignProgress, TextTable

#: Clear screen + home the cursor.
_ANSI_REPAINT = "\x1b[H\x1b[2J"


def _merge_hist(into: "dict | None", member: dict) -> dict:
    """Accumulate one snapshot histogram into a rolling aggregate."""
    if into is None:
        return {"buckets": list(member["buckets"]),
                "counts": list(member["counts"]),
                "sum": member["sum"], "count": member["count"]}
    if list(member["buckets"]) == into["buckets"]:
        for i, c in enumerate(member["counts"]):
            into["counts"][i] += c
        into["sum"] += member["sum"]
        into["count"] += member["count"]
    return into


class LiveCampaignView(CampaignProgress):
    """Live campaign dashboard; plug into ``Session(progress=...)``.

    The session must run with ``collect_metrics=True`` for the latency
    columns to populate (cells completed without a snapshot — e.g.
    cache hits stored without one — show dashes).  Counting, the cache
    counters and :meth:`summary` are :class:`CampaignProgress`'s; its
    per-cell lines stay off because this view draws its own.
    """

    def __init__(self, stream=None, jobs: int = 1,
                 repaint: "bool | None" = None) -> None:
        super().__init__(stream, enabled=False)
        self.jobs = max(1, jobs)
        if repaint is None:
            repaint = bool(getattr(self.stream, "isatty", lambda: False)())
        self.repaint = repaint
        self.busy_seconds = 0.0
        #: Completed cells in completion order:
        #: (workload, policy, note, p50, p99, segments-string).
        self.rows: "list[tuple]" = []
        self._pending_metrics: "dict[tuple, tuple]" = {}
        self._latency = None          # rolling access-latency histogram
        self._segments: "dict[str, int]" = {}   # segment -> cycles

    # -- session progress interface ---------------------------------------

    def cell_metrics(self, workload: str, policy: str,
                     metrics: dict) -> None:
        """Fold one cell's metrics snapshot into the rolling aggregates
        (the session calls this right *before* the cell's
        ``cell_done``, which consumes the stashed columns)."""
        hists = metrics.get("histograms", {})
        cell_latency = None
        for _labels, member in find_metrics(hists,
                                            "sim.access_latency_cycles"):
            cell_latency = _merge_hist(cell_latency, member)
            self._latency = _merge_hist(self._latency, member)
        p50 = p99 = None
        if cell_latency is not None and cell_latency["count"]:
            p50 = quantile(cell_latency, 0.50)
            p99 = quantile(cell_latency, 0.99)
        for labels, member in find_metrics(hists, "trace.segment_cycles"):
            seg = labels.get("segment", "?")
            self._segments[seg] = (self._segments.get(seg, 0)
                                   + member["sum"])
        self._pending_metrics[(workload, policy)] = (p50, p99)

    def cell_done(self, workload: str, policy: str, seconds: float,
                  cached: bool = False) -> None:
        """Record one completed campaign cell and redraw."""
        super().cell_done(workload, policy, seconds, cached)
        if not cached:
            self.busy_seconds += seconds
        note = "cached" if cached else "%.2fs" % seconds
        p50, p99 = self._pending_metrics.pop((workload, policy),
                                             (None, None))
        self.rows.append((workload, policy, note,
                          "-" if p50 is None else p50,
                          "-" if p99 is None else p99,
                          self._segment_summary()))
        self._refresh()

    # -- rendering -------------------------------------------------------

    def _segment_summary(self, top: int = 3) -> str:
        total = sum(self._segments.values())
        if not total:
            return ""
        parts = sorted(self._segments.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:top]
        return " ".join("%s %d%%" % (kind, round(100.0 * cycles / total))
                        for kind, cycles in parts)

    def utilization(self) -> float:
        """Fraction of the worker pool kept busy by simulated cells."""
        wall = self.elapsed
        if wall <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (wall * self.jobs))

    def render(self) -> str:
        """The current dashboard frame as plain text."""
        header = ["repro top — campaign %d/%s cells  elapsed %.1fs  "
                  "jobs %d  util %d%%"
                  % (self.done, self.total if self.total else "?",
                     self.elapsed, self.jobs,
                     round(100 * self.utilization()))]
        if self.cache_hits is not None:
            header.append("result cache: %d hits, %d misses"
                          % (self.cache_hits, self.cache_misses))
        if self._latency is not None and self._latency["count"]:
            line = ("access latency (rolling): p50 <= %s  p99 <= %s cycles"
                    % (quantile(self._latency, 0.50),
                       quantile(self._latency, 0.99)))
            segments = self._segment_summary()
            if segments:
                line += "   critical path: " + segments
            header.append(line)
        table = TextTable("cells", ["workload", "policy", "time",
                                    "p50", "p99", "segments"])
        for row in self.rows:
            table.add_row(*row)
        return "\n".join(header) + "\n\n" + table.render() + "\n"

    def _refresh(self) -> None:
        if self.repaint:
            self.stream.write(_ANSI_REPAINT + self.render())
        else:
            row = self.rows[-1]
            self.stream.write("  [%d/%s] %-10s %-9s %s  p50<=%s p99<=%s %s\n"
                              % (self.done,
                                 self.total if self.total else "?",
                                 row[0], row[1], row[2], row[3], row[4],
                                 row[5]))
        self.stream.flush()
