"""Plain-text table rendering and live progress for the experiment
harness."""

from __future__ import annotations

import sys
import time


class CampaignProgress:
    """Live per-cell progress lines for a campaign run.

    A campaign is a set of (workload, policy) *cells*.  The parallel
    session calls :meth:`expect` when it schedules a batch of cells and
    :meth:`cell_done` as each one completes (possibly out of order);
    each completion prints one line.  :meth:`summary` renders the
    wall-clock totals — simulated vs cache-hit cells — for the whole
    campaign.
    """

    def __init__(self, stream=None, enabled: bool = True) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.enabled = enabled
        self.total = 0
        self.done = 0
        self.cached = 0
        #: Result-cache lookup counters, reported by the session at the
        #: end of each batch (None until :meth:`note_cache` is called —
        #: e.g. when the session runs without a cache).
        self.cache_hits: "int | None" = None
        self.cache_misses: "int | None" = None
        self.started = time.perf_counter()

    def expect(self, cells: int) -> None:
        """Announce ``cells`` more cells to run (totals accumulate)."""
        self.total += cells

    def note_cache(self, hits: int, misses: int) -> None:
        """Record the session's result-cache lookup counters (absolute
        values, not increments; the latest call wins)."""
        self.cache_hits = hits
        self.cache_misses = misses

    def cell_done(self, workload: str, policy: str, seconds: float,
                  cached: bool = False) -> None:
        """Record (and print) one completed campaign cell."""
        self.done += 1
        if cached:
            self.cached += 1
        if not self.enabled:
            return
        note = "cached" if cached else "%.2fs" % seconds
        width = len(str(self.total)) if self.total else 1
        self.stream.write("  [%*d/%s] %-10s %-9s %s\n"
                          % (width, self.done,
                             self.total if self.total else "?",
                             workload, policy, note))
        self.stream.flush()

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since this tracker was created."""
        return time.perf_counter() - self.started

    def summary(self) -> str:
        """One-line wall-clock summary of the whole campaign."""
        line = ("campaign: %d cells in %.1fs wall-clock"
                " (%d simulated, %d cache hits)"
                % (self.done, self.elapsed, self.done - self.cached,
                   self.cached))
        if self.cache_hits is not None:
            line += (" [result cache: %d hits, %d misses]"
                     % (self.cache_hits, self.cache_misses))
        return line


class TextTable:
    """A simple fixed-width text table."""

    def __init__(self, title: str, columns: "list[str]") -> None:
        self.title = title
        self.columns = columns
        self.rows: "list[list[str]]" = []

    def add_row(self, *cells) -> None:
        """Append one row (one cell per column)."""
        if len(cells) != len(self.columns):
            raise ValueError("expected %d cells, got %d"
                             % (len(self.columns), len(cells)))
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """The table as fixed-width text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        out = [self.title, "=" * len(self.title)]
        out.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        out.append(sep)
        for row in self.rows:
            out.append(" | ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                                  for c, w in zip(row, widths)))
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)


def _numeric(text: str) -> bool:
    try:
        float(text.replace(",", ""))
    except ValueError:
        return False
    return True
