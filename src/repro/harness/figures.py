"""Regenerate Figure 7: normalized execution time per policy.

The paper's Figure 7 plots, for each application, the execution time of
the six page-mode policies normalized to SCOMA (the infinite-page-cache
optimum).  ``figure7_table`` renders the numbers and ``figure7_ascii``
the bars.
"""

from __future__ import annotations

from repro.harness import paperdata
from repro.harness.report import TextTable
from repro.harness.runner import PAPER_POLICIES


def figure7_table(suites) -> TextTable:
    """Figure 7 as a numeric table (apps x policies)."""
    policies = [p for p in PAPER_POLICIES
                if all(p in s.results for s in suites.values())]
    table = TextTable(
        "Figure 7: execution time normalized to SCOMA",
        ["Application"] + list(policies))
    for app, suite in suites.items():
        table.add_row(app, *["%.2f" % suite.normalized_time(p)
                             for p in policies])
    return table


def figure7_ascii(suites, width: int = 40) -> str:
    """ASCII bar chart in the figure's layout (bars capped at 3.0x)."""
    lines = ["Figure 7: execution time under different page modes",
             "(normalized to SCOMA; bars capped at 3.0x)", ""]
    cap = 3.0
    for app, suite in suites.items():
        lines.append(app)
        for policy in PAPER_POLICIES:
            if policy not in suite.results:
                continue
            value = suite.normalized_time(policy)
            filled = int(min(value, cap) / cap * width)
            overflow = "+" if value > cap else ""
            lines.append("  %-9s |%s%s %.2f"
                         % (policy, "#" * filled, overflow, value))
        lines.append("")
    labelled = [
        "paper's labelled bars: " + ", ".join(
            "%s/%s=%.2f" % (app, pol, val)
            for (app, pol), val in paperdata.FIGURE7_LABELLED.items())]
    return "\n".join(lines + labelled)
