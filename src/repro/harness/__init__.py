"""Benchmark harness: regenerates every table and figure of the paper.

Quick use::

    from repro.harness import run_paper_evaluation
    report = run_paper_evaluation(preset="small")
    print(report)

See EXPERIMENTS.md for the paper-vs-measured record produced with the
``default`` preset.
"""

from __future__ import annotations

from repro.harness.figures import figure7_ascii, figure7_table
from repro.harness.compare import (CampaignDiff, Delta,
                                   compare_campaigns)
from repro.harness.export import (campaign_to_dict, load_campaign,
                                  metrics_to_dict, save_campaign,
                                  save_metrics, suite_to_dict)
from repro.harness.report import CampaignProgress
from repro.harness.runner import PAPER_POLICIES, SuiteResult
from repro.harness.session import ExperimentSpec, ResultCache, Session
from repro.harness.sweep import (SweepResult, cache_fraction_sweep,
                                 render_sweep)
from repro.harness.tables import (metrics_table, pit_sensitivity, table1,
                                  table2, table3, table4, table5)
from repro.workloads import APPLICATIONS


def run_paper_evaluation(apps=APPLICATIONS, preset: str = "default",
                         config=None, include_pit: bool = True,
                         verbose: bool = False, jobs: int = 1,
                         cache_dir: "str | None" = None,
                         collect_metrics: bool = False) -> str:
    """Run the full evaluation campaign and render every table/figure.

    ``jobs`` widens the worker pool (independent campaign cells run in
    parallel; the output is byte-identical at any width) and
    ``cache_dir`` enables the on-disk result cache so a re-run only
    recomputes cells whose (spec, config) inputs changed.
    ``collect_metrics`` additionally snapshots a metrics registry per
    simulated cell (cached next to the stats; rendered tables are
    unchanged).
    """
    session = Session(jobs=jobs, cache_dir=cache_dir,
                      progress=CampaignProgress() if verbose else None,
                      collect_metrics=collect_metrics)
    sections = [str(table1(config)), "", str(table2()), ""]
    suites = session.run_campaign(apps, preset=preset, config=config)
    sections += [figure7_ascii(suites), "",
                 str(figure7_table(suites)), "",
                 str(table3(suites)), "",
                 str(table4(suites)), "",
                 str(table5(suites)), ""]
    if include_pit:
        sections += [str(pit_sensitivity(apps, preset=preset,
                                         config=config,
                                         session=session)),
                     ""]
    if session.progress is not None:
        print(session.progress.summary(), flush=True)
    return "\n".join(sections)


__all__ = [
    "APPLICATIONS", "CampaignDiff", "CampaignProgress", "Delta",
    "ExperimentSpec", "PAPER_POLICIES", "ResultCache", "Session",
    "SuiteResult", "SweepResult", "compare_campaigns",
    "cache_fraction_sweep", "campaign_to_dict",
    "figure7_ascii", "figure7_table",
    "load_campaign", "metrics_table", "metrics_to_dict",
    "pit_sensitivity", "render_sweep", "run_paper_evaluation",
    "save_campaign", "save_metrics", "suite_to_dict",
    "table1", "table2", "table3", "table4", "table5",
]
