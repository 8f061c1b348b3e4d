"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``        — one workload under one policy, print the stats.
* ``suite``      — one workload under all six policies (a Figure 7 slice).
* ``evaluate``   — the full campaign: every table and figure.
* ``microbench`` — Table 1 via the latency microbenchmark.
* ``analyze``    — static characterization of a workload's references.
* ``compare``    — diff two saved campaigns (regression check).
* ``metrics``    — per-policy telemetry snapshots (filter/format options).
* ``trace``      — causal transaction traces + critical-path breakdown.
* ``top``        — live dashboard of a running campaign.
* ``verify``     — protocol conformance (litmus suite / fuzzing).
* ``chaos``      — fault-injection campaigns (optionally traced).
* ``list``       — available workloads, policies, presets.
"""

from __future__ import annotations

import argparse

from repro.core.policies import POLICY_NAMES
from repro.sim.config import MachineConfig
from repro.workloads import ALL_APPLICATIONS, APPLICATIONS, PRESET_NAMES


#: Default on-disk result cache used by ``run``/``suite``/``evaluate``.
DEFAULT_CACHE_DIR = ".prism-cache"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %s" % text)
    return value


def _add_session_args(sub) -> None:
    """Scheduling/caching flags shared by run, suite and evaluate."""
    sub.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="worker processes for independent campaign "
                          "cells (default: 1, run in-process)")
    sub.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                     help="on-disk result cache directory (default: %s)"
                          % DEFAULT_CACHE_DIR)
    sub.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk result cache")
    sub.add_argument("--metrics", action="store_true",
                     help="collect a metrics-registry snapshot per "
                          "simulated cell (cached alongside the stats)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRISM (HPCA 1998) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload under one policy")
    run.add_argument("workload", choices=ALL_APPLICATIONS)
    run.add_argument("--policy", default="scoma", choices=POLICY_NAMES)
    run.add_argument("--preset", default="small", choices=PRESET_NAMES)
    run.add_argument("--page-cache", type=int, default=None,
                     help="client page-cache frames per node")
    run.add_argument("--migration", action="store_true",
                     help="enable lazy home migration")
    run.add_argument("--trace-out", metavar="FILE", default=None,
                     help="write the run's structured event trace as "
                          "JSONL (forces an uncached, in-process run)")
    run.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="write the run's metrics snapshot as JSON "
                          "(implies --metrics; a cached entry with a "
                          "snapshot serves it)")
    run.add_argument("--check-invariants", action="store_true",
                     help="walk machine-wide coherence invariants at "
                          "every barrier release and fail loudly on a "
                          "violation (forces an uncached, in-process "
                          "run)")
    _add_session_args(run)

    suite = sub.add_parser("suite",
                           help="run all six policies (Figure 7 slice)")
    suite.add_argument("workload", choices=ALL_APPLICATIONS)
    suite.add_argument("--preset", default="small", choices=PRESET_NAMES)
    _add_session_args(suite)

    evaluate = sub.add_parser("evaluate",
                              help="regenerate every table and figure")
    evaluate.add_argument("--preset", default="small", choices=PRESET_NAMES)
    evaluate.add_argument("--apps", nargs="*", default=list(APPLICATIONS),
                          choices=APPLICATIONS, metavar="APP")
    evaluate.add_argument("--skip-pit", action="store_true",
                          help="skip the section 4.3 PIT study")
    evaluate.add_argument("--save", metavar="JSON",
                          help="also persist the campaign results to a file")
    _add_session_args(evaluate)

    sub.add_parser("microbench", help="regenerate Table 1")

    analyze = sub.add_parser(
        "analyze", help="characterize a workload's reference streams")
    analyze.add_argument("workload", choices=ALL_APPLICATIONS)
    analyze.add_argument("--preset", default="small", choices=PRESET_NAMES)
    analyze.add_argument("--cpus", type=int, default=32)

    compare = sub.add_parser(
        "compare", help="diff two saved campaigns (regression check)")
    compare.add_argument("before", help="baseline campaign JSON")
    compare.add_argument("after", help="new campaign JSON")
    compare.add_argument("--threshold", type=float, default=0.05)

    metrics = sub.add_parser(
        "metrics", help="per-policy telemetry for cached (or fresh) cells")
    metrics.add_argument("workload", choices=ALL_APPLICATIONS)
    metrics.add_argument("--policy", action="append", default=None,
                         choices=POLICY_NAMES, metavar="POLICY",
                         help="policy to report (repeatable; default: "
                              "scoma and lanuma)")
    metrics.add_argument("--preset", default="small", choices=PRESET_NAMES)
    metrics.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         metavar="DIR",
                         help="result cache to read snapshots from "
                              "(default: %s)" % DEFAULT_CACHE_DIR)
    metrics.add_argument("--no-cache", action="store_true",
                         help="always re-simulate, don't touch the cache")
    metrics.add_argument("--filter", metavar="NAME_GLOB", default=None,
                         help="only list metrics whose family name or "
                              "full labelled key matches this glob "
                              "(e.g. 'trace.*', 'kernel.frame_pool.*'); "
                              "switches to the flat per-metric listing")
    metrics.add_argument("--format", choices=["table", "json", "csv"],
                         default="table",
                         help="format of the flat per-metric listing "
                              "(default: table; json and csv imply the "
                              "flat listing even without --filter)")

    trace = sub.add_parser(
        "trace", help="record causal transaction traces and explain "
                      "where the latency went (docs/OBSERVABILITY.md)")
    trace.add_argument("workload", choices=ALL_APPLICATIONS)
    trace.add_argument("--policy", default="scoma", choices=POLICY_NAMES)
    trace.add_argument("--preset", default="tiny", choices=PRESET_NAMES)
    trace.add_argument("--seed", type=int, default=0,
                       help="span-id seed (default: 0); the same seed "
                            "and workload reproduce identical traces")
    trace.add_argument("--top", type=_positive_int, default=5,
                       metavar="N",
                       help="slowest transactions to print as span "
                            "trees (default: 5)")
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="write every retained span as JSONL")
    trace.add_argument("--chrome", metavar="FILE", default=None,
                       help="write Chrome trace_event JSON (open at "
                            "ui.perfetto.dev or chrome://tracing)")

    top = sub.add_parser(
        "top", help="run a campaign under a live terminal dashboard")
    top.add_argument("--apps", nargs="*", default=list(APPLICATIONS),
                     choices=APPLICATIONS, metavar="APP")
    top.add_argument("--preset", default="small", choices=PRESET_NAMES)
    top.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="worker processes (default: 1)")
    top.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     metavar="DIR",
                     help="on-disk result cache directory (default: %s)"
                          % DEFAULT_CACHE_DIR)
    top.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk result cache")
    top.add_argument("--no-trace", action="store_true",
                     help="skip the per-cell trace collector (the "
                          "critical-path segment column stays empty)")

    verify = sub.add_parser(
        "verify", help="protocol conformance: litmus suite / schedule "
                       "fuzzing (see docs/VERIFICATION.md)")
    verify.add_argument("--suite", choices=["litmus"], default=None,
                        help="run the bundled litmus suite under the "
                             "bounded schedule set (the default when "
                             "--fuzz is not given)")
    verify.add_argument("--fuzz", type=_positive_int, default=None,
                        metavar="N",
                        help="run N random schedules across the suite, "
                             "shrinking any failure to a minimal "
                             "reproducing schedule")
    verify.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for --fuzz (default: 0)")
    verify.add_argument("--test", action="append", default=None,
                        metavar="NAME",
                        help="restrict to named litmus tests "
                             "(repeatable; see --list)")
    verify.add_argument("--list", action="store_true",
                        help="list the bundled litmus tests and exit")

    chaos = sub.add_parser(
        "chaos", help="fault-injection campaigns: litmus tests under "
                      "sampled fault plans (see docs/FAULTS.md)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed: drives plan sampling and the "
                            "injector RNG (default: 0); the same seed "
                            "reproduces identical verdicts")
    chaos.add_argument("--rounds", type=_positive_int, default=8,
                       help="chaos rounds to run (default: 8)")
    chaos.add_argument("--plan", metavar="FILE", default=None,
                       help="JSON fault plan to replay every round "
                            "(default: sample a fresh random plan per "
                            "round from --seed)")
    chaos.add_argument("--test", action="append", default=None,
                       metavar="NAME",
                       help="restrict to named litmus tests (repeatable; "
                            "see repro verify --list)")
    chaos.add_argument("--deadline", type=_positive_int, default=None,
                       metavar="CYCLES",
                       help="simulated-cycle hang deadline per run "
                            "(default: 20M)")
    chaos.add_argument("--no-retry", action="store_true",
                       help="disable the retransmission layer (the "
                            "mutation self-test mode: drop plans are "
                            "expected to hang)")
    chaos.add_argument("--trace", action="store_true",
                       help="run every round under a causal trace "
                            "collector and print the span tree of each "
                            "failing round (verdicts are unaffected)")

    sub.add_parser("list", help="list workloads, policies and presets")
    return parser


def _session_from_args(args, verbose: bool = True):
    """Build the :class:`Session` the run/suite/evaluate commands use."""
    from repro.harness.report import CampaignProgress
    from repro.harness.session import Session
    cache_dir = None if args.no_cache else args.cache_dir
    progress = CampaignProgress() if verbose else None
    return Session(jobs=args.jobs, cache_dir=cache_dir, progress=progress,
                   collect_metrics=(args.metrics
                                    or bool(getattr(args, "metrics_out",
                                                    None))))


def cmd_run(args) -> int:
    """``repro run``: one workload under one policy.

    ``--page-cache N`` caps a capped policy at N frames per node
    instead of 70% of its SCOMA sibling's.  ``--trace-out`` and
    ``--check-invariants`` observe the live machine, so they run the
    cell in-process through the runner's ``attach`` seam and neither
    read nor fill the result cache; every other run goes through the
    session.  The printed stats are identical either way.
    """
    from dataclasses import replace

    from repro.harness.session import ExperimentSpec, execute_spec
    config = MachineConfig(page_cache_frames=args.page_cache,
                           enable_migration=args.migration)
    session = _session_from_args(args, verbose=False)
    spec = ExperimentSpec(args.workload, args.policy,
                          preset=args.preset, config=config)
    if args.page_cache is not None:
        spec = replace(spec, cache_fraction=None)
    note = ""
    if args.trace_out or args.check_invariants:
        from repro.obs import EventSink
        from repro.sim.invariants import InvariantViolation
        caps = session.page_cache_caps(spec)
        sink = EventSink() if args.trace_out else None
        try:
            result = execute_spec(
                spec, session.collect_metrics,
                attach=_live_observers(args.check_invariants, sink),
                caps=caps)
        except InvariantViolation as exc:
            print("INVARIANT VIOLATION at cycle %d (%s / %s):"
                  % (exc.when, spec.workload, spec.policy))
            for problem in exc.problems:
                print("  %s" % problem)
            return 1
        if args.check_invariants:
            note = " [invariants checked at every barrier]"
    else:
        result = session.run(spec)
        # A capped cell that missed may still have read its sibling.
        if session.cache_hits and not session.cache_misses:
            note = " [cached]"
    print("%s / %s (%s preset)%s"
          % (args.workload, args.policy, args.preset, note))
    for key, value in result.stats.summary().items():
        print("  %-22s %s" % (key, value))
    if result.metrics:
        # Serving workloads under --metrics report request latency
        # quantiles and the throughput curve next to the stats.
        from repro.obs.metrics import serving_summary
        for line in serving_summary(result.metrics):
            print("  %s" % line)
    if args.trace_out:
        written = sink.write_jsonl(args.trace_out)
        print("wrote %d events to %s (%d dropped)"
              % (written, args.trace_out, sink.dropped))
    if args.metrics_out:
        from repro.harness.export import save_metrics
        save_metrics([result], args.metrics_out)
        print("wrote metrics snapshot to %s" % args.metrics_out)
    return 0


def _live_observers(check_invariants: bool, sink):
    """The ``attach`` hook of ``run --check-invariants`` (coherence
    invariant walks at every barrier release) and ``--trace-out``
    (events into ``sink``)."""
    def attach(machine) -> None:
        if check_invariants:
            from repro.sim.invariants import install_barrier_checks
            install_barrier_checks(machine)
        if sink is not None:
            from repro.obs.recorder import TraceRecorder
            # Never exited: closing the machine empties its probes.
            TraceRecorder(machine, sink=sink).__enter__()
    return attach


def cmd_verify(args) -> int:
    """``repro verify``: the protocol conformance suite.

    ``--suite litmus`` (the default) runs every bundled litmus test
    under the bounded schedule set; ``--fuzz N --seed S`` runs N random
    schedules and shrinks any failure to a minimal reproducing
    schedule.  Exit code 1 on any conformance failure.
    """
    from repro.verify import (LITMUS_SUITE, fuzz, run_suite,
                              suite_by_name)
    if args.list:
        for test in LITMUS_SUITE:
            print("%-22s %s" % (test.name, test.description))
        return 0
    tests = LITMUS_SUITE
    if args.test:
        by_name = suite_by_name()
        unknown = [name for name in args.test if name not in by_name]
        if unknown:
            print("unknown litmus tests: %s (try --list)"
                  % ", ".join(unknown))
            return 2
        tests = tuple(by_name[name] for name in args.test)
    failed = False
    if args.suite is not None or args.fuzz is None:
        result = run_suite(tests)
        print(result.summary())
        failed = failed or not result.ok
    if args.fuzz is not None:
        failures = fuzz(rounds=args.fuzz, seed=args.seed, tests=tests)
        print("fuzz: %d rounds (seed %d), %d failures"
              % (args.fuzz, args.seed, len(failures)))
        for failure in failures:
            print(failure.describe())
        failed = failed or bool(failures)
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    """``repro chaos``: resilience campaigns over the fault plane.

    Samples a fault plan per round (or replays ``--plan FILE``) and
    runs litmus tests under it: every round must either complete with
    a sequentially-consistent history or fail cleanly.  Exit code 1 on
    any HUNG or CORRUPT verdict.  Deterministic in ``--seed``.
    """
    import json

    from repro.faults import ChaosCampaign, FaultPlan, RetryPolicy
    from repro.faults.campaign import DEFAULT_DEADLINE
    from repro.verify import LITMUS_SUITE, suite_by_name
    from repro.workloads.serving import chaos_scenarios
    tests = LITMUS_SUITE
    if args.test:
        by_name = dict(suite_by_name())
        # Serving chaos scenarios (txn2pc under command channels) are
        # addressable by name next to the litmus tests.
        by_name.update(chaos_scenarios())
        unknown = [name for name in args.test if name not in by_name]
        if unknown:
            print("unknown chaos tests: %s (try repro verify --list, or "
                  "a serving scenario: %s)"
                  % (", ".join(unknown),
                     ", ".join(sorted(chaos_scenarios()))))
            return 2
        tests = tuple(by_name[name] for name in args.test)
    plan = None
    if args.plan is not None:
        with open(args.plan) as fh:
            plan = FaultPlan.from_dict(json.load(fh))
    retry = RetryPolicy.disabled() if args.no_retry else None
    deadline = (args.deadline if args.deadline is not None
                else DEFAULT_DEADLINE)
    campaign = ChaosCampaign(seed=args.seed, rounds=args.rounds,
                             tests=tests, plan=plan, retry=retry,
                             deadline=deadline, trace=args.trace)
    report = campaign.run()
    print(report.summary())
    if args.trace:
        _print_chaos_traces(report)
    return 0 if report.ok else 1


def _print_chaos_traces(report) -> None:
    """Span trees for failing chaos rounds (``repro chaos --trace``).

    For each HUNG/CORRUPT round, prints the causal trace of the
    transaction that aborted (or, when none aborted, the slowest one)
    — including the ``fault:*`` marks of the faults injected into it."""
    from repro.obs import tracing
    for run in report.failures:
        collector = run.trace
        if collector is None:
            continue
        slowest = collector.slowest(1)
        trace = collector.aborted or (slowest[0] if slowest else None)
        print("\n%s %s seed=%d — causal trace of the failing transaction:"
              % (run.test.name, run.verdict, run.seed))
        if trace is None:
            print("  (no transaction was in flight)")
            continue
        print(tracing.format_tree(trace))


def cmd_suite(args) -> int:
    """``repro suite``: a Figure 7 slice."""
    from repro.harness.figures import figure7_ascii
    session = _session_from_args(args)
    suite = session.run_workload_suite(args.workload, preset=args.preset)
    print()
    print(figure7_ascii({args.workload: suite}))
    print("\n%-10s %12s %14s %10s" % ("policy", "normalized",
                                      "remote misses", "page-outs"))
    for policy in suite.results:
        print("%-10s %12.3f %14d %10d"
              % (policy, suite.normalized_time(policy),
                 suite.remote_misses(policy), suite.page_outs(policy)))
    print("\n" + session.progress.summary())
    return 0


def cmd_evaluate(args) -> int:
    """``repro evaluate``: the full campaign (optionally saved)."""
    cache_dir = None if args.no_cache else args.cache_dir
    if args.save:
        from repro.harness.export import save_campaign
        session = _session_from_args(args)
        suites = session.run_campaign(tuple(args.apps), preset=args.preset)
        save_campaign(suites, args.save)
        from repro.harness.figures import figure7_table
        print(figure7_table(suites).render())
        print(session.progress.summary())
        print("saved campaign to %s" % args.save)
        return 0
    from repro.harness import run_paper_evaluation
    print(run_paper_evaluation(apps=tuple(args.apps), preset=args.preset,
                               include_pit=not args.skip_pit, verbose=True,
                               jobs=args.jobs, cache_dir=cache_dir,
                               collect_metrics=args.metrics))
    return 0


def cmd_analyze(args) -> int:
    """``repro analyze``: static workload characterization."""
    from repro.workloads import make_workload
    from repro.workloads.analysis import profile_workload
    workload = make_workload(args.workload, args.preset)
    profile = profile_workload(workload, num_cpus=args.cpus)
    print("%s (%s preset, %d CPUs): %s"
          % (args.workload, args.preset, args.cpus, workload.problem))
    for key, value in profile.summary().items():
        print("  %-20s %s" % (key, value))
    return 0


def cmd_microbench(_args) -> int:
    """``repro microbench``: Table 1."""
    from repro.harness.tables import table1
    print(table1().render())
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: diff two saved campaigns."""
    from repro.harness.compare import compare_campaigns
    from repro.harness.export import load_campaign
    diff = compare_campaigns(load_campaign(args.before),
                             load_campaign(args.after))
    print(diff.table(args.threshold).render())
    if diff.missing_apps:
        print("missing in the new campaign: %s"
              % ", ".join(diff.missing_apps))
    if diff.new_apps:
        print("new in the new campaign: %s" % ", ".join(diff.new_apps))
    return 1 if diff.regressions(args.threshold) else 0


def cmd_metrics(args) -> int:
    """``repro metrics``: per-policy telemetry for one workload.

    Runs the cells through a metrics-collecting session: a cached
    entry with a snapshot serves its cell, and a cell without one is
    re-simulated and its entry overwritten, so the next invocation is
    free.
    """
    from repro.harness.session import ExperimentSpec, Session
    from repro.harness.tables import metrics_table

    policies = args.policy if args.policy else ["scoma", "lanuma"]
    cache_dir = None if args.no_cache else args.cache_dir
    session = Session(cache_dir=cache_dir, collect_metrics=True)
    results = session.run_suite(
        ExperimentSpec(args.workload, policy, preset=args.preset)
        for policy in policies)
    if args.filter is not None or args.format != "table":
        return _emit_metric_rows(_metric_rows(results, args.filter),
                                 args.format)
    for result in results:
        _print_metrics_detail(result)
    print()
    print(metrics_table(results).render())
    return 0


#: Columns of the flat per-metric listing (``--filter`` / ``--format``).
_METRIC_COLUMNS = ("cell", "kind", "metric", "value", "count", "sum",
                   "p50", "p99")

#: Snapshot section -> row kind for the flat listing.
_METRIC_KINDS = (("counters", "counter"), ("gauges", "gauge"),
                 ("histograms", "histogram"), ("series", "series"))


def _metric_rows(results, pattern: "str | None") -> "list[dict]":
    """Flatten metrics snapshots into one row per metric.

    ``pattern`` is an ``fnmatch`` glob matched against the family name
    *and* the full labelled key (so both ``trace.*`` and
    ``*{policy=scoma}`` work); None keeps everything.  Histograms
    report count/sum/p50/p99, series their length and last value,
    counters and gauges just the value.
    """
    from fnmatch import fnmatchcase

    from repro.obs import parse_key, quantile
    rows = []
    for result in results:
        cell = "%s/%s" % (result.workload, result.policy)
        snap = result.metrics or {}
        for section, kind in _METRIC_KINDS:
            for key in sorted(snap.get(section, ())):
                name, _labels = parse_key(key)
                if pattern is not None and not (
                        fnmatchcase(name, pattern)
                        or fnmatchcase(key, pattern)):
                    continue
                value = snap[section][key]
                row = dict.fromkeys(_METRIC_COLUMNS, "")
                row.update(cell=cell, kind=kind, metric=key)
                if kind == "histogram":
                    row.update(count=value["count"], sum=value["sum"],
                               p50=quantile(value, 0.50),
                               p99=quantile(value, 0.99))
                elif kind == "series":
                    points = value.get("points", [])
                    row.update(count=len(points),
                               value=points[-1][1] if points else "")
                else:
                    row["value"] = value
                rows.append(row)
    return rows


def _emit_metric_rows(rows: "list[dict]", fmt: str) -> int:
    """Print the flat metric listing as a table, JSON or CSV."""
    if fmt == "json":
        import json
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif fmt == "csv":
        import csv
        import sys
        writer = csv.DictWriter(sys.stdout,
                                fieldnames=list(_METRIC_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    else:
        from repro.harness.report import TextTable
        table = TextTable("metrics", list(_METRIC_COLUMNS))
        for row in rows:
            table.add_row(*(row[column] for column in _METRIC_COLUMNS))
        print(table.render())
    return 0


def _print_metrics_detail(result) -> None:
    """Latency histogram and frame-pool occupancy of one cell."""
    from repro.obs import find_metrics
    snap = result.metrics
    print("\n%s / %s" % (result.workload, result.policy))
    for _labels, hist in find_metrics(snap["histograms"],
                                      "sim.access_latency_cycles"):
        print("  access latency (cycles), %d observations:"
              % hist["count"])
        for bound, count in zip(hist["buckets"], hist["counts"]):
            if count:
                print("    <= %8d  %d" % (bound, count))
        if hist["counts"][-1]:
            print("    >  %8d  %d" % (hist["buckets"][-1],
                                      hist["counts"][-1]))
    print("  frame pools (per node):")
    for pool in ("real_in_use", "imaginary_in_use",
                 "client_scoma_in_use", "client_scoma_peak"):
        members = find_metrics(snap["gauges"], "kernel.frame_pool." + pool)
        members.sort(key=lambda lv: int(lv[0].get("node", -1)))
        if members:
            print("    %-22s %s"
                  % (pool, " ".join(str(v) for _l, v in members)))
    # Host-side throughput published by Machine.run (simulated telemetry
    # above, simulator speed below — stale for snapshots from the result
    # cache, which report the wall clock of the run that produced them).
    rps = find_metrics(snap["gauges"], "host.refs_per_sec")
    wall = find_metrics(snap["gauges"], "host.wall_seconds")
    if rps and wall:
        print("  host throughput: %.0f refs/s (%.3fs wall)"
              % (rps[0][1], wall[0][1]))


def cmd_trace(args) -> int:
    """``repro trace``: causal traces + critical-path breakdown.

    Runs one cell in-process under a
    :class:`~repro.obs.tracing.TraceCollector`, then prints the
    campaign-wide latency attribution by segment and the ``--top N``
    slowest transactions as span trees, each with its per-segment
    breakdown (segment cycles sum exactly to the transaction's
    latency).  ``--out`` / ``--chrome`` export the retained spans.
    """
    from repro.harness.report import TextTable
    from repro.harness.session import ExperimentSpec, Session, execute_spec
    from repro.obs import tracing

    spec = ExperimentSpec(args.workload, args.policy, preset=args.preset)
    # A capped policy's SCOMA sibling runs before the collector opens.
    caps = Session().page_cache_caps(spec)
    with tracing.collecting(seed=args.seed) as collector:
        execute_spec(spec, caps=caps)

    print("%s / %s (%s preset, seed %d): %d transactions, %d spans"
          % (args.workload, args.policy, args.preset, args.seed,
             collector.finished, collector.span_count))
    if collector.sink.dropped:
        print("  (the store kept the most recent %d spans; %d dropped)"
              % (len(collector.sink.events), collector.sink.dropped))
    rollup = collector.rollup()
    total = sum(entry["cycles"] for entry in rollup.values())
    table = TextTable("critical-path latency by segment",
                      ["segment", "cycles", "share", "spans"])
    for kind, entry in sorted(rollup.items(),
                              key=lambda kv: (-kv[1]["cycles"], kv[0])):
        share = ("%.1f%%" % (100.0 * entry["cycles"] / total)
                 if total else "-")
        table.add_row(kind, entry["cycles"], share, entry["count"])
    print()
    print(table.render())

    for rank, trace in enumerate(collector.slowest(args.top), 1):
        print("\n#%d  +%d cycles  trace %s"
              % (rank, trace.duration, trace.trace_id))
        print(tracing.format_tree(trace))
        parts = sorted(trace.breakdown.items(),
                       key=lambda kv: (-kv[1], kv[0]))
        print("  segments: %s  (sum %d = duration %d)"
              % (" ".join("%s=%d" % kv for kv in parts),
                 sum(trace.breakdown.values()), trace.duration))

    if args.out:
        written = collector.sink.write_jsonl(args.out)
        print("\nwrote %d spans to %s" % (written, args.out))
    if args.chrome:
        events = collector.write_chrome(args.chrome)
        print("wrote %d trace events to %s (open at ui.perfetto.dev)"
              % (events, args.chrome))
    return 0


def cmd_top(args) -> int:
    """``repro top``: live dashboard of a running campaign.

    Runs the campaign under a
    :class:`~repro.harness.top.LiveCampaignView` — per-cell progress
    with access-latency p50/p99, cache counters, worker utilization
    and the rolling critical-path segment mix.  On a TTY the frame
    repaints in place; piped output degrades to one line per cell.
    """
    from repro.harness.session import Session
    from repro.harness.top import LiveCampaignView

    cache_dir = None if args.no_cache else args.cache_dir
    view = LiveCampaignView(jobs=args.jobs)
    session = Session(jobs=args.jobs, cache_dir=cache_dir, progress=view,
                      collect_metrics=True, trace_cells=not args.no_trace)
    session.run_campaign(tuple(args.apps), preset=args.preset)
    if not view.repaint:
        print()
        print(view.render())
    print(view.summary())
    return 0


def cmd_list(_args) -> int:
    """``repro list``: the available names."""
    from repro.workloads import SERVING_APPLICATIONS
    from repro.workloads.serving import chaos_scenarios
    print("workloads: %s" % ", ".join(APPLICATIONS))
    print("serving:   %s" % ", ".join(SERVING_APPLICATIONS))
    print("policies:  %s" % ", ".join(POLICY_NAMES))
    print("presets:   %s" % ", ".join(PRESET_NAMES))
    print("chaos:     %s" % ", ".join(sorted(chaos_scenarios())))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "suite": cmd_suite,
        "evaluate": cmd_evaluate,
        "microbench": cmd_microbench,
        "analyze": cmd_analyze,
        "compare": cmd_compare,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "top": cmd_top,
        "verify": cmd_verify,
        "chaos": cmd_chaos,
        "list": cmd_list,
    }[args.command]
    return handler(args)
