"""The four benchmark workloads.

A workload runs in *passes*.  One pass is one fixed job a user of the
simulator runs, built from the seed alone, on freshly built simulated
machines (their caches start empty).  ``run.py`` repeats passes for the
measured window and checks that every pass produced the same outputs.

Each pass reports its *items* (one checked output each: a campaign
cell, a rendered table, a simulated run, a chaos run), its *work* (the
unit ``work_per_s`` counts), the exact end-to-end values and the exact
per-layer counters read from the program's public statistics.

The program is imported from ``src/`` of the checkout, so ``run.py``
puts that directory on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import random
import tempfile

from repro import obs
from repro.faults.campaign import run_chaos
from repro.faults.plan import FaultPlan
from repro.harness import (Session, figure7_ascii, figure7_table, table3,
                           table4, table5)
from repro.obs import find_metrics
from repro.sim.config import MachineConfig
from repro.sim.latency import PAPER_TABLE1
from repro.sim.replay import build_machine
from repro.verify.litmus import LITMUS_SUITE
from repro.workloads import APPLICATIONS
from repro.workloads.microbench import run_microbenchmark
from repro.workloads.serving import KvStoreWorkload, chaos_scenarios
from repro.workloads.synthetic import SyntheticWorkload

from common import COUNTERS, digest

#: Table 1 rows may sit this far (percent) from the paper's values.
TABLE1_TOLERANCE_PCT = 2.0

#: Resource-name suffix -> the per-layer utilization counter it feeds.
_UTIL_COUNTERS = ((".bus.addr", "mem.bus_util_max"),
                  (".bus.data", "mem.bus_util_max"),
                  (".ctrl", "core.ctrl_util_max"),
                  (".ni", "interconnect.ni_util_max"),
                  (".kernel", "kernel.util_max"))


class Pass:
    """What one pass produced."""

    def __init__(self) -> None:
        #: ``(name, digest, problem)``; ``problem`` is None when the
        #: item's own checks passed.
        self.items: "list[tuple[str, str, str | None]]" = []
        self.work = 0
        self.exact: "dict[str, float]" = {}
        self.counters = {metric.name: 0 for metric in COUNTERS}

    def item(self, name: str, output, problem: "str | None" = None) -> None:
        self.items.append((name, digest(output), problem))


def stats_problem(stats) -> "str | None":
    """Internal-consistency check of one run's MachineStats."""
    if stats.execution_cycles <= 0:
        return "no simulated cycles"
    for cpu in stats.cpus:
        if cpu.references != cpu.reads + cpu.writes:
            return "cpu %d: references != reads + writes" % cpu.cpu_id
        if cpu.l1_hits + cpu.l2_hits > cpu.references:
            return "cpu %d: more cache hits than references" % cpu.cpu_id
    return None


def machine_counters(counters: dict, stats_list, machines=()) -> None:
    """Fill the memory/protocol/kernel/scheduler counters from the
    statistics of every run in a pass.  Resource utilization and PIT
    lookups are read off ``machines``, the machines the benchmark built
    itself (the campaign builds its own, out of the benchmark's reach)."""
    cpus = [cpu for stats in stats_list for cpu in stats.cpus]
    nodes = [node for stats in stats_list for node in stats.nodes]
    refs = sum(cpu.references for cpu in cpus)
    l1 = sum(cpu.l1_hits for cpu in cpus)
    dir_hits = sum(stats.directory_cache_hits for stats in stats_list)
    dir_misses = sum(stats.directory_cache_misses for stats in stats_list)
    pit = sum(node.pit.lookups for m in machines for node in m.nodes)
    pit_hash = sum(node.pit.hash_lookups for m in machines for node in m.nodes)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_kref(count):
        return ratio(1000.0 * count, refs)

    counters.update({
        "mem.l1_hit_ratio": ratio(l1, refs),
        "mem.l2_hit_ratio": ratio(sum(c.l2_hits for c in cpus), refs - l1),
        "mem.tlb_misses_per_kref": per_kref(sum(c.tlb_misses for c in cpus)),
        "core.remote_misses_per_kref":
            per_kref(sum(n.remote_misses for n in nodes)),
        "core.upgrades_per_kref":
            per_kref(sum(n.remote_upgrades for n in nodes)),
        "core.invalidations_per_kref":
            per_kref(sum(n.invalidations_received for n in nodes)),
        "core.dir_cache_hit_ratio": ratio(dir_hits, dir_hits + dir_misses),
        "core.pit_fast_ratio": ratio(pit - pit_hash, pit),
        "kernel.page_faults": sum(stats.page_faults for stats in stats_list),
        "kernel.client_page_outs":
            sum(stats.client_page_outs for stats in stats_list),
        "sim.barrier_waits": sum(c.barrier_waits for c in cpus),
        "sim.lock_acquires": sum(c.lock_acquires for c in cpus),
    })
    for machine in machines:
        for name, util in machine.resource_report().items():
            for suffix, key in _UTIL_COUNTERS:
                if name.endswith(suffix):
                    counters[key] = max(counters[key], util)


class _CellSpans:
    """Duck-typed campaign progress: one bench span per finished cell.

    With ``jobs=1`` a stage-1 cell runs when it is submitted but is
    reported when the session drains, so a cell span ends at its report
    and only its duration is exact.
    """

    def __init__(self, spans) -> None:
        self.spans = spans

    def expect(self, cells: int) -> None:
        pass

    def note_cache(self, hits: int, misses: int) -> None:
        pass

    def cell_done(self, workload: str, policy: str, seconds: float,
                  cached: bool = False) -> None:
        end = self.spans.now()
        self.spans.add("cell", end - seconds, end,
                       cell="%s/%s" % (workload, policy), cached=cached)


class PaperTiny:
    """The paper's campaign at the tiny preset, cold then warm."""

    name = "paper-tiny"
    work_unit = "simulated reference"
    #: The SPLASH inputs are fixed by the preset; the seed only permutes
    #: the order in which the campaign submits applications, so one
    #: reference serves every seed.
    seeded = False
    probe = ("from repro.harness import Session, table1\n"
             "from repro.sim.replay import build_machine\n"
             "build_machine()\n")

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        apps = list(("fft", "lu") if quick else APPLICATIONS)
        random.Random(seed).shuffle(apps)
        self.apps = tuple(apps)
        self.warm_passes = 3 if quick else 20
        self.workdir = workdir

    def run_pass(self, spans) -> Pass:
        out = Pass()
        with tempfile.TemporaryDirectory(dir=self.workdir) as cache_dir:
            session = Session(jobs=1, cache_dir=cache_dir,
                              progress=_CellSpans(spans))
            with spans.span("campaign"):
                suites = session.run_campaign(self.apps, preset="tiny")
            # Paper order, whatever order the seed submitted them in.
            suites = {app: suites[app] for app in APPLICATIONS
                      if app in suites}
            cells = _cell_stats(suites)
            for label, stats in cells.items():
                out.item("cell:" + label, stats.to_dict(),
                         stats_problem(stats))

            with spans.span("table1"):
                measured = run_microbenchmark()
            err_pct = 100.0 * max(abs(measured[row] - paper) / paper
                                  for row, paper in PAPER_TABLE1.items())
            out.item("table1", measured,
                     None if err_pct <= TABLE1_TOLERANCE_PCT else
                     "Table 1 is %.2f%% off the paper" % err_pct)

            with spans.span("render"):
                text = "\n".join([figure7_ascii(suites),
                                  str(figure7_table(suites)),
                                  str(table3(suites)), str(table4(suites)),
                                  str(table5(suites))])
            out.item("render", text)

            cold = _cells_digest(cells)
            hits, lookups = session.cache_hits, (session.cache_hits
                                                 + session.cache_misses)
            for _ in range(self.warm_passes):
                warm_session = Session(jobs=1, cache_dir=cache_dir)
                with spans.span("warm_pass"):
                    warm = warm_session.run_campaign(self.apps,
                                                     preset="tiny")
                value = _cells_digest(_cell_stats(warm))
                out.items.append(("warm", value, None if value == cold else
                                  "warm results differ from the cold run"))
                hits += warm_session.cache_hits
                lookups += warm_session.cache_hits + warm_session.cache_misses

        stats_list = list(cells.values())
        out.work = sum(stats.references for stats in stats_list)
        out.exact["sim_cycles"] = sum(s.execution_cycles for s in stats_list)
        out.exact["table1_max_err_pct"] = err_pct
        machine_counters(out.counters, stats_list)
        out.counters["harness.cache_hit_ratio"] = hits / lookups
        return out


def _cell_stats(suites) -> dict:
    """``{"app/policy": MachineStats}`` of a campaign's cells."""
    return {"%s/%s" % (app, policy): result.stats
            for app, suite in suites.items()
            for policy, result in suite.results.items()}


def _cells_digest(cells: dict) -> str:
    return digest({label: stats.to_dict() for label, stats in cells.items()})


class Hot32x8:
    """A hit-dominated synthetic loop on the paper's 32x8 geometry."""

    name = "hot-32x8"
    work_unit = "simulated reference"
    seeded = True
    probe = ("from repro.sim.config import MachineConfig\n"
             "from repro.sim.replay import build_machine\n"
             "from repro.workloads.synthetic import SyntheticWorkload\n"
             "build_machine(MachineConfig(num_nodes=32, cpus_per_node=8,"
             " directory_cache_entries=1024), policy='scoma')\n")

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed % 2 ** 32
        self.refs = 250 if quick else 2000
        self.iterations = 1 if quick else 2

    def run_pass(self, spans) -> Pass:
        out = Pass()
        config = MachineConfig(num_nodes=32, cpus_per_node=8,
                               directory_cache_entries=1024)
        workload = SyntheticWorkload("block", shared_kb=256,
                                     refs_per_cpu_per_iter=self.refs,
                                     iterations=self.iterations,
                                     seed=self.seed)
        with spans.span("build_machine"):
            machine = build_machine(config, policy="scoma")
        with spans.span("machine.run"):
            stats = machine.run(workload).stats
        out.item("run", stats.to_dict(), stats_problem(stats))
        out.work = stats.references
        out.exact["sim_cycles"] = stats.execution_cycles
        machine_counters(out.counters, [stats], [machine])
        return out


class Serving:
    """The Zipfian key-value store, read-mostly then write-heavy, with
    serving metrics on (the ``repro run --metrics`` path)."""

    name = "serving"
    work_unit = "simulated reference"
    seeded = True
    probe = ("from repro import obs\n"
             "from repro.sim.replay import build_machine\n"
             "from repro.workloads.serving import KvStoreWorkload\n"
             "build_machine(policy='scoma')\n")
    MIXES = (("read-mostly", 0.8), ("write-heavy", 0.2))

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed % 2 ** 32
        if quick:
            self.sizes = dict(num_keys=192, num_shards=8,
                              requests_per_cpu=240, batches=3,
                              churn_interval=64, drift=8)
        else:
            # The `serving` preset's key space, skew and churn, with
            # fewer requests per CPU so a pass fits the window.
            self.sizes = dict(num_keys=4096, num_shards=32,
                              requests_per_cpu=1000, batches=5, skew=1.1,
                              churn_interval=200, drift=32)

    def run_pass(self, spans) -> Pass:
        out = Pass()
        stats_list, machines = [], []
        latency_sum = latency_count = 0
        for mix, gets in self.MIXES:
            workload = KvStoreWorkload(get_fraction=gets, seed=self.seed,
                                       **self.sizes)
            with obs.collecting() as registry:
                with spans.span("build_machine", mix=mix):
                    machine = build_machine(MachineConfig(), policy="scoma")
                with spans.span("machine.run", mix=mix):
                    stats = machine.run(workload).stats
            snapshot = registry.to_dict()
            # host.* gauges are wall-clock readings, not outputs.
            snapshot["gauges"] = {key: value for key, value
                                  in snapshot["gauges"].items()
                                  if not key.startswith("host.")}
            served = sum(value for _labels, value in find_metrics(
                snapshot["counters"], "serving.requests"))
            per_cpu = (workload.requests_per_cpu // workload.batches
                       * workload.batches)
            expected = len(machine.cpus) * per_cpu
            problem = stats_problem(stats)
            if problem is None and served != expected:
                problem = "served %d of %d requests" % (served, expected)
            out.item(mix, {"stats": stats.to_dict(), "metrics": snapshot},
                     problem)
            for _labels, hist in find_metrics(
                    snapshot["histograms"], "serving.request_latency_cycles"):
                latency_sum += hist["sum"]
                latency_count += hist["count"]
            out.counters["obs.requests_observed"] += served
            stats_list.append(stats)
            machines.append(machine)
        out.work = sum(stats.references for stats in stats_list)
        out.exact["sim_cycles"] = sum(s.execution_cycles for s in stats_list)
        out.exact["req_mean_cycles"] = latency_sum / latency_count
        machine_counters(out.counters, stats_list, machines)
        return out


class Chaos:
    """Litmus tests and 2PC transactions under sampled fault plans."""

    name = "chaos"
    work_unit = "chaos run"
    seeded = True
    probe = ("from repro.faults.campaign import run_chaos\n"
             "from repro.sim.machine import Machine\n"
             "from repro.verify.litmus import LITMUS_SUITE\n"
             "test = LITMUS_SUITE[0]\n"
             "Machine(test.build_config(), policy=test.policy)\n")

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.litmus_rounds = 180 if quick else 1800
        self.txn_rounds = 20 if quick else 180

    def run_pass(self, spans) -> Pass:
        out = Pass()
        totals = dict.fromkeys(("judged", "dropped", "retransmissions",
                                "retry_exhausted"), 0)
        completed = runs = 0
        campaigns = ((LITMUS_SUITE, self.litmus_rounds),
                     ((chaos_scenarios()["txn2pc"],), self.txn_rounds))
        for tests, rounds in campaigns:
            # The sampling loop of ChaosCampaign.run, so each run can be
            # timed: same seed, same plans, same verdicts.
            rng = random.Random(self.seed)
            for i in range(rounds):
                test = tests[i % len(tests)]
                run_seed = rng.randrange(2 ** 31)
                plan = FaultPlan.sample(rng, num_nodes=test.num_nodes)
                with spans.span("run_chaos", test=test.name):
                    run = run_chaos(test, plan, seed=run_seed)
                problem = None if run.ok else "%s %s" % (
                    run.verdict, run.detail or "; ".join(run.violations))
                out.item("%s#%d" % (test.name, i),
                         {"verdict": run.verdict, "faults": run.fault_stats},
                         problem)
                for key in totals:
                    totals[key] += run.fault_stats[key]
                completed += run.verdict == "COMPLETED_SC"
                runs += 1
        out.work = runs
        for key, value in totals.items():
            out.counters["faults." + key] = value
        out.counters["faults.retransmit_ratio"] = (
            totals["retransmissions"] / totals["judged"]
            if totals["judged"] else 0.0)
        out.counters["verify.sc_ratio"] = completed / runs
        return out


WORKLOADS = {cls.name: cls for cls in (PaperTiny, Hot32x8, Serving, Chaos)}
