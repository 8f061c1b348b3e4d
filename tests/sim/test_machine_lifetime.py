"""A closed machine is freed by reference counting, not by the cyclic GC.

Every code path that builds a machine and keeps only its results calls
``Machine.close``; after that no ``Machine`` may survive the owner
dropping it.  The cyclic collector is disabled while each case runs, so
a machine, or any part of its model, that is still in a reference
cycle stays visible in ``gc.get_objects()`` and fails the case.
"""

import gc
import random

import pytest

from repro import obs
from repro.core.controller import CoherenceController
from repro.core.migration import MigrationManager
from repro.faults import FaultPlan, run_chaos
from repro.harness.cli import main
from repro.harness.session import Session
from repro.interconnect.network import Network
from repro.kernel.vm import NodeKernel
from repro.obs import tracing
from repro.sim.machine import Cpu, Machine, Node
from repro.sim.probes import Probes
from repro.verify.litmus import LITMUS_SUITE
from repro.verify.runner import run_litmus
from repro.workloads import make_workload
from repro.workloads.microbench import run_microbenchmark
from repro.workloads.serving import KvStoreWorkload, chaos_scenarios


#: The machine and the parts of its model that pointed back at it.
MODEL = (Machine, Node, Cpu, CoherenceController, NodeKernel,
         MigrationManager, Probes, Network)


def _model_objects() -> list:
    return [o for o in gc.get_objects() if isinstance(o, MODEL)]


def _assert_freed(job) -> None:
    """Run ``job`` with the cyclic GC off; nothing of a machine it built
    may be left behind."""
    gc.collect()
    before = _model_objects()  # held, so their ids cannot be reused
    known = {id(o) for o in before}
    gc.disable()
    try:
        job()
        left = sorted(type(o).__name__ for o in _model_objects()
                      if id(o) not in known)
    finally:
        gc.enable()
    assert left == [], "outlived their owner: %s" % left


def _closed_run(workload):
    machine = Machine(policy="scoma")
    try:
        return machine.run(workload)
    finally:
        machine.close()


def _tiny_fft():
    _closed_run(make_workload("fft", "tiny"))


def _kvstore_with_metrics():
    with obs.collecting() as registry:
        _closed_run(KvStoreWorkload(num_keys=64, num_shards=4,
                                    requests_per_cpu=24, batches=2))
    # The serving tap and the access-latency histogram were bound.
    snapshot = registry.to_dict()
    assert any(k.startswith("serving.request_latency_cycles")
               for k in snapshot["histograms"])
    assert any(k.startswith("sim.access_latency_cycles")
               for k in snapshot["histograms"])


def _traced_run():
    with tracing.collecting(seed=3) as collector:
        _closed_run(make_workload("fft", "tiny"))
    assert collector.finished > 0


def _chaos(test):
    def job():
        rng = random.Random(5)
        run = run_chaos(test, FaultPlan.sample(rng, num_nodes=test.num_nodes),
                        seed=rng.randrange(2 ** 31))
        assert run.ok, run.describe()
    return job


def _hung_chaos():
    # A deadline-only plan: the run raises DeadlineExceeded from a heap
    # pop with the CPUs' drivers suspended mid-run.
    run = run_chaos(chaos_scenarios()["txn2pc"], FaultPlan(), deadline=20_000)
    assert run.verdict == "HUNG", run.describe()
    assert "deadline 20000 exceeded" in run.detail


def _campaign():
    suites = Session(jobs=1).run_campaign(("fft", "lu"), preset="tiny")
    assert set(suites) == {"fft", "lu"}


def test_closed_tiny_fft_run_is_freed():
    _assert_freed(_tiny_fft)


def test_closed_kvstore_run_with_metrics_is_freed():
    _assert_freed(_kvstore_with_metrics)


def test_closed_traced_run_is_freed():
    _assert_freed(_traced_run)


def test_litmus_chaos_run_is_freed():
    _assert_freed(_chaos(LITMUS_SUITE[0]))


def test_txn2pc_chaos_run_is_freed():
    _assert_freed(_chaos(chaos_scenarios()["txn2pc"]))


def test_chaos_run_that_raises_is_freed():
    _assert_freed(_hung_chaos)


def test_campaign_cells_are_freed():
    _assert_freed(_campaign)


def _cli(*argv):
    def job():
        assert main(list(argv)) == 0
    return job


def test_trace_command_is_freed(capsys):
    _assert_freed(_cli("trace", "fft", "--preset", "tiny"))


def test_run_check_invariants_is_freed(capsys):
    _assert_freed(_cli("run", "fft", "--preset", "tiny", "--no-cache",
                       "--check-invariants"))


def test_run_trace_out_is_freed(tmp_path, capsys):
    _assert_freed(_cli("run", "fft", "--preset", "tiny", "--no-cache",
                       "--trace-out", str(tmp_path / "trace.jsonl")))


def test_litmus_check_is_freed():
    _assert_freed(lambda: run_litmus(LITMUS_SUITE[0]))


def test_table1_probe_machines_are_freed():
    _assert_freed(run_microbenchmark)


def test_close_is_idempotent_and_keeps_results():
    machine = Machine(policy="scoma")
    result = machine.run(make_workload("fft", "tiny"))
    before = result.stats.to_dict()
    utilization = machine.resource_report()
    machine.close()
    machine.close()
    assert result.stats.to_dict() == before
    assert machine.stats is result.stats
    assert machine.resource_report() == utilization
    with pytest.raises(RuntimeError, match="closed"):
        machine.run(make_workload("fft", "tiny"))
