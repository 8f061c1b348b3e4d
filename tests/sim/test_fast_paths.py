"""Tests pinning down the reference-path fast paths.

The hot-path work (TLB memo, flat cache probe, dense PIT, block run
ops, inlined resource arithmetic) must be *invisible* in simulated
results: these tests assert determinism across back-to-back runs and
exact equivalence between run-op workloads and their per-reference
expansion.
"""

import random

import pytest

from repro.core.modes import PageMode
from repro.core.pit import PageInformationTable
from repro.faults import FaultInjector, FaultPlan
from repro.kernel.frames import IMAGINARY_BASE
from repro.sim.config import tiny_config
from repro.sim.engine import LockTable
from repro.sim.machine import Machine
from repro.sim.ops import OP_COMPUTE, OP_READ, OP_RUN, OP_WRITE
from repro.workloads import make_workload
from repro.workloads.base import (SharedArray, Workload, coalesce,
                                  coalesce_stream)
from repro.workloads.synthetic import SyntheticWorkload
from tests.conftest import expand_op, run_flags


def run_stats(workload_factory, policy):
    machine = Machine(tiny_config(), policy=policy)
    return machine.run(workload_factory()).stats.to_dict()


class TestDeterminism:
    """Two identical runs must produce identical stats dicts."""

    @pytest.mark.parametrize("app,policy", [
        ("fft", "scoma"),
        ("lu", "lanuma"),
        ("fft", "dyn-lru"),
    ])
    def test_back_to_back_runs_identical(self, app, policy):
        first = run_stats(lambda: make_workload(app, preset="tiny"), policy)
        second = run_stats(lambda: make_workload(app, preset="tiny"), policy)
        assert first == second

    def test_synthetic_back_to_back_identical(self):
        make = lambda: SyntheticWorkload("random", shared_kb=32,
                                         refs_per_cpu_per_iter=400,
                                         iterations=2)
        assert run_stats(make, "lanuma") == run_stats(make, "lanuma")


class ExpandedWorkload(Workload):
    """Wraps a workload, expanding every run op to single references.

    Running the wrapped and expanded versions through the same machine
    configuration must give byte-identical stats — the run ops are pure
    op-stream compression.
    """

    name = "expanded"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.problem = getattr(inner, "problem", "")
        if hasattr(inner, "cycles_per_ref"):
            # The machine reads the per-reference gap off the workload.
            self.cycles_per_ref = inner.cycles_per_ref

    def setup(self, layout, num_cpus):
        self.inner.setup(layout, num_cpus)

    def generator(self, cpu_id, num_cpus):
        for op in self.inner.generator(cpu_id, num_cpus):
            if op[0] == OP_RUN:
                for single in expand_op(op):
                    yield single
            else:
                yield op


class TestRunOpEquivalence:
    @pytest.mark.parametrize("app", ["fft", "lu"])
    def test_app_runs_equal_expansion(self, app):
        fused = run_stats(lambda: make_workload(app, preset="tiny"), "scoma")
        expanded = run_stats(
            lambda: ExpandedWorkload(make_workload(app, preset="tiny")),
            "scoma")
        assert fused == expanded

    def test_synthetic_runs_equal_expansion(self):
        make = lambda: SyntheticWorkload("block", shared_kb=32,
                                         refs_per_cpu_per_iter=500,
                                         iterations=2)
        fused = run_stats(make, "lanuma")
        expanded = run_stats(lambda: ExpandedWorkload(make()), "lanuma")
        assert fused == expanded

    def test_workloads_actually_emit_runs(self):
        wl = make_workload("fft", preset="tiny")

        class _Layout:
            page_bytes = 4096

            def __init__(self):
                self.base = 0

            def attach_shared(self, key, size_bytes):
                return self.add_private(size_bytes)

            def add_private(self, size_bytes):
                region = type("R", (), {"vbase": self.base})()
                self.base += ((size_bytes + 4095) // 4096) * 4096
                return region

        wl.setup(_Layout(), 2)
        runs = [run_flags(op) for op in wl.generator(0, 2)
                if op[0] == OP_RUN]
        # Load runs and store runs both.
        assert {flag for run in runs for flag in run[4]} == {0, 1}


class MixedStretches(Workload):
    """Per CPU, constant-stride stretches of loads and stores mixed at
    random over one shared array, with computes between them; with
    ``fused`` the stream goes through ``coalesce_stream``, so most
    stretches become one run op of both kinds."""

    name = "mixed-stretches"

    def __init__(self, fused):
        super().__init__()
        self.fused = fused

    def setup(self, layout, num_cpus):
        self.array = SharedArray(layout, key=7, num_elems=256, elem_bytes=32)

    def stream(self, cpu_id):
        rng = random.Random(cpu_id)
        for _ in range(60):
            start = rng.randrange(256)
            stride = rng.choice((0, 1, -1, 3))
            for i in range(rng.randint(1, 24)):
                yield (OP_WRITE if rng.random() < 0.3 else OP_READ,
                       self.array.addr((start + i * stride) % 256))
            yield (OP_COMPUTE, rng.randint(0, 40))

    def generator(self, cpu_id, num_cpus):
        ops = self.stream(cpu_id)
        return coalesce_stream(ops) if self.fused else ops


def _logged_run(fused, faults=None):
    """Stats and the ``(cpu, vaddr, is_write, now)`` log of every
    access."""
    machine = Machine(tiny_config(), policy="scoma", faults=faults)
    log = []

    def probe(call, cpu, vaddr, is_write, now):
        log.append((cpu.cpu_id, vaddr, is_write, now))
        return call(cpu, vaddr, is_write, now)

    machine.probes.add("access", probe)
    try:
        workload = MixedStretches(fused)
        return machine.run(workload).stats.to_dict(), log, workload
    finally:
        machine.close()


class TestOneRunOp:
    def test_fused_mixed_runs_equal_single_ops(self):
        singles, single_log, _ = _logged_run(fused=False)
        fused, fused_log, workload = _logged_run(fused=True)
        assert fused == singles
        assert fused_log == single_log
        # The access probe sees a bool, from single ops and runs alike.
        assert {type(is_write) for _, _, is_write, _ in fused_log} == {bool}
        assert {w for _, _, w, _ in fused_log} == {False, True}
        # Runs of both kinds, preempted between two of their references:
        # a hand-off to another CPU where the next reference of the CPU
        # handing off is not the first of an op.
        starts = {}
        for cpu in {cpu for cpu, _, _, _ in fused_log}:
            ops = list(coalesce_stream(workload.stream(cpu)))
            assert any(op[0] == OP_RUN and len(set(run_flags(op)[4])) == 2
                       for op in ops)
            refs, starts[cpu] = 0, set()
            for op in ops:
                if op[0] != OP_COMPUTE:
                    starts[cpu].add(refs)
                    refs += len(expand_op(op))
            starts[cpu].add(refs)                   # the CPU is done
        done = dict.fromkeys(starts, 0)
        mid_op = 0
        for (cpu, *_), (nxt, *_) in zip(fused_log, fused_log[1:]):
            done[cpu] += 1
            if nxt != cpu and done[cpu] not in starts[cpu]:
                mid_op += 1
        assert mid_op > 0

    def test_run_preempted_by_a_pause_resumes_mid_run(self):
        """A pause window requeues a CPU at its end, past the clock it
        handed off with; a CPU stopped inside a run op resumes there, at
        the later key."""
        plain = FaultInjector(PAUSE)
        singles, single_log, _ = _logged_run(False, faults=plain)
        resumes = []
        injector = _watch_resumes(FaultInjector(PAUSE), resumes)
        fused, fused_log, workload = _logged_run(True, faults=injector)
        assert fused == singles
        assert fused_log == single_log
        assert injector.stats.to_dict() == plain.stats.to_dict()
        late_mid_run = [
            (cpu, refs) for cpu, refs, late in resumes
            if late and refs not in _op_starts(workload, cpu)]
        assert late_mid_run


#: Node 1 (CPUs 2 and 3) stalls for a window that opens while one of
#: its CPUs is inside a run op (the run is 671,508 cycles unperturbed).
PAUSE = FaultPlan().pause_node(1, start=350_000, end=370_000)


def _op_starts(workload, cpu):
    """The reference counts at which ``cpu``'s fused ops start."""
    refs, starts = 0, {0}
    for op in coalesce_stream(workload.stream(cpu)):
        if op[0] != OP_COMPUTE:
            refs += len(expand_op(op))
        starts.add(refs)
    return starts


def _watch_resumes(injector, resumes):
    """Wrap ``injector.admit`` to log each CPU's first key after a
    hand-off as ``(cpu, references done, later than its clock)``.

    A hand-off pushes ``clock << shift | cpu``; the key that comes back
    for the CPU is later only if a pause requeued it.  The machine binds
    ``admit`` when it is built, so this wraps it before."""
    admit = injector.admit
    handed_off = {}

    def watched(pop, heap, *item):
        shift = injector._key_shift
        mask = (1 << shift) - 1
        if item:
            cpu = item[0] & mask
            stats = injector._machine.cpus[cpu].stats
            handed_off[cpu] = (item[0] >> shift, stats.reads + stats.writes)
        key = admit(pop, heap, *item)
        cpu = key & mask
        if cpu in handed_off:
            clock, refs = handed_off.pop(cpu)
            resumes.append((cpu, refs, key >> shift > clock))
        return key

    injector.admit = watched
    return injector


def _coalesce_refs(refs):
    """coalesce() over ``(OP_READ|OP_WRITE, addr)`` single ops, its
    chunks joined."""
    chunks = coalesce([addr for _kind, addr in refs],
                      [kind == OP_WRITE for kind, _addr in refs])
    return [op for chunk in chunks for op in chunk]


class TestCoalesce:
    def test_round_trip_is_identity(self):
        rng = random.Random(7)
        refs = []
        addr = 1000
        for _ in range(300):
            kind = OP_WRITE if rng.random() < 0.3 else OP_READ
            addr += rng.choice((0, 8, 8, 8, 64, -8))
            refs.append((kind, addr))
        fused = _coalesce_refs(refs)
        assert len(fused) < len(refs)  # something actually coalesced
        expanded = [single for op in fused for single in expand_op(op)]
        assert expanded == refs

    def test_lone_references_stay_single_ops(self):
        # No three of them evenly spaced: two references make no run.
        refs = [(OP_READ, 0), (OP_WRITE, 8), (OP_READ, 24)]
        assert _coalesce_refs(refs) == refs

    def test_constant_stride_becomes_one_run(self):
        refs = [(OP_READ, 100 + 32 * i) for i in range(8)]
        assert ([run_flags(op) for op in _coalesce_refs(refs)]
                == [(OP_RUN, 100, 32, 8, bytes(8))])

    def test_mixed_kinds_share_one_run(self):
        refs = [(OP_WRITE if i % 3 == 0 else OP_READ, 100 - 8 * i)
                for i in range(7)]
        assert ([run_flags(op) for op in _coalesce_refs(refs)]
                == [(OP_RUN, 100, -8, 7, b"\1\0\0\1\0\0\1")])


class TestDensePit:
    def test_dense_table_tracks_install_and_remove(self):
        pit = PageInformationTable(node_id=0, lines_per_page=8)
        entry = pit.install(frame=5, gpage=40, static_home=1,
                            dynamic_home=1, home_frame=None,
                            mode=PageMode.LANUMA)
        assert pit.entry_or_none(5) is entry
        assert pit.entry_or_none(6) is None
        pit.remove(5)
        assert pit.entry_or_none(5) is None

    def test_imaginary_frames_use_their_own_table(self):
        pit = PageInformationTable(node_id=0, lines_per_page=8)
        frame = IMAGINARY_BASE + 3
        entry = pit.install(frame=frame, gpage=41, static_home=1,
                            dynamic_home=1, home_frame=None,
                            mode=PageMode.LANUMA)
        assert pit.entry_or_none(frame) is entry
        assert pit.entry_or_none(3) is None  # real frame 3 unrelated
        pit.remove(frame)
        assert pit.entry_or_none(frame) is None


class TestLockTableFifo:
    def test_contended_handoff_is_fifo(self):
        table = LockTable(cost=2)
        assert table.acquire(9, cpu_id=0, now=10) == 12
        for waiter in (1, 2, 3):
            assert table.acquire(9, cpu_id=waiter, now=20) is None
        order = []
        holder = 0
        for _ in range(3):
            nxt, _when = table.release(9, holder, now=50)
            order.append(nxt)
            holder = nxt
        assert order == [1, 2, 3]
        assert table.release(9, holder, now=60) is None
