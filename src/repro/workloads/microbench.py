"""The memory-latency microbenchmark behind Table 1.

The paper measures uncontended miss latencies and paging overheads "by
a memory-latency microbenchmark".  Each Table 1 row here is a script of
``(cpu, address, write)`` steps, real warm-up references and then the
timed one, run on its own machine through the conformance driver
(:func:`repro.verify.runner.run_litmus`): the normal ``Machine.run``
path, under the value tap, the invariant walks, the SC checker and any
tracer.  A large gap before each reference keeps resources idle.
"""

from __future__ import annotations

from itertools import islice

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.latency import PAPER_TABLE1
from repro.sim.ops import OP_READ, OP_WRITE
from repro.workloads.base import Workload, barrier, compute

#: Cycles a CPU computes before each scripted reference, enough for any
#: resource to drain.
GAP = 100_000


def _microbench_config() -> MachineConfig:
    return MachineConfig(num_nodes=8, cpus_per_node=2, page_bytes=1024,
                         line_bytes=32, l1=CacheConfig(1024, 32, 2),
                         l2=CacheConfig(8192, 32, 4), tlb_entries=16)


class Table1Row(Workload):
    """One Table 1 row: a scripted workload that is its own scenario for
    :func:`~repro.verify.runner.run_litmus` (``name``, ``policy``,
    ``build_config()``, ``forbidden``, ``make_workload()``).

    ``script(row)`` returns the ``(cpu, vaddr, write)`` steps, the timed
    one last, once the regions exist.  Every CPU passes a barrier
    wherever the acting CPU changes; an ``access`` probe times each
    reference."""

    policy = "lanuma"
    #: No register outcome to judge; the SC checker and walks still run.
    forbidden = None

    def __init__(self, name: str, script, config=None, baseline=0) -> None:
        super().__init__()
        self.name = name
        self.script = script
        self.config = config or _microbench_config()
        #: Cycles of the timed reference the row does not count (the
        #: hit under a TLB reload, the miss after a page fault).
        self.baseline = baseline
        self.latencies: "list[int]" = []

    def build_config(self) -> MachineConfig:
        return self.config

    def make_workload(self) -> "Table1Row":
        """The row itself, its latencies cleared for a fresh run."""
        self.latencies = []
        return self

    @property
    def value(self) -> int:
        """The row's cycles: the timed reference's less the baseline."""
        return self.latencies[-1] - self.baseline

    def setup(self, layout, num_cpus: int) -> None:
        page = self.config.page_bytes
        # One large shared segment; gpage g is homed at node g % N.
        shared = layout.attach_shared(key=9001, size_bytes=256 * page)
        self.shared, self.gpage_base = shared.vbase, shared.gpage_base
        self.private = layout.add_private(64 * page).vbase
        self.home_of = layout.ipc.home_of
        self.steps = self.script(self)

    def generator(self, cpu_id: int, num_cpus: int):
        acting = self.steps[0][0]
        for bid, (cpu, vaddr, write) in enumerate(self.steps):
            if cpu != acting:
                acting = cpu
                yield barrier(bid)
            if cpu == cpu_id:
                yield compute(GAP)
                yield (OP_WRITE if write else OP_READ, vaddr)

    def add_probes(self, machine) -> None:
        """Machine hook: time every reference."""
        machine.probes.add("access", self._time)

    def _time(self, call, cpu, vaddr: int, is_write: bool, now: int) -> int:
        end = call(cpu, vaddr, is_write, now)
        self.latencies.append(end - now)
        return end

    def cpu(self, node_id: int) -> int:
        """Global index of a node's first CPU."""
        return node_id * self.config.cpus_per_node

    def private_line(self, page: int, line: int = 0) -> int:
        """Virtual address of a line of the private region."""
        cfg = self.config
        return self.private + page * cfg.page_bytes + line * cfg.line_bytes

    def shared_line(self, home: int, line: int, skip: int = 0) -> int:
        """Virtual address of a line of the ``skip``-th shared page homed
        at node ``home``."""
        cfg = self.config
        homed = (i for i in range(256)
                 if self.home_of(self.gpage_base + i) == home)
        page = next(islice(homed, skip, None))
        return self.shared + page * cfg.page_bytes + line * cfg.line_bytes


def _l2_hit(w):
    # Two same-set lines of other pages evict the target from the 2-way
    # L1; re-reading it hits in L2.
    return [(0, w.private_line(p), False) for p in (0, 1, 2, 1, 2, 0)]


def _local_memory(w):
    return [(0, w.private_line(3, line), False) for line in (0, 1)]


def _remote_clean(w):
    # The client faults the page in; a node-2 read warms the home's
    # directory cache entry.
    line = w.shared_line(1, 1)
    return [(w.cpu(0), w.shared_line(1, 0), False), (w.cpu(2), line, False),
            (w.cpu(0), line, False)]


def _two_party_modified(w):
    # The home's write invalidates the client's copy.
    line = w.shared_line(2, 2)
    return [(w.cpu(0), line, False), (w.cpu(2), line, True),
            (w.cpu(0), line, False)]


def _three_party_modified(w):
    # The requester's first read faults the page in.
    line = w.shared_line(3, 4)
    return [(w.cpu(4), line, True), (w.cpu(5), w.shared_line(3, 5), False),
            (w.cpu(5), line, False)]


def _two_party_write_shared(w):
    line = w.shared_line(6, 6)
    return [(w.cpu(0), line, False), (w.cpu(0), line, True)]


def _tlb_miss(w):
    # More pages than the TLB holds, each at its own line so the first
    # page's line stays cached: re-reading it reloads only the TLB.
    cfg = w.config
    pages = [w.private_line(8 + p, p % cfg.lines_per_page)
             for p in range(cfg.tlb_entries + 4)]
    return [(0, vaddr, False) for vaddr in pages + [w.private_line(8)]]


def _fault_local(w):
    return [(0, w.private_line(40), False)]


def _fault_remote(w):
    # A node-2 read warms the home's directory cache entry.
    line = w.shared_line(1, 8, skip=8)
    return [(w.cpu(2), line, False), (w.cpu(0), line, False)]


def write_shared_row(extra_sharers: int,
                     config: "MachineConfig | None" = None) -> Table1Row:
    """The (3+n)-party write, ``n = extra_sharers``: node 0 and ``1 + n``
    other nodes read a line homed at node 7, then node 0 writes it."""
    def script(w):
        line = w.shared_line(7, 7)
        readers = [n for n in range(1, w.config.num_nodes) if n != 7]
        return ([(w.cpu(n), line, False)
                 for n in [0] + readers[:1 + extra_sharers]]
                + [(w.cpu(0), line, True)])
    return Table1Row("write_shared_base" if extra_sharers == 0
                     else "write_shared+%d" % extra_sharers, script, config)


def table1_rows(config: "MachineConfig | None" = None) -> "list[Table1Row]":
    """Every row :func:`run_microbenchmark` runs, in Table 1 order; the
    (3+n)-party write runs bare and with two extra sharers."""
    cfg = config or _microbench_config()
    lat = cfg.latency
    return [Table1Row("l2_hit", _l2_hit, cfg),
            Table1Row("local_memory", _local_memory, cfg),
            Table1Row("remote_clean", _remote_clean, cfg),
            Table1Row("2party_modified", _two_party_modified, cfg),
            Table1Row("3party_modified", _three_party_modified, cfg),
            Table1Row("2party_write_shared", _two_party_write_shared, cfg),
            write_shared_row(0, cfg), write_shared_row(2, cfg),
            Table1Row("tlb_miss", _tlb_miss, cfg, lat.l1_hit),
            Table1Row("fault_local", _fault_local, cfg,
                      lat.expected_local_memory),
            Table1Row("fault_remote", _fault_remote, cfg,
                      lat.expected_remote_clean)]


def run_microbenchmark(config: "MachineConfig | None" = None) -> "dict[str, int]":
    """Measure every Table 1 row; returns ``{row_name: cycles}``.  A row
    whose run is not ``COMPLETED_SC`` is a bug, not a number: it raises."""
    # Imported here, not by every launch that imports the harness's
    # tables (about 11 ms).
    from repro.verify.runner import Verdict, run_litmus
    measured = {}
    for row in table1_rows(config):
        result = run_litmus(row)
        if result.verdict != Verdict.COMPLETED_SC:
            raise RuntimeError("Table 1 row " + result.describe())
        measured[row.name] = row.value
    measured["write_shared_per_sharer"] = (
        measured["write_shared+2"] - measured["write_shared_base"]) // 2
    return {row: measured[row] for row in PAPER_TABLE1}
