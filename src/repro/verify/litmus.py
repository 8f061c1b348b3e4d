"""Litmus-test DSL and the bundled conformance suite.

A litmus test is a handful of named shared locations plus short
per-thread programs of loads, stores and delays, with an optional
*forbidden outcome* predicate over the values the loads observed.  The
classic shapes (message passing, store buffering, IRIW, coherence
read-read) all have outcomes that sequential consistency forbids; this
simulator resolves references atomically, so a correct machine must
never produce them — under *any* schedule perturbation.

Execution protocol (see :class:`LitmusWorkload`): every CPU first reads
every location once (the warm-up — it seeds SHARED copies machine-wide,
so a protocol that fails to invalidate leaves detectable stale copies),
then a global barrier, then the thread programs, then a final barrier.
Machine-wide invariants are checked at each barrier release and every
read's observed value is validated against the write serialization —
the forbidden predicates are a third, shape-specific net on top.

The bundled :data:`LITMUS_SUITE` covers S-COMA, LA-NUMA and CC-NUMA
modes, same-page and same-line fine-grain tag interactions, intra-node
sibling invalidation, lazy home migration and page-out pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.ops import OP_COMPUTE, OP_READ, OP_WRITE
from repro.workloads.base import SharedArray, Workload, barrier


def ld(loc: str) -> "tuple[str, str]":
    """A load of location ``loc`` (binds the next register)."""
    return ("ld", loc)


def st(loc: str, value: int) -> "tuple[str, str, int]":
    """A store of ``value`` to location ``loc``.

    ``value`` must be positive: 0 is reserved for the initial value of
    every location.
    """
    if value <= 0:
        raise ValueError("store values must be positive (0 = initial)")
    return ("st", loc, value)


def delay(cycles: int) -> "tuple[str, int]":
    """A local compute delay (widens or shifts the race window)."""
    return ("delay", cycles)


@dataclass(frozen=True)
class Thread:
    """One CPU's program: a tuple of :func:`ld`/:func:`st`/:func:`delay`
    ops, executed in order between the warm-up and final barriers."""

    ops: "tuple[tuple, ...]"

    def __init__(self, *ops) -> None:
        object.__setattr__(self, "ops", tuple(ops))

    @property
    def store_values(self) -> "tuple[int, ...]":
        """Planned store values, in program order."""
        return tuple(op[2] for op in self.ops if op[0] == "st")


@dataclass(frozen=True)
class LitmusTest:
    """One conformance scenario.

    ``forbidden`` takes the per-thread register tuples (one tuple of
    observed *litmus values* per thread, loads in program order) and
    returns True for an outcome sequential consistency forbids.  Tests
    without a meaningful shape predicate leave it None and rely on the
    generic value checker and invariant walks.

    ``loc_stride`` spaces the locations in the shared segment: one page
    apart by default (each location gets its own directory page and
    home), one line apart for same-page tag interactions, or less for
    same-line false-sharing shapes (those must not use ``forbidden`` —
    register extraction is per coherence unit, not per byte).
    """

    name: str
    description: str
    locations: "tuple[str, ...]"
    threads: "tuple[Thread, ...]"
    forbidden: "object" = None
    policy: str = "scoma"
    num_nodes: int = 4
    cpus_per_node: int = 1
    #: Explicit thread -> cpu_id placement; None spreads one thread per
    #: node (cpu 0 of node 0, cpu 0 of node 1, ...).
    placement: "tuple[int, ...] | None" = None
    #: Byte distance between consecutive locations; None = page_bytes.
    loc_stride: "int | None" = None
    #: MachineConfig field overrides (enable_migration, page caches...).
    config_overrides: "dict" = field(default_factory=dict)

    def __post_init__(self) -> None:
        for thread in self.threads:
            for op in thread.ops:
                if op[0] in ("ld", "st") and op[1] not in self.locations:
                    raise ValueError("%s: unknown location %r"
                                     % (self.name, op[1]))
        if len(self.cpu_of_thread()) != len(set(self.cpu_of_thread())):
            raise ValueError("%s: two threads share a CPU" % self.name)
        if max(self.cpu_of_thread()) >= self.num_cpus:
            raise ValueError("%s: placement exceeds %d CPUs"
                             % (self.name, self.num_cpus))

    @property
    def num_cpus(self) -> int:
        return self.num_nodes * self.cpus_per_node

    def cpu_of_thread(self) -> "tuple[int, ...]":
        """CPU id running each thread."""
        if self.placement is not None:
            return self.placement
        if len(self.threads) <= self.num_nodes:
            return tuple(i * self.cpus_per_node
                         for i in range(len(self.threads)))
        return tuple(range(len(self.threads)))

    def build_config(self) -> MachineConfig:
        """The tiny machine this test runs on."""
        cfg = MachineConfig(
            num_nodes=self.num_nodes,
            cpus_per_node=self.cpus_per_node,
            page_bytes=256,
            line_bytes=32,
            l1=CacheConfig(256, 32, 2),
            l2=CacheConfig(512, 32, 2),
            tlb_entries=8,
            directory_cache_entries=64,
            **self.config_overrides)
        return cfg


class LitmusWorkload(Workload):
    """Drives one :class:`LitmusTest` as a machine workload."""

    def __init__(self, test: LitmusTest) -> None:
        super().__init__()
        self.test = test
        self.name = "litmus:" + test.name
        self.arr = None
        self._addr = {}

    def setup(self, layout, num_cpus: int) -> None:
        test = self.test
        stride = (test.loc_stride if test.loc_stride is not None
                  else test.build_config().page_bytes)
        self.arr = SharedArray(layout, key=0x11734,
                               num_elems=len(test.locations),
                               elem_bytes=stride)
        self._addr = {loc: self.arr.addr(i)
                      for i, loc in enumerate(test.locations)}

    def generator(self, cpu_id: int, num_cpus: int):
        test = self.test
        addr = self._addr
        # Warm-up: every CPU reads every location once, seeding SHARED
        # copies machine-wide.  The runner skips these first
        # len(locations) reads per CPU when binding registers.
        for loc in test.locations:
            yield (OP_READ, addr[loc])
        yield barrier(0)
        program = dict(zip(test.cpu_of_thread(), test.threads))
        thread = program.get(cpu_id)
        if thread is not None:
            for op in thread.ops:
                if op[0] == "ld":
                    yield (OP_READ, addr[op[1]])
                elif op[0] == "st":
                    yield (OP_WRITE, addr[op[1]])
                else:
                    yield (OP_COMPUTE, op[1])
        yield barrier(1)


# ---------------------------------------------------------------------------
# The bundled suite.
# ---------------------------------------------------------------------------

def _mp_threads() -> "tuple[Thread, ...]":
    return (Thread(st("x", 1), st("flag", 1)),
            Thread(ld("flag"), ld("x")))


def _mp_forbidden(regs) -> bool:
    return regs[1] == (1, 0)


def _sb_forbidden(regs) -> bool:
    return regs[0] == (0,) and regs[1] == (0,)


def _iriw_forbidden(regs) -> bool:
    return regs[2] == (1, 0) and regs[3] == (1, 0)


def _corr_forbidden(regs) -> bool:
    return regs[1][1] < regs[1][0]


def _sibling_mp_forbidden(regs) -> bool:
    return (1, 0) in (regs[1], regs[2])


def _mp(name: str, policy: str, **kwargs) -> LitmusTest:
    return LitmusTest(
        name=name,
        description="message passing (%s): seeing the flag implies "
                    "seeing the data" % policy,
        locations=("x", "flag"),
        threads=_mp_threads(),
        forbidden=_mp_forbidden,
        policy=policy,
        **kwargs)


def _sb(name: str, policy: str, **kwargs) -> LitmusTest:
    return LitmusTest(
        name=name,
        description="store buffering (%s): both threads cannot miss "
                    "each other's store" % policy,
        locations=("x", "y"),
        threads=(Thread(st("x", 1), ld("y")),
                 Thread(st("y", 1), ld("x"))),
        forbidden=_sb_forbidden,
        policy=policy,
        **kwargs)


def _iriw(name: str, policy: str, **kwargs) -> LitmusTest:
    return LitmusTest(
        name=name,
        description="independent reads of independent writes (%s): the "
                    "two readers must agree on the write order" % policy,
        locations=("x", "y"),
        threads=(Thread(st("x", 1)),
                 Thread(st("y", 1)),
                 Thread(ld("x"), ld("y")),
                 Thread(ld("y"), ld("x"))),
        forbidden=_iriw_forbidden,
        policy=policy,
        **kwargs)


LITMUS_SUITE: "tuple[LitmusTest, ...]" = (
    # Classic shapes, one per page mode.
    _mp("mp_scoma", "scoma"),
    _mp("mp_lanuma", "lanuma"),
    _mp("mp_ccnuma", "ccnuma"),
    _sb("sb_scoma", "scoma"),
    _sb("sb_lanuma", "lanuma"),
    _iriw("iriw_scoma", "scoma"),
    _iriw("iriw_lanuma", "lanuma"),
    LitmusTest(
        name="corr_scoma",
        description="coherence read-read: two reads of one location "
                    "never observe writes out of order",
        locations=("x",),
        threads=(Thread(st("x", 1), delay(120), st("x", 2)),
                 Thread(ld("x"), delay(60), ld("x"))),
        forbidden=_corr_forbidden),
    # Timing-window variants: delays shift the race past the remote
    # fetch latency, so jitter lands hops on both sides of the window.
    LitmusTest(
        name="mp_delay_scoma",
        description="message passing with the store pair and load pair "
                    "pulled apart by compute delays",
        locations=("x", "flag"),
        threads=(Thread(st("x", 1), delay(400), st("flag", 1)),
                 Thread(ld("flag"), delay(150), ld("x"))),
        forbidden=_mp_forbidden),
    LitmusTest(
        name="sb_delay_scoma",
        description="store buffering with asymmetric delays between "
                    "the store and the load",
        locations=("x", "y"),
        threads=(Thread(st("x", 1), delay(250), ld("y")),
                 Thread(st("y", 1), delay(50), ld("x"))),
        forbidden=_sb_forbidden),
    # Fine-grain tag interactions: locations sharing one page (distinct
    # lines) and sharing one line (checker-only — registers are bound
    # per coherence unit, so the shape predicate does not apply).
    LitmusTest(
        name="mp_samepage_scoma",
        description="message passing with data and flag on distinct "
                    "lines of one page (per-line tags, one directory "
                    "page)",
        locations=("x", "flag"),
        threads=_mp_threads(),
        forbidden=_mp_forbidden,
        loc_stride=32),
    LitmusTest(
        name="mp_sameline_scoma",
        description="writer and reader racing on one cache line (false "
                    "sharing; generic value checker only)",
        locations=("x", "flag"),
        threads=_mp_threads(),
        loc_stride=8),
    # Intra-node sibling invalidation: writer and one reader share a
    # node (bus-level _invalidate_siblings), second reader is remote.
    LitmusTest(
        name="sibling_mp_scoma",
        description="message passing against a same-node sibling reader "
                    "and a remote reader",
        locations=("x", "flag"),
        threads=(Thread(st("x", 1), st("flag", 1)),
                 Thread(ld("flag"), ld("x")),
                 Thread(ld("flag"), ld("x"))),
        forbidden=_sibling_mp_forbidden,
        num_nodes=2,
        cpus_per_node=2,
        placement=(0, 1, 2)),
    LitmusTest(
        name="sibling_corw_scoma",
        description="same-node sibling reads a line its neighbour "
                    "rewrites (local bus upgrade path)",
        locations=("x",),
        threads=(Thread(st("x", 1), delay(80), st("x", 2)),
                 Thread(ld("x"), delay(40), ld("x"))),
        forbidden=_corr_forbidden,
        num_nodes=2,
        cpus_per_node=2,
        placement=(0, 1)),
    # Dynamic home migration: one remote node dominates traffic to a
    # page, forcing the home to migrate mid-program while others read
    # (stale-PIT requests exercise static-home forwarding).
    # The home-node writer repeatedly invalidates node 1's copy; node
    # 1's re-fetches dominate the page's requester counters, so the
    # home migrates (and ping-pongs) mid-test.  Node 2 reads late, off
    # a by-then-stale PIT entry, exercising static-home forwarding.
    LitmusTest(
        name="migration_race_scoma",
        description="home writer and remote reader ping-pong a page's "
                    "dynamic home while a third node reads through a "
                    "stale translation",
        locations=("x",),
        threads=(Thread(*[op for v in range(1, 9)
                          for op in (st("x", v), delay(100))]),
                 Thread(*[op for _ in range(8)
                          for op in (ld("x"), delay(100))]),
                 Thread(delay(6000), ld("x"), delay(800), ld("x"))),
        config_overrides={"enable_migration": True,
                          "migration_threshold": 3}),
    LitmusTest(
        name="migration_mp_scoma",
        description="message passing where the data page's home "
                    "migrates toward the polling reader mid-test",
        locations=("x", "flag"),
        threads=(Thread(*([op for v in range(1, 9)
                           for op in (st("x", v), delay(100))]
                          + [st("flag", 1)])),
                 Thread(*([op for _ in range(8)
                           for op in (ld("x"), delay(100))]
                          + [ld("flag"), ld("x")]))),
        forbidden=lambda regs: (regs[1][-2] == 1 and regs[1][-1] != 8),
        config_overrides={"enable_migration": True,
                          "migration_threshold": 3}),
    # Page-out pressure: a one-frame client page cache forces page-outs
    # (flush_client_page write-backs) between every location touch.
    LitmusTest(
        name="pageout_race_scoma",
        description="client page cache of one frame thrashes four "
                    "pages while a writer updates them",
        locations=("a", "b", "c", "d"),
        threads=(Thread(*[op for v in range(2)
                          for loc in ("a", "b", "c", "d")
                          for op in (st(loc, 4 * v + "abcd".index(loc) + 1),
                                     delay(30))]),
                 Thread(*[op for _ in range(2)
                          for loc in ("a", "b", "c", "d")
                          for op in (ld(loc), delay(45))])),
        num_nodes=2,
        config_overrides={"page_cache_frames": 1}),
    LitmusTest(
        name="pageout_mp_scoma",
        description="message passing across a page-out: the flag page "
                    "evicts the data page from the client cache",
        locations=("x", "flag"),
        threads=(Thread(st("x", 1), st("flag", 1)),
                 Thread(ld("flag"), ld("x"))),
        forbidden=_mp_forbidden,
        num_nodes=2,
        config_overrides={"page_cache_frames": 1}),
)


def suite_by_name() -> "dict[str, LitmusTest]":
    """The bundled suite, keyed by test name."""
    return {test.name: test for test in LITMUS_SUITE}
