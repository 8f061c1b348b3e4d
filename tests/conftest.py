"""Shared fixtures and the crafted-access harness for protocol tests."""

from __future__ import annotations

import pytest

from repro.mem.cache import LineState
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine
from repro.sim.ops import OP_READ, OP_READ_RUN, OP_WRITE, OP_WRITE_RUN

GAP = 1_000_000


# The machine and CacheHierarchy work inline on a cache's ``flat`` dict
# and per-set ``_sets`` LRU lists, a TLB's ``_map`` and a node memory's
# ``port``; these helpers spell out the same operations for tests and
# reference models.

def lookup(cache, line):
    """State of ``line`` in one cache level; a hit moves the line to
    the end of its set's LRU list, as the machine's reference path
    does."""
    state = cache.flat.get(line)
    if state is None:
        return LineState.INVALID
    lru = cache._sets[line % cache.num_sets]
    if lru[-1] != line:
        lru.remove(line)
        lru.append(line)
    return state


def insert(cache, line, state):
    """Install a missing ``line``; returns the evicted ``(line, state)``
    if its set was full (the least recently used line), else ``None``."""
    lru = cache._sets[line % cache.num_sets]
    victim = None
    if len(lru) >= cache.associativity:
        vline = lru.pop(0)
        victim = (vline, cache.flat.pop(vline))
    lru.append(line)
    cache.flat[line] = state
    return victim


def remove(cache, line):
    """Drop ``line`` from one level; returns its previous state
    (INVALID if absent)."""
    state = cache.flat.pop(line, None)
    if state is None:
        return LineState.INVALID
    cache._sets[line % cache.num_sets].remove(line)
    return state


def memory_read(memory, now):
    """Uncached line read from a node's DRAM at the latency model's
    ``local_memory``; returns the completion time."""
    return memory.port.acquire(now, memory.lat.local_memory)


def event_counts(sink):
    """Retained-event counts of an ``EventSink`` by kind, plus its
    ``dropped`` count."""
    counts = {}
    for event in sink.events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    counts["dropped"] = sink.dropped
    return counts


def detach(collector, machine):
    """Undo ``collector.attach(machine)``: remove its probes, so nothing
    of the machine records into it any more."""
    for point, probe in collector._probes():
        machine.probes.remove(point, probe)


def tlb_lookup(tlb, vpage):
    """Frame backing ``vpage``, or ``None`` on a TLB miss; a hit makes
    the page MRU and refreshes the memo, as the machine's reference
    path does."""
    frame = tlb._map.get(vpage)
    if frame is None:
        return None
    tlb._map.move_to_end(vpage)
    tlb.last_vpage = vpage
    tlb.last_frame = frame
    return frame


def tlb_flush(tlb):
    """Drop every translation."""
    tlb.last_vpage = -1
    tlb._map.clear()


def holders(presence, line):
    """Local CPU ids whose bits are set in ``line``'s presence mask."""
    mask = presence._holders.get(line, 0)
    return {cid for cid in range(mask.bit_length()) if mask >> cid & 1}


def expand_op(op):
    """Expand one op into its per-reference equivalent (a list of ops).

    Run ops unroll into ``count`` single-reference ops; every other op
    is returned as-is.  The machine expands runs inline; the block-op
    equivalence tests compare against this reference expansion.
    """
    kind = op[0]
    if kind == OP_READ_RUN or kind == OP_WRITE_RUN:
        single = OP_READ if kind == OP_READ_RUN else OP_WRITE
        _, base, stride, count = op
        return [(single, base + i * stride) for i in range(count)]
    return [op]


def probe(h, line):
    """Where ``line`` lives in cache hierarchy ``h``, as the machine's
    reference path finds it: ('l1'|'l2'|'miss', state), an L2 hit
    promoted into L1."""
    state = lookup(h.l1, line)
    if state != LineState.INVALID:
        return "l1", state
    state = lookup(h.l2, line)
    if state == LineState.INVALID:
        return "miss", state
    h._promote_to_l1(line, state)
    return "l2", state


def protocol_config(**overrides) -> MachineConfig:
    """A 4-node machine with small caches for protocol-level tests."""
    cfg = MachineConfig(
        num_nodes=4,
        cpus_per_node=2,
        page_bytes=256,
        line_bytes=32,
        l1=CacheConfig(256, 32, 2),
        l2=CacheConfig(512, 32, 2),
        tlb_entries=32,
        directory_cache_entries=64,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class Harness:
    """Drives crafted references through a machine for protocol tests.

    Accesses are spaced ``GAP`` cycles apart so every measurement is
    uncontended; state-inspection helpers expose the PIT, tags and
    directory for assertions.
    """

    def __init__(self, policy: str = "scoma", config: "MachineConfig | None" = None,
                 pages: int = 32, **machine_kwargs) -> None:
        self.machine = Machine(config or protocol_config(), policy=policy,
                               **machine_kwargs)
        self.clock = 0
        self.region = self.machine.layout.attach_shared(
            key=1, size_bytes=pages * self.machine.config.page_bytes)
        self.private = self.machine.layout.add_private(
            8 * self.machine.config.page_bytes)

    # -- driving ---------------------------------------------------------

    def access(self, cpu_index: int, vaddr: int, write: bool = False) -> int:
        self.clock += GAP
        cpu = self.machine.cpus[cpu_index]
        end = self.machine._access(cpu, vaddr, write, self.clock)
        return end - self.clock

    def read(self, cpu: int, vaddr: int) -> int:
        return self.access(cpu, vaddr, write=False)

    def write(self, cpu: int, vaddr: int) -> int:
        return self.access(cpu, vaddr, write=True)

    # -- addressing ------------------------------------------------------

    def cpu_on_node(self, node_id: int, local: int = 0) -> int:
        return node_id * self.machine.config.cpus_per_node + local

    def vaddr(self, page_index: int, line_in_page: int = 0) -> int:
        cfg = self.machine.config
        return (self.region.vbase + page_index * cfg.page_bytes
                + line_in_page * cfg.line_bytes)

    def page_homed_at(self, node_id: int, skip: int = 0) -> int:
        base = self.region.gpage_base
        count = 0
        for i in range(64):
            if self.machine.static_home_of(base + i) == node_id:
                if count == skip:
                    return i
                count += 1
        raise RuntimeError("no page homed at node %d" % node_id)

    # -- inspection ------------------------------------------------------

    def gpage(self, page_index: int) -> int:
        return self.region.gpage_base + page_index

    def node(self, node_id: int):
        return self.machine.nodes[node_id]

    def entry_at(self, node_id: int, page_index: int):
        entry = self.node(node_id).pit.by_gpage(self.gpage(page_index))
        self.node(node_id).pit.lookups -= 1
        self.node(node_id).pit.hash_lookups -= 1
        return entry

    def dir_line(self, page_index: int, lip: int):
        gpage = self.gpage(page_index)
        home = self.machine.nodes[self.machine.dynamic_home_of(gpage)]
        return home.directory.page(gpage).lines[lip]


@pytest.fixture
def harness():
    return Harness()


@pytest.fixture
def lanuma_harness():
    return Harness(policy="lanuma")
