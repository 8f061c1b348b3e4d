"""Statistics collected during a simulation run.

The counters here are exactly the quantities the paper reports:

* execution time (cycles of the parallel phase) — Figure 7,
* page frames allocated and per-frame utilization — Table 3,
* remote misses that fetch data from a remote node — Tables 4 and 5,
* client page-outs — Tables 4 and 5,

plus supporting counters (faults, PIT traffic, migrations) used by the
extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


#: Field names per dataclass, read once: ``fields()`` rebuilds its
#: tuple on every call.
_FIELD_NAMES: "dict[type, tuple[str, ...]]" = {}


def field_dict(obj) -> "dict[str, object]":
    """``dataclasses.asdict`` for a dataclass of plain-valued fields.

    One shallow dict in field order, without ``asdict``'s recursive
    deep copy of every value (the stats and config wire formats are
    built per run, per worker handoff and per cache key)."""
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return {name: getattr(obj, name) for name in names}


@dataclass
class NodeStats:
    """Per-node counters."""

    node_id: int

    # Paging.
    page_faults_local_home: int = 0
    page_faults_remote_home: int = 0
    client_page_outs: int = 0
    home_page_outs: int = 0
    mode_demotions: int = 0      # S-COMA frame converted to LA-NUMA mode
    mode_promotions: int = 0     # LA-NUMA page converted back to S-COMA

    # Frames.
    frames_allocated: int = 0            # cumulative distinct allocations
    scoma_client_frames_peak: int = 0    # peak client S-COMA frames in use
    imaginary_frames_allocated: int = 0

    # Coherence.
    remote_misses: int = 0       # misses serviced with data from a remote node
    remote_upgrades: int = 0     # ownership grants that moved no data
    local_misses: int = 0        # misses serviced by local memory/page cache
    writebacks_remote: int = 0   # dirty lines written back to a remote home
    invalidations_received: int = 0
    interventions_received: int = 0

    # PIT.
    pit_lookups: int = 0
    pit_hash_lookups: int = 0

    # Migration (section 3.5).
    homes_migrated_in: int = 0
    forwarded_requests: int = 0

    # Memory firewall (section 3.2).
    wild_writes_blocked: int = 0


@dataclass
class CpuStats:
    """Per-CPU counters."""

    cpu_id: int
    references: int = 0
    reads: int = 0
    writes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    tlb_misses: int = 0
    barrier_waits: int = 0
    lock_acquires: int = 0
    finish_time: int = 0


@dataclass
class MachineStats:
    """Machine-wide statistics for one run."""

    nodes: "list[NodeStats]" = field(default_factory=list)
    cpus: "list[CpuStats]" = field(default_factory=list)

    #: Execution time of the run = max CPU finish time (cycles).
    execution_cycles: int = 0

    #: (frame-utilization bookkeeping) total allocated frames and, for
    #: each, how many of its lines were ever touched.  Filled in by the
    #: machine at the end of a run.
    frames_allocated_total: int = 0
    touched_line_fraction_sum: float = 0.0

    directory_cache_hits: int = 0
    directory_cache_misses: int = 0

    @property
    def remote_misses(self) -> int:
        """Machine-wide remote misses (Tables 4/5)."""
        return sum(n.remote_misses for n in self.nodes)

    @property
    def client_page_outs(self) -> int:
        """Machine-wide client page-outs (Tables 4/5)."""
        return sum(n.client_page_outs for n in self.nodes)

    @property
    def page_faults(self) -> int:
        """Machine-wide page faults (local + remote home)."""
        return sum(n.page_faults_local_home + n.page_faults_remote_home
                   for n in self.nodes)

    @property
    def average_utilization(self) -> float:
        """Average fraction of touched lines per allocated frame (Table 3)."""
        if not self.frames_allocated_total:
            return 0.0
        return self.touched_line_fraction_sum / self.frames_allocated_total

    @property
    def references(self) -> int:
        """Machine-wide memory references executed."""
        return sum(c.references for c in self.cpus)

    def to_dict(self) -> "dict[str, object]":
        """Every counter as nested plain dicts.

        All fields are ints/floats, so the result survives JSON (and
        pickle) byte-exactly; this is the wire format parallel campaign
        workers return and the result cache stores.  Invert with
        :meth:`from_dict`.
        """
        return {
            "nodes": [field_dict(n) for n in self.nodes],
            "cpus": [field_dict(c) for c in self.cpus],
            "execution_cycles": self.execution_cycles,
            "frames_allocated_total": self.frames_allocated_total,
            "touched_line_fraction_sum": self.touched_line_fraction_sum,
            "directory_cache_hits": self.directory_cache_hits,
            "directory_cache_misses": self.directory_cache_misses,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "MachineStats":
        """Rebuild machine statistics from :meth:`to_dict` output."""
        return cls(
            nodes=[NodeStats(**n) for n in data["nodes"]],
            cpus=[CpuStats(**c) for c in data["cpus"]],
            execution_cycles=data["execution_cycles"],
            frames_allocated_total=data["frames_allocated_total"],
            touched_line_fraction_sum=data["touched_line_fraction_sum"],
            directory_cache_hits=data["directory_cache_hits"],
            directory_cache_misses=data["directory_cache_misses"],
        )

    def summary(self) -> "dict[str, float]":
        """A flat dict of headline numbers, for reports and tests."""
        return {
            "execution_cycles": self.execution_cycles,
            "references": self.references,
            "remote_misses": self.remote_misses,
            "client_page_outs": self.client_page_outs,
            "page_faults": self.page_faults,
            "frames_allocated": self.frames_allocated_total,
            "average_utilization": round(self.average_utilization, 3),
        }
