"""Machine configuration for the simulated PRISM system.

The paper simulates a 32-processor machine built from eight 4-way SMP
nodes (PowerPC processors, 4096-byte pages, 8-KB L1 / 32-KB L2 caches
scaled down to expose capacity effects).  Because this reproduction runs
the memory system in pure Python, the default configuration scales the
caches, page size and problem sizes down *together* so that the
working-set : cache : page-cache ratios stay in the paper's regime (see
DESIGN.md section 2).  Every parameter is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.latency import LatencyModel, paper_latency_model
from repro.sim.stats import field_dict


@dataclass
class CacheConfig:
    """Geometry of one level of a set-associative cache."""

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache size %d is not a multiple of line*assoc (%d*%d)"
                % (self.size_bytes, self.line_bytes, self.associativity))

    @property
    def num_lines(self) -> int:
        """Total cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of associativity sets."""
        return self.num_lines // self.associativity

    def to_dict(self) -> "dict[str, int]":
        """The geometry as a plain dict (JSON-safe)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: "dict[str, int]") -> "CacheConfig":
        """Rebuild a geometry from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class MachineConfig:
    """Full configuration of a simulated PRISM machine."""

    num_nodes: int = 8
    cpus_per_node: int = 4

    page_bytes: int = 1024
    line_bytes: int = 32

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024, 32, 2))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(8192, 32, 4))

    tlb_entries: int = 64

    #: Entries in the home directory cache (the paper models an 8K-entry
    #: cache in front of a DRAM directory).
    directory_cache_entries: int = 8192

    #: SRAM PIT by default (2 cycles).  Section 4.3 studies a DRAM PIT
    #: (10 cycles); set ``latency.pit_access = 10`` for that experiment.
    latency: LatencyModel = field(default_factory=paper_latency_model)

    #: Section 4.3 mitigation: include client frame numbers in the
    #: directory entries, so invalidations and interventions arriving at
    #: client nodes use the fast PIT path instead of the hash search —
    #: "at the price of increased directory sizes".
    directory_caches_client_frames: bool = False

    #: Per-node S-COMA page-cache capacity, in client frames.  ``None``
    #: means unbounded (the paper's SCOMA "infinite page cache").
    page_cache_frames: "int | None" = None

    #: Maximum real frames per node for *all* allocations.  ``None``
    #: means unbounded; only the page cache limit above is enforced in
    #: the paper's experiments.
    total_frames_per_node: "int | None" = None

    #: Enable the home-page-status flag optimization (section 3.3): a
    #: client that paged a page in before skips the home round-trip on
    #: repeat faults.  The paper *proposes* this optimization; Table 1
    #: charges the full remote cost per client fault, so it is off by
    #: default and studied separately in the ablation benchmarks.
    home_status_flags: bool = False

    #: Enable lazy home migration (section 3.5).  Off for the paper's
    #: main experiments.
    enable_migration: bool = False
    #: Remote-miss count at which the home considers migrating a page.
    migration_threshold: int = 64

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.cpus_per_node < 1:
            raise ValueError("need at least one cpu per node")
        if self.page_bytes % self.line_bytes:
            raise ValueError("page size must be a multiple of the line size")
        for level, cache in (("l1", self.l1), ("l2", self.l2)):
            if cache.line_bytes != self.line_bytes:
                raise ValueError(
                    "%s line size %d does not match machine line size %d"
                    % (level, cache.line_bytes, self.line_bytes))
        if self.l2.size_bytes < self.l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1 (inclusive)")

    @property
    def num_cpus(self) -> int:
        """Total processors (nodes x CPUs per node)."""
        return self.num_nodes * self.cpus_per_node

    @property
    def lines_per_page(self) -> int:
        """Cache lines per page (the fine-grain tag count)."""
        return self.page_bytes // self.line_bytes

    def with_policy_limits(self, page_cache_frames: "int | None") -> "MachineConfig":
        """Copy of this config with a different page-cache capacity."""
        return replace(self, page_cache_frames=page_cache_frames)

    def to_dict(self) -> "dict[str, object]":
        """The full configuration as nested plain dicts (JSON-safe).

        Every field — including the nested :class:`CacheConfig` levels
        and the :class:`~repro.sim.latency.LatencyModel` — flattens to
        ints/bools/None, so the result round-trips through JSON exactly.
        Used for the experiment-cache key, worker handoff and
        persistence; invert with :meth:`from_dict`.
        """
        data = field_dict(self)
        data["l1"] = self.l1.to_dict()
        data["l2"] = self.l2.to_dict()
        data["latency"] = self.latency.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "MachineConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        data = dict(data)
        data["l1"] = CacheConfig.from_dict(data["l1"])
        data["l2"] = CacheConfig.from_dict(data["l2"])
        data["latency"] = LatencyModel.from_dict(data["latency"])
        return cls(**data)


def default_config(**overrides) -> MachineConfig:
    """The scaled default machine: 8 nodes x 4 CPUs, 1KB L1 / 8KB L2."""
    return replace(MachineConfig(), **overrides) if overrides else MachineConfig()


def paper_scale_config(**overrides) -> MachineConfig:
    """Geometry matching the paper exactly: 4KB pages, 8KB L1 / 32KB L2.

    Usable, but an order of magnitude slower to simulate than
    :func:`default_config` because problem sizes must scale up with it.
    """
    cfg = MachineConfig(
        page_bytes=4096,
        line_bytes=32,
        l1=CacheConfig(8 * 1024, 32, 2),
        l2=CacheConfig(32 * 1024, 32, 4),
        tlb_entries=128,
    )
    return replace(cfg, **overrides) if overrides else cfg


def tiny_config(**overrides) -> MachineConfig:
    """A 2-node, 2-CPU machine for unit tests: tiny caches, tiny pages."""
    cfg = MachineConfig(
        num_nodes=2,
        cpus_per_node=2,
        page_bytes=256,
        line_bytes=32,
        l1=CacheConfig(256, 32, 2),
        l2=CacheConfig(512, 32, 2),
        tlb_entries=8,
        directory_cache_entries=64,
    )
    return replace(cfg, **overrides) if overrides else cfg
