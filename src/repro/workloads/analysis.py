"""Workload characterization.

Analyzes a workload's reference streams *without* running the machine:
footprints, shared fractions, read/write mix, sharing degree (how many
CPUs touch each shared page), and per-CPU balance.  Used by the test
suite to pin down each kernel's character, and useful when designing
new workloads (``python -m repro analyze <workload>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.ops import OP_BARRIER, OP_LOCK, OP_READ, OP_RUN, OP_WRITE


@dataclass
class WorkloadProfile:
    """Static profile of one workload at one CPU count."""

    name: str
    num_cpus: int
    page_bytes: int

    references: int = 0
    reads: int = 0
    writes: int = 0
    barriers: int = 0
    lock_acquires: int = 0

    shared_refs: int = 0
    private_refs: int = 0

    #: Distinct pages touched, by kind.
    shared_pages: int = 0
    private_pages: int = 0

    #: Distribution of sharing degree: how many CPUs reference each
    #: shared page (1 = effectively private data placed in a shared
    #: segment, num_cpus = fully shared).
    sharing_histogram: "dict[int, int]" = field(default_factory=dict)

    #: Pages written by more than one CPU (invalidation traffic risk).
    write_shared_pages: int = 0

    #: References of the busiest / laziest CPU (load balance).
    max_cpu_refs: int = 0
    min_cpu_refs: int = 0

    @property
    def shared_fraction(self) -> float:
        """Fraction of references to globally shared pages."""
        if not self.references:
            return 0.0
        return self.shared_refs / self.references

    @property
    def write_fraction(self) -> float:
        """Fraction of references that are stores."""
        if not self.references:
            return 0.0
        return self.writes / self.references

    @property
    def avg_sharing_degree(self) -> float:
        """Mean number of CPUs touching each shared page."""
        total = sum(self.sharing_histogram.values())
        if not total:
            return 0.0
        weighted = sum(degree * count
                       for degree, count in self.sharing_histogram.items())
        return weighted / total

    @property
    def imbalance(self) -> float:
        """max/min per-CPU reference ratio (1.0 = perfectly balanced)."""
        if not self.min_cpu_refs:
            return float("inf")
        return self.max_cpu_refs / self.min_cpu_refs

    def summary(self) -> "dict[str, object]":
        """The headline characterization numbers, flat."""
        return {
            "references": self.references,
            "shared_fraction": round(self.shared_fraction, 3),
            "write_fraction": round(self.write_fraction, 3),
            "shared_pages": self.shared_pages,
            "private_pages": self.private_pages,
            "avg_sharing_degree": round(self.avg_sharing_degree, 2),
            "write_shared_pages": self.write_shared_pages,
            "barriers": self.barriers,
            "lock_acquires": self.lock_acquires,
            "imbalance": round(self.imbalance, 2),
        }


def profile_workload(workload, num_cpus: int = 32,
                     page_bytes: int = 1024,
                     num_nodes: int = 8) -> WorkloadProfile:
    """Build a :class:`WorkloadProfile` by walking the generators."""
    ipc = GlobalIpcServer(num_nodes, page_bytes)
    layout = AddressSpaceLayout(ipc, page_bytes)
    workload.setup(layout, num_cpus)

    profile = WorkloadProfile(name=workload.name, num_cpus=num_cpus,
                              page_bytes=page_bytes)
    page_readers: "dict[int, set[int]]" = {}
    page_writers: "dict[int, set[int]]" = {}
    private_pages: "set[int]" = set()
    per_cpu_refs = []

    for cpu in range(num_cpus):
        refs = 0
        for op in workload.generator(cpu, num_cpus):
            kind = op[0]
            if kind == OP_RUN:
                _, vaddr, stride, count, writes, pos = op
                flags = writes[pos:pos + count]
            elif kind == OP_READ or kind == OP_WRITE:
                vaddr, stride, flags = op[1], 0, (kind == OP_WRITE,)
            else:
                profile.barriers += kind == OP_BARRIER and cpu == 0
                profile.lock_acquires += kind == OP_LOCK
                continue
            for write in flags:              # each reference, own flag
                refs += 1
                vpage = vaddr // page_bytes
                vaddr += stride
                gpage = layout.gpage_of(vpage)
                if write:
                    profile.writes += 1
                else:
                    profile.reads += 1
                if gpage is None:
                    profile.private_refs += 1
                    private_pages.add(vpage)
                else:
                    profile.shared_refs += 1
                    page_readers.setdefault(gpage, set()).add(cpu)
                    if write:
                        page_writers.setdefault(gpage, set()).add(cpu)
        per_cpu_refs.append(refs)

    profile.references = sum(per_cpu_refs)
    profile.max_cpu_refs = max(per_cpu_refs)
    profile.min_cpu_refs = min(per_cpu_refs)
    profile.shared_pages = len(page_readers)
    profile.private_pages = len(private_pages)
    for cpus in page_readers.values():
        degree = len(cpus)
        profile.sharing_histogram[degree] = (
            profile.sharing_histogram.get(degree, 0) + 1)
    profile.write_shared_pages = sum(
        1 for writers in page_writers.values() if len(writers) > 1)
    return profile
