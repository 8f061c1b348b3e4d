"""Water kernels (SPLASH WATER-NSQUARED and WATER-SPATIAL).

Both simulate liquid water molecules under an O(n^2) (nsquared) or
cell-list (spatial) force evaluation.  Per timestep:

1. *intra*-molecule computation: each CPU reads/writes its own
   molecules (private-ish traffic, good locality);
2. *inter*-molecule forces: for each pair within the cutoff, read both
   molecules and accumulate into a private scratch; the accumulated
   force is flushed into the partner molecule under its lock (the
   SPLASH per-molecule lock discipline);
3. update: each CPU integrates its own molecules.

``WaterNsqWorkload`` evaluates all O(n^2 / 2) pairs;
``WaterSpatialWorkload`` bins molecules into cells at setup (for real)
and evaluates only pairs in neighbouring cells.

Paper data sets: 512 molecules, 3 iterations for both.  Defaults here:
256 (nsquared) / 512 (spatial) molecules, 2 iterations.
"""

from __future__ import annotations

from repro.workloads.base import (PrivateArray, SharedArray, Workload,
                                  barrier, coalesce_stream, compute,
                                  lock, unlock)
from repro.workloads.rng import RandomState

MOLECULE_BYTES = 128  # positions/velocities/forces of the 3 atoms
FORCE_BYTES = 32


class _WaterBase(Workload):
    """Shared machinery for the two water variants."""

    def __init__(self, molecules: int, iterations: int, seed: int) -> None:
        super().__init__()
        self.n = molecules
        self.iterations = iterations
        self.seed = seed
        self.problem = "%d molecules, %d iterations" % (molecules, iterations)

    def setup(self, layout, num_cpus: int) -> None:
        self.molecules = SharedArray(layout, key=701, num_elems=self.n,
                                     elem_bytes=MOLECULE_BYTES)
        self.forces = SharedArray(layout, key=702, num_elems=self.n,
                                  elem_bytes=FORCE_BYTES)
        self.scratch = [PrivateArray(layout, 32, 32) for _ in range(num_cpus)]
        self._pairs_by_cpu: "list[list[tuple[int, int]]]" = []

    def _partition_pairs(self, pairs: "list[tuple[int, int]]",
                         num_cpus: int) -> None:
        """Deal pairs round-robin (the SPLASH interleaved allocation)."""
        self._pairs_by_cpu = [pairs[c::num_cpus] for c in range(num_cpus)]

    def generator(self, cpu_id: int, num_cpus: int):
        # Run-coalesced view of the kernel's stream: op-for-op
        # identical after expansion (see coalesce_stream).
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        molecules, forces = self.molecules, self.forces
        scratch = self.scratch[cpu_id]
        mine = self.block_range(self.n, cpu_id, num_cpus)
        pairs = self._pairs_by_cpu[cpu_id]
        bid = 0
        for _ in range(self.iterations):
            # 1. Intra-molecule work.
            for mol in mine:
                yield molecules.read(mol)
                yield compute(20)
                yield molecules.write(mol)
            yield barrier(bid)
            bid += 1
            # 2. Inter-molecule forces.
            for i, j in pairs:
                yield molecules.read(i)
                yield molecules.read(j)
                yield compute(40)
                yield scratch.write(i % 32)
            # Flush accumulated forces under per-molecule locks.  Each
            # CPU starts its sweep at a different offset (as SPLASH
            # water does) so the per-molecule locks don't convoy.
            touched = sorted({m for pair in pairs for m in pair})
            start = (cpu_id * len(touched)) // num_cpus
            for mol in touched[start:] + touched[:start]:
                yield scratch.read(mol % 32)
                yield lock(mol)
                yield forces.read(mol)
                yield forces.write(mol)
                yield unlock(mol)
            yield barrier(bid)
            bid += 1
            # 3. Update owned molecules.
            for mol in mine:
                yield forces.read(mol)
                yield molecules.read(mol)
                yield compute(15)
                yield molecules.write(mol)
            yield barrier(bid)
            bid += 1


class WaterNsqWorkload(_WaterBase):
    """All-pairs (O(n^2)) water simulation."""

    name = "water-nsq"
    description = "O(n^2) water molecule simulation"
    paper_problem = "512 molecules, 3 iterations"

    def __init__(self, molecules: int = 256, iterations: int = 2,
                 seed: int = 31337) -> None:
        super().__init__(molecules, iterations, seed)

    def setup(self, layout, num_cpus: int) -> None:
        super().setup(layout, num_cpus)
        pairs = [(i, j) for i in range(self.n)
                 for j in range(i + 1, self.n)]
        self._partition_pairs(pairs, num_cpus)


class WaterSpatialWorkload(_WaterBase):
    """Cell-list (spatial) water simulation."""

    name = "water-spa"
    description = "O(n) spatial water molecule simulation"
    paper_problem = "512 molecules, 3 iterations"

    def __init__(self, molecules: int = 512, iterations: int = 2,
                 cells_per_dim: int = 4, cutoff_pairs_cap: int = 40,
                 seed: int = 90210) -> None:
        super().__init__(molecules, iterations, seed)
        self.cells_per_dim = cells_per_dim
        self.cutoff_pairs_cap = cutoff_pairs_cap

    def setup(self, layout, num_cpus: int) -> None:
        super().setup(layout, num_cpus)
        d = self.cells_per_dim
        pos = RandomState(self.seed).random_sample(self.n * 3)
        members: "dict[int, list[int]]" = {}
        for mol in range(self.n):
            c = 0
            for p in pos[3 * mol:3 * mol + 3]:
                c = c * d + min(int(p * d), d - 1)
            members.setdefault(c, []).append(mol)
        pairs: "list[tuple[int, int]]" = []
        per_mol = {m: 0 for m in range(self.n)}
        cap = self.cutoff_pairs_cap
        for c, mols in sorted(members.items()):
            cx, cy, cz = c // (d * d), (c // d) % d, c % d
            neighbours: "list[int]" = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        x, y, z = cx + dx, cy + dy, cz + dz
                        if 0 <= x < d and 0 <= y < d and 0 <= z < d:
                            neighbours.extend(
                                members.get(x * d * d + y * d + z, ()))
            for i in mols:
                for j in neighbours:
                    if j > i and per_mol[i] < cap and per_mol[j] < cap:
                        pairs.append((i, j))
                        per_mol[i] += 1
                        per_mol[j] += 1
        self._partition_pairs(pairs, num_cpus)
