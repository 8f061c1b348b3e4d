"""Barnes kernel (SPLASH-2 BARNES: hierarchical Barnes-Hut N-body).

Barnes-Hut computes gravitational forces by traversing a spatial tree:
nearby bodies are visited individually, distant regions are
approximated by their cells' centres of mass.  We reproduce that access
structure with a real spatial decomposition built at setup (uniform
grid binning): each body's interaction list contains the
individual bodies of its own and adjacent cells (irregular, scattered
reads across other CPUs' bodies) and the summarized cells for the rest
of space (heavily reused upper-"tree" data — the classic Barnes locality
that a page cache captures).

Each timestep: (1) cell-summary build — CPUs accumulate their bodies
into the shared cell array under per-cell locks; (2) barrier;
(3) force computation over the interaction lists with private
accumulation; (4) barrier; (5) body position/velocity update.

Paper data set: 8K particles, 4 iterations.  Default here: 2048
particles, 3 iterations.
"""

from __future__ import annotations

from repro.workloads.base import (PrivateArray, SharedArray, Workload,
                                  barrier, coalesce_stream, compute,
                                  lock, unlock)
from repro.workloads.rng import RandomState

BODY_BYTES = 64   # position + velocity + mass (2 cache lines)
ACC_BYTES = 32    # acceleration vector (1 cache line)
CELL_BYTES = 32   # centre of mass + total mass (1 cache line)


class BarnesWorkload(Workload):
    """Barnes-Hut N-body (see module docstring)."""

    name = "barnes"
    description = "Hierarchical Barnes-Hut N-body"
    paper_problem = "8K particles, 4 iterations"

    def __init__(self, bodies: int = 2048, iterations: int = 3,
                 cells_per_dim: int = 8, seed: int = 4242) -> None:
        super().__init__()
        if cells_per_dim % 2:
            raise ValueError("cells_per_dim must be even (supercell level)")
        self.n = bodies
        self.iterations = iterations
        self.cells_per_dim = cells_per_dim
        self.seed = seed
        self.problem = "%d particles, %d iterations" % (bodies, iterations)

    def setup(self, layout, num_cpus: int) -> None:
        n = self.n
        d = self.cells_per_dim
        self.num_cells = d * d * d
        self.bodies = SharedArray(layout, key=501, num_elems=n,
                                  elem_bytes=BODY_BYTES)
        self.accels = SharedArray(layout, key=502, num_elems=n,
                                  elem_bytes=ACC_BYTES)
        self.cells = SharedArray(layout, key=503, num_elems=self.num_cells,
                                 elem_bytes=CELL_BYTES)
        half = d // 2
        self.supercells = SharedArray(layout, key=504,
                                      num_elems=half * half * half,
                                      elem_bytes=CELL_BYTES)
        self.scratch = [PrivateArray(layout, 16, 32) for _ in range(num_cpus)]

        # Real spatial decomposition: cluster the bodies (Plummer-ish
        # clumping) and bin them into the uniform cell grid.
        rng = RandomState(self.seed)
        centers = rng.random_sample(8 * 3)
        picks = rng.randint(0, 8, n)
        noise = rng.randn(n * 3)
        cell_idx = []
        for body, pick in enumerate(picks):
            cell = 0
            for axis in range(3):
                p = (centers[3 * pick + axis]
                     + noise[3 * body + axis] * 0.08) % 1.0
                cell = cell * d + min(int(p * d), d - 1)
            cell_idx.append(cell)
        # Reorder bodies by cell (the spatial reordering real Barnes-Hut
        # codes perform): neighbours in space become neighbours in the
        # body array, which is what gives the page cache its locality.
        cell_idx.sort()
        self._cell_of_body = cell_idx

        # Bodies per cell, and each body's interaction list — the
        # Barnes-Hut opening criterion over two tree levels: individual
        # bodies from the 27-cell neighbourhood, mid-distance cells as
        # cell nodes, everything farther as supercell (parent) nodes.
        # Only non-empty cells appear, like real BH nodes.
        members: "dict[int, list[int]]" = {}
        for body, cell in enumerate(cell_idx):
            members.setdefault(cell, []).append(body)
        nonempty = sorted(members)
        self._body_lists: "list[list[int]]" = []
        self._cell_lists: "list[list[int]]" = []
        self._super_lists: "list[list[int]]" = []
        coords = {c: (c // (d * d), (c // d) % d, c % d) for c in nonempty}
        half = d // 2

        def supercell_of(cell: int) -> int:
            x, y, z = coords[cell]
            return (x // 2) * half * half + (y // 2) * half + (z // 2)

        max_near = 32
        for body in range(n):
            cx, cy, cz = coords[cell_idx[body]]
            near_bodies: "list[int]" = []
            mid_cells: "list[int]" = []
            far_supers: "set[int]" = set()
            for cell in nonempty:
                x, y, z = coords[cell]
                dist = max(abs(x - cx), abs(y - cy), abs(z - cz))
                if dist <= 1:
                    near_bodies.extend(members[cell])
                elif dist <= 3:
                    mid_cells.append(cell)
                else:
                    far_supers.add(supercell_of(cell))
            near_bodies = [b for b in near_bodies if b != body][:max_near]
            self._body_lists.append(near_bodies)
            self._cell_lists.append(mid_cells)
            self._super_lists.append(sorted(far_supers))

    def generator(self, cpu_id: int, num_cpus: int):
        # Run-coalesced view of the kernel's stream: op-for-op
        # identical after expansion (see coalesce_stream).
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        bodies, accels, cells = self.bodies, self.accels, self.cells
        scratch = self.scratch[cpu_id]
        mine = self.block_range(self.n, cpu_id, num_cpus)
        cell_of = self._cell_of_body
        bid = 0
        for _ in range(self.iterations):
            # 1. Cell-summary build (tree construction analogue).
            for b in mine:
                yield bodies.read(b)
                cell = cell_of[b]
                yield lock(cell)
                yield cells.read(cell)
                yield cells.write(cell)
                yield unlock(cell)
            yield barrier(bid)
            bid += 1
            # 1b. Summarize cells into supercells (upper tree level).
            half = self.cells_per_dim // 2
            for sc in self.block_range(half * half * half, cpu_id, num_cpus):
                sx, sy, sz = sc // (half * half), (sc // half) % half, sc % half
                d = self.cells_per_dim
                for dx in (0, 1):
                    for dy in (0, 1):
                        for dz in (0, 1):
                            child = ((2 * sx + dx) * d * d
                                     + (2 * sy + dy) * d + (2 * sz + dz))
                            yield cells.read(child)
                yield self.supercells.write(sc)
            yield barrier(bid)
            bid += 1
            # 2. Force computation.
            for b in mine:
                yield bodies.read(b)
                yield scratch.write(0)
                for other in self._body_lists[b]:
                    yield bodies.read(other)
                yield compute(12 * len(self._body_lists[b]))
                for cell in self._cell_lists[b]:
                    yield cells.read(cell)
                yield compute(10 * len(self._cell_lists[b]))
                for sc in self._super_lists[b]:
                    yield self.supercells.read(sc)
                yield compute(10 * len(self._super_lists[b]))
                yield scratch.read(0)
                yield accels.write(b)
            yield barrier(bid)
            bid += 1
            # 3. Body update.
            for b in mine:
                yield accels.read(b)
                yield bodies.read(b)
                yield bodies.write(b)
            yield compute(6 * len(mine))
            yield barrier(bid)
            bid += 1
