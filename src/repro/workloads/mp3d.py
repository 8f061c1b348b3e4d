"""MP3D kernel (SPLASH-I MP3D: rarefied hypersonic airflow).

MP3D advances particles through a 3D space-cell array each timestep:
a particle's state is read and written (move), and the space cell it
lands in is read and written (collision bookkeeping).  Particles are
block-partitioned but fly through cells written by *every* CPU — MP3D's
notorious migratory/write-shared behaviour and high invalidation rate.

The particle trajectories are computed for real at setup (free-flight
with wall reflection in a wind-tunnel box), so the per-step cell-visit
sequence has genuine spatial coherence: particles drift, so the cells a
CPU touches change slowly between steps.

Paper data set: 20,000 particles, 5 iterations.  Default here: 4096
particles, 5 iterations.
"""

from __future__ import annotations

from repro.workloads.base import (SharedArray, Workload, barrier,
                                  coalesce_stream, compute)
from repro.workloads.rng import RandomState

PARTICLE_BYTES = 64
CELL_BYTES = 32


class Mp3dWorkload(Workload):
    """Rarefied airflow particles-in-cells (see module docstring)."""

    name = "mp3d"
    description = "Rarefied air flow simulation"
    paper_problem = "20,000 particles, 5 iterations"

    def __init__(self, particles: int = 4096, iterations: int = 5,
                 cells: "tuple[int, int, int]" = (32, 8, 8),
                 seed: int = 777) -> None:
        super().__init__()
        self.n = particles
        self.iterations = iterations
        self.cells_dim = cells
        self.seed = seed
        self.problem = "%d particles, %d iterations" % (particles, iterations)

    def setup(self, layout, num_cpus: int) -> None:
        nx, ny, nz = self.cells_dim
        self.num_cells = nx * ny * nz
        self.particles = SharedArray(layout, key=601, num_elems=self.n,
                                     elem_bytes=PARTICLE_BYTES)
        self.space = SharedArray(layout, key=602, num_elems=self.num_cells,
                                 elem_bytes=CELL_BYTES)

        # Real free-flight trajectories through the wind tunnel.
        n = self.n
        rng = RandomState(self.seed)
        start = rng.random_sample(n * 3)
        kick = rng.randn(n * 3)
        self._visits: "list[list[int]]" = [[] for _ in range(self.iterations)]
        for p in range(n):
            x = start[3 * p] * nx
            y = start[3 * p + 1] * ny
            z = start[3 * p + 2] * nz
            # The streamwise drift is added to every axis (0.0 off-axis),
            # as the original vector sum did.
            vx = kick[3 * p] * 0.4 + 1.2
            vy = kick[3 * p + 1] * 0.4 + 0.0
            vz = kick[3 * p + 2] * 0.4 + 0.0
            for visits in self._visits:
                x += vx
                y += vy
                z += vz
                # Reflect at the walls; wrap in the streamwise direction.
                if y > ny:
                    y = 2.0 * ny - y
                    vy = -vy
                elif y < 0:
                    y = -y
                    vy = -vy
                if z > nz:
                    z = 2.0 * nz - z
                    vz = -vz
                elif z < 0:
                    z = -z
                    vz = -vz
                x %= nx
                visits.append(
                    min(int(x), nx - 1) * (ny * nz)
                    + min(max(int(y), 0), ny - 1) * nz
                    + min(max(int(z), 0), nz - 1))

    def generator(self, cpu_id: int, num_cpus: int):
        # Run-coalesced view of the kernel's stream: op-for-op
        # identical after expansion (see coalesce_stream).
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        particles, space = self.particles, self.space
        mine = self.block_range(self.n, cpu_id, num_cpus)
        bid = 0
        for step in range(self.iterations):
            visits = self._visits[step][mine.start:mine.stop]
            for p, cell in zip(mine, visits):
                # Move: read/update the particle record.
                yield particles.read(p)
                yield compute(10)
                yield particles.write(p)
                # Collision bookkeeping in the space cell.
                yield space.read(cell)
                yield space.write(cell)
            yield barrier(bid)
            bid += 1
