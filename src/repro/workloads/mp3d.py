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
        import numpy as np

        rng = np.random.RandomState(self.seed)
        pos = rng.rand(self.n, 3) * np.array([nx, ny, nz])
        vel = rng.randn(self.n, 3) * 0.4 + np.array([1.2, 0.0, 0.0])
        dims = np.array([nx, ny, nz], dtype=float)
        self._visits: "list[np.ndarray]" = []
        for _ in range(self.iterations):
            pos = pos + vel
            # Reflect at the walls; wrap in the streamwise direction.
            for axis in (1, 2):
                over = pos[:, axis] > dims[axis]
                under = pos[:, axis] < 0
                pos[over, axis] = 2 * dims[axis] - pos[over, axis]
                pos[under, axis] = -pos[under, axis]
                vel[over | under, axis] *= -1
            pos[:, 0] %= dims[0]
            cell = (pos.astype(np.int64).clip([0, 0, 0],
                                              [nx - 1, ny - 1, nz - 1])
                    @ np.array([ny * nz, nz, 1], dtype=np.int64))
            self._visits.append(cell)

    def generator(self, cpu_id: int, num_cpus: int):
        # Run-coalesced view of the kernel's stream: op-for-op
        # identical after expansion (see coalesce_stream).
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        particles, space = self.particles, self.space
        mine = self.block_range(self.n, cpu_id, num_cpus)
        bid = 0
        for step in range(self.iterations):
            visits = self._visits[step][mine.start:mine.stop].tolist()
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
