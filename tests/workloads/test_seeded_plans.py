"""Every seeded input plan equals the numpy computation it replaced.

The workloads draw their inputs from :mod:`repro.workloads.rng` and
build their plans with lists and per-element float math.  Each test
here recomputes a plan the way the kernels used to, with
``numpy.random.RandomState`` and array arithmetic, and requires the
workload's plan to equal it element for element, at the ``tiny``,
``small`` and ``default`` presets (and ``serving`` for kvstore).  numpy
is only a test oracle: without it these tests skip.
"""

import pytest

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.ops import OP_BARRIER, OP_COMPUTE, OP_READ, OP_WRITE
from repro.workloads import make_workload
from repro.workloads.synthetic import PATTERNS, SyntheticWorkload
from tests.conftest import expand_op

np = pytest.importorskip("numpy")

NUM_CPUS = 8
PRESETS = ("tiny", "small", "default")


def setup(workload, num_cpus=NUM_CPUS):
    layout = AddressSpaceLayout(GlobalIpcServer(num_cpus, 4096), 4096)
    workload.setup(layout, num_cpus)
    return workload


@pytest.mark.parametrize("preset", PRESETS)
def test_barnes_cells_of_bodies(preset):
    wl = setup(make_workload("barnes", preset))
    n, d = wl.n, wl.cells_per_dim
    rng = np.random.RandomState(wl.seed)
    centers = rng.rand(8, 3)
    pos = (centers[rng.randint(0, 8, n)] + rng.randn(n, 3) * 0.08) % 1.0
    cell_idx = ((pos * d).astype(np.int64).clip(0, d - 1)
                @ np.array([d * d, d, 1], dtype=np.int64))
    order = np.argsort(cell_idx, kind="stable")
    assert wl._cell_of_body == cell_idx[order].tolist()


@pytest.mark.parametrize("preset", PRESETS)
def test_mp3d_cell_visits(preset):
    wl = setup(make_workload("mp3d", preset))
    nx, ny, nz = wl.cells_dim
    rng = np.random.RandomState(wl.seed)
    pos = rng.rand(wl.n, 3) * np.array([nx, ny, nz])
    vel = rng.randn(wl.n, 3) * 0.4 + np.array([1.2, 0.0, 0.0])
    dims = np.array([nx, ny, nz], dtype=float)
    visits = []
    for _ in range(wl.iterations):
        pos = pos + vel
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
        visits.append(cell.tolist())
    assert wl._visits == visits


@pytest.mark.parametrize("preset", PRESETS)
def test_radix_pass_plans(preset):
    wl = setup(make_workload("radix", preset))
    rng = np.random.RandomState(wl.seed)
    current = rng.randint(0, 1 << (wl.passes * wl.digit_bits), size=wl.n,
                          dtype=np.int64)
    assert len(wl._pass_plans) == wl.passes
    for p, (digits, dest) in enumerate(wl._pass_plans):
        want_digits = (current >> (p * wl.digit_bits)) & (wl.radix - 1)
        order = np.argsort(want_digits, kind="stable")
        want_dest = np.empty(wl.n, dtype=np.int64)
        want_dest[order] = np.arange(wl.n)
        assert list(digits) == want_digits.tolist()
        assert list(dest) == want_dest.tolist()
        current = current[order]


@pytest.mark.parametrize("preset", PRESETS)
def test_water_spatial_pairs(preset):
    wl = setup(make_workload("water-spa", preset))
    d = wl.cells_per_dim
    pos = np.random.RandomState(wl.seed).rand(wl.n, 3)
    cell_id = ((pos * d).astype(np.int64).clip(0, d - 1)
               @ np.array([d * d, d, 1], dtype=np.int64))
    members = {}
    for mol, c in enumerate(cell_id.tolist()):
        members.setdefault(c, []).append(mol)
    pairs = []
    per_mol = {m: 0 for m in range(wl.n)}
    cap = wl.cutoff_pairs_cap
    for c, mols in sorted(members.items()):
        cx, cy, cz = c // (d * d), (c // d) % d, c % d
        neighbours = []
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
    assert wl._pairs_by_cpu == [pairs[c::NUM_CPUS] for c in range(NUM_CPUS)]


class _NumpyZipf:
    """``ZipfianStream`` as numpy computed it."""

    def __init__(self, wl):
        weights = 1.0 / np.arange(1, wl.num_keys + 1,
                                  dtype=np.float64) ** wl.skew
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.perm = np.random.RandomState(wl.seed).permutation(wl.num_keys)
        self.uniforms = np.random.RandomState(wl.seed)
        self.drawn = 0
        self.wl = wl

    def sample(self, count):
        wl, start = self.wl, self.drawn
        ranks = np.searchsorted(self.cdf, self.uniforms.random_sample(count),
                                side="left")
        self.drawn = start + count
        if wl.churn_interval and wl.drift:
            epoch = np.arange(start, start + count) // wl.churn_interval
        else:
            epoch = np.zeros(count, dtype=np.int64)
        return (self.perm[ranks] + epoch * wl.drift) % wl.num_keys


@pytest.mark.parametrize("preset", PRESETS + ("serving",))
def test_kvstore_batches(preset):
    wl = setup(make_workload("kvstore", preset))
    stream = _NumpyZipf(wl)
    flips = np.random.RandomState(wl.seed + 1)
    per_batch = wl.requests_per_cpu // wl.batches
    nshards, vl = wl.num_shards, wl.value_lines
    shard_base = np.array([arr.vbase for arr in wl.shards])
    value_step = np.arange(vl) * 32
    for cpu in range(NUM_CPUS):
        for bid in range(wl.batches):
            keys = stream.sample(per_batch)
            gets = flips.random_sample(per_batch) < wl.get_fraction
            shard = keys % nshards
            addrs = np.empty((len(keys), 1 + vl), dtype=np.int64)
            addrs[:, 0] = wl.index.vbase + shard * 32
            addrs[:, 1:] = (shard_base[shard]
                            + keys // nshards * vl * 32)[:, None] + value_step
            writes = np.zeros(addrs.shape, dtype=bool)
            writes[:, 1:] = ~gets[:, None]
            plan_keys, plan_gets = wl._plans[cpu][bid]
            assert plan_keys == keys.tolist()
            assert list(plan_gets) == gets.tolist()
            got_addrs, got_writes = wl._batches[cpu][bid]
            assert list(got_addrs) == addrs.ravel().tolist()
            assert list(got_writes) == writes.ravel().tolist()


# -- the synthetic patterns, as the numpy planners built them --------------

def _numpy_references(wl, rng, cpu, it, num_cpus):
    """One CPU's iteration ``(addresses, writes)``, drawn and planned
    the way the numpy kernel did."""
    def writes_of(count):
        return rng.rand(count) < wl.write_fraction

    num_lines = wl.num_lines
    per_cpu = num_lines // num_cpus
    span = max(1, int(per_cpu * wl.sweep_fraction))
    pattern = wl.pattern
    if pattern == "block":
        refs = wl.refs_per_cpu_per_iter
        if wl.imbalance and num_cpus > 1:
            refs = int(refs * (1.0 + wl.imbalance * cpu / (num_cpus - 1)))
        offsets = (rng.randint(0, span, refs).astype(np.int32)
                   if wl.random_order else None)
        writes = writes_of(refs)
        if offsets is None:
            offsets = np.arange(len(writes)) % span
        lines = cpu * per_cpu + offsets
    elif pattern == "random":
        refs = wl.refs_per_cpu_per_iter
        lines = rng.randint(0, num_lines, refs).astype(np.int32)
        writes = writes_of(refs)
    elif pattern == "migratory":
        obj_lines = 4
        per = max(1, num_lines // obj_lines // num_cpus)
        objs = np.arange(per) + (cpu + it) % num_cpus * per
        lines = np.repeat((objs[:, None] * obj_lines
                           + np.arange(obj_lines)).ravel() % num_lines, 2)
        writes = np.tile([False, True], len(lines) // 2)
    elif pattern == "producer_consumer":
        if it % 2 == 0:
            lines = cpu * per_cpu + np.arange(span)
            writes = np.ones(span, dtype=bool)
        else:
            lines = (cpu - 1) % num_cpus * per_cpu + np.arange(span)
            writes = np.zeros(span, dtype=bool)
    else:
        hot_span = max(1, per_cpu // 4)
        if it % 2 == 0:
            writes = writes_of(wl.refs_per_cpu_per_iter)
            lines = cpu * per_cpu + np.arange(len(writes)) % hot_span
        else:
            lines = cpu * per_cpu + hot_span + np.arange(per_cpu - hot_span)
            writes = np.zeros(len(lines), dtype=bool)
    addrs = wl.array.vbase + np.asarray(lines, dtype=np.int64) * 32
    return addrs.tolist(), writes.tolist()


SYNTHETIC_CASES = [dict(pattern=p) for p in PATTERNS] + [
    dict(pattern=p, shared_kb=8, sweep_fraction=0.37, write_fraction=0.6,
         refs_per_cpu_per_iter=257, iterations=3, seed=5)
    for p in PATTERNS] + [
    dict(pattern="block", random_order=True, seed=12345),
    dict(pattern="block", imbalance=1.5, refs_per_cpu_per_iter=301),
    dict(pattern="block", shared_kb=1, sweep_fraction=0.25),     # span 1
]


@pytest.mark.parametrize("kwargs", SYNTHETIC_CASES,
                         ids=lambda kw: "-".join("%s=%s" % item
                                                 for item in kw.items()))
def test_synthetic_draws_and_references(kwargs):
    kwargs = dict(dict(shared_kb=32, iterations=4,
                       refs_per_cpu_per_iter=500), **kwargs)
    wl = setup(SyntheticWorkload(**kwargs))
    rng = np.random.RandomState(wl.seed)
    planned = [[_numpy_references(wl, rng, cpu, it, NUM_CPUS)
                for it in range(wl.iterations)] for cpu in range(NUM_CPUS)]
    for cpu in range(NUM_CPUS):
        want = []
        for addrs, writes in planned[cpu]:
            want.append([(OP_WRITE if w else OP_READ, a)
                         for a, w in zip(addrs, writes)])
        got, current = [], []
        for op in wl.generator(cpu, NUM_CPUS):
            if op[0] == OP_BARRIER:
                got.append(current)
                current = []
            elif op[0] != OP_COMPUTE:
                current.extend(expand_op(op))
        assert got == want
