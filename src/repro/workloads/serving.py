"""Serving-shaped workloads: sharded KV store and 2PC transactions.

The SPLASH kernels exercise the page-mode policies under scientific
access patterns — dense sweeps, stencils, N-body traversals.  Nothing
in that family looks like the request-serving traffic the ROADMAP's
north star cares about, so this module adds two workloads with
serving-shaped structure:

* :class:`KvStoreWorkload` (``kvstore``) — a sharded key-value/session
  store laid out over per-shard shared segments, driven by a seeded
  Zipfian request generator (:class:`ZipfianStream`) with hot-key churn
  and rolling working-set drift.  Every client CPU issues get/put
  requests against shards home-placed across the machine's nodes,
  stressing migration and demotion policies with skewed, drifting
  popularity instead of SPLASH's uniform reuse.
* :class:`Txn2pcWorkload` (``txn2pc``) — a coordinator + data-node
  two-phase-commit workload: per transaction, the coordinator writes a
  prepare record under a lock, participants vote, the coordinator
  collects votes and writes the commit decision, and participants apply
  the transaction to their data shards under per-node locks.  In chaos
  campaigns the decision broadcast additionally rides the command-mode
  message channels (:class:`TwoPhaseChannelDriver`), so fault plans
  that drop ``command`` messages exercise real 2PC failure modes, and
  per-transaction outcomes recorded through the value tap let the SC
  checker plus :meth:`Txn2pcScenario.check` judge atomicity.

Both workloads are plain op-stream kernels that emit only the standard
op vocabulary, so they run unchanged on the simulator's event loop and
join the golden stats matrix.  ``kvstore`` builds each batch's
reference addresses and write flags as arrays in :meth:`setup` and its
generator chains the bounded op chunks
:func:`~repro.workloads.base.coalesce` makes of them, so a CPU holds
one chunk of op tuples at a time.  ``txn2pc`` interleaves locks,
barriers and compute with a few references per phase and keeps the
per-op :func:`~repro.workloads.base.coalesce_stream`.

Serving metrics: each workload states its request plan
(``request_plan``, the ops each CPU's requests take, in issue order),
and with a metrics registry installed the registry's serving tap
(:func:`repro.obs.metrics.serving_tap`) measures each request's
simulated latency against it.  The workloads hold no registry, and with
none installed runs are byte-identical to an untapped machine.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate, chain

from repro.workloads.base import (SharedArray, Workload, barrier, coalesce,
                                  coalesce_stream, compute, lock, unlock)
from repro.workloads.rng import RandomState

LINE_BYTES = 32

#: Serving workload names (kept separate from the paper's eight
#: applications; ``repro.workloads`` re-exports this).
SERVING_APPLICATIONS = ("kvstore", "txn2pc")


class ZipfianStream:
    """A seeded Zipfian key stream with hot-key churn and drift.

    Requests draw a popularity *rank* by CDF inversion over Zipf
    weights ``1 / (rank+1)**skew`` (rank 0 is the hottest), then map
    the rank to a key through a seed-derived permutation shifted by a
    rolling offset: every ``churn_interval`` requests the whole hot set
    slides ``drift`` keys forward (mod ``num_keys``), modelling session
    churn and working-set drift without ever leaving the key space.

    Determinism: two streams with the same seed draw the same uniforms
    and the same permutation regardless of ``skew``, so raising the
    skew can only lower each request's rank — mass concentrates
    monotonically (the property tests lean on this).
    """

    def __init__(self, num_keys: int, skew: float = 0.99,
                 churn_interval: int = 0, drift: int = 0,
                 seed: int = 0) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if skew < 0.0:
            raise ValueError("skew must be >= 0")
        if churn_interval < 0 or drift < 0:
            raise ValueError("churn_interval and drift must be >= 0")
        self.num_keys = num_keys
        self.skew = skew
        self.churn_interval = churn_interval
        self.drift = drift
        self.seed = seed
        weights = [1.0 / float(rank) ** skew
                   for rank in range(1, num_keys + 1)]
        cdf = list(accumulate(weights))
        total = cdf[-1]
        self._cdf = [c / total for c in cdf]
        self._perm = RandomState(seed).permutation(num_keys)
        self._uniforms = RandomState(seed)
        self._drawn = 0

    def ranks(self, count: int) -> "list[int]":
        """Popularity ranks (0 = hottest) of the next ``count``
        requests; advances the stream exactly like :meth:`sample`."""
        cdf = self._cdf
        return [bisect_left(cdf, u)
                for u in self._uniforms.random_sample(count)]

    def sample(self, count: int) -> "list[int]":
        """Keys of the next ``count`` requests, churn/drift applied.
        Every key is in ``[0, num_keys)`` by construction."""
        start = self._drawn
        ranks = self.ranks(count)
        self._drawn = start + count
        perm, num_keys = self._perm, self.num_keys
        if not (self.churn_interval and self.drift):
            return [perm[rank] for rank in ranks]
        interval, drift = self.churn_interval, self.drift
        return [(perm[rank] + (start + i) // interval * drift) % num_keys
                for i, rank in enumerate(ranks)]


class KvStoreWorkload(Workload):
    """Sharded key-value/session store under Zipfian request traffic.

    Keys hash to ``key % num_shards``; each shard is its own shared
    segment (so shards home-place across nodes) holding
    ``value_lines`` cache lines per value slot.  A request reads the
    shard's index line, then reads (get) or writes (put) the value's
    lines; requests are issued in ``batches`` separated by barriers
    (the serving epochs the utilization series samples at).
    """

    name = "kvstore"
    description = "Sharded KV/session store, Zipfian gets/puts"
    paper_problem = "n/a (serving extension)"

    def __init__(self, num_keys: int = 4096, num_shards: int = 32,
                 value_lines: int = 2, requests_per_cpu: int = 4000,
                 batches: int = 4, get_fraction: float = 0.8,
                 skew: float = 0.99, churn_interval: int = 256,
                 drift: int = 16, cycles_per_ref: int = 6,
                 seed: int = 20260809) -> None:
        super().__init__()
        if num_keys < num_shards:
            raise ValueError("need at least one key per shard")
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0, 1]")
        if batches < 1 or requests_per_cpu < batches:
            raise ValueError("need at least one request per batch")
        self.num_keys = num_keys
        self.num_shards = num_shards
        self.value_lines = value_lines
        self.requests_per_cpu = requests_per_cpu
        self.batches = batches
        self.get_fraction = get_fraction
        self.skew = skew
        self.churn_interval = churn_interval
        self.drift = drift
        self.cycles_per_ref = cycles_per_ref
        self.seed = seed
        self.problem = "%d keys, %d shards, %d req/cpu, skew %.2f" % (
            num_keys, num_shards, requests_per_cpu, skew)

    def setup(self, layout, num_cpus: int) -> None:
        slots = -(-self.num_keys // self.num_shards)
        self.index = SharedArray(layout, key=9199,
                                 num_elems=self.num_shards,
                                 elem_bytes=LINE_BYTES)
        self.shards = [SharedArray(layout, key=9200 + s,
                                   num_elems=slots * self.value_lines,
                                   elem_bytes=LINE_BYTES)
                       for s in range(self.num_shards)]
        stream = ZipfianStream(self.num_keys, skew=self.skew,
                               churn_interval=self.churn_interval,
                               drift=self.drift, seed=self.seed)
        flips = RandomState(self.seed + 1)
        per_batch = self.requests_per_cpu // self.batches
        #: per-cpu, per-batch ``(keys, gets)``: each request's key, and
        #: a flag per request that is 1 for a get and 0 for a put.
        self._plans = []
        for _cpu in range(num_cpus):
            self._plans.append(
                [(stream.sample(per_batch),
                  flips.below(per_batch, self.get_fraction))
                 for _ in range(self.batches)])
        # Per request: the shard's index line, then the value's
        # ``value_lines`` lines (a get reads them, a put writes them).
        nshards, vl = self.num_shards, self.value_lines
        key_addrs = []
        for key in range(self.num_keys):
            shard = key % nshards
            value = (self.shards[shard].vbase
                     + key // nshards * vl * LINE_BYTES)
            key_addrs.append([self.index.vbase + shard * LINE_BYTES]
                             + [value + i * LINE_BYTES for i in range(vl)])
        get_writes, put_writes = bytes(1 + vl), b"\0" + b"\1" * vl
        #: per-cpu, per-batch ``(addresses, write flags)``.
        self._batches = [
            [
                (array("q", chain.from_iterable([key_addrs[key]
                                                  for key in keys])),
                 b"".join([get_writes if get else put_writes
                           for get in gets]))
                for keys, gets in plan]
            for plan in self._plans]

    def generator(self, cpu_id: int, num_cpus: int):
        return chain.from_iterable(self._batch_ops(cpu_id))

    def _batch_ops(self, cpu_id: int):
        for bid, (addrs, writes) in enumerate(self._batches[cpu_id]):
            yield from coalesce(addrs, writes)
            yield (compute(40), barrier(bid))

    # -- serving metrics ---------------------------------------------------

    def request_plan(self, num_cpus: int):
        """Per CPU, its requests as ``(op, accesses)`` in issue order."""
        per_req = 1 + self.value_lines
        # One shared tuple per request kind, not one per request.
        get, put = ("get", per_req), ("put", per_req)
        return [
            [get if g else put for _keys, gets in self._plans[cpu]
             for g in gets]
            for cpu in range(num_cpus)]


class Txn2pcWorkload(Workload):
    """Two-phase commit: coordinator + data-node transactions.

    Every CPU is a data-node participant; CPU 0 additionally
    coordinates.  Transaction ``t`` runs in four barrier-separated
    phases:

    1. *prepare* — the coordinator writes the prepare record
       ``log[t]`` under the log lock;
    2. *vote*    — every participant reads the prepare record and
       writes its vote slot;
    3. *decide*  — the coordinator reads all votes and writes the
       commit decision to ``log[t]`` under the log lock;
    4. *apply*   — every participant reads the decision and applies
       the transaction to its own data shard (``apply_lines`` fresh
       lines per transaction) under its per-node apply lock.

    The decision record is written twice per transaction (prepare,
    then decision) — :meth:`Txn2pcScenario.check` uses the second
    write's time as the commit point and flags any data-shard apply
    recorded before it.  With :attr:`use_command_channels` set (the
    chaos scenario does this) the decision is additionally broadcast
    over command-mode message channels, putting it in the blast radius
    of ``command``-kind fault rules.
    """

    name = "txn2pc"
    description = "Coordinator + data-node two-phase commit"
    paper_problem = "n/a (serving extension)"

    #: When true, :meth:`add_probes` attaches a
    #: :class:`TwoPhaseChannelDriver` (chaos campaigns only).
    use_command_channels = False

    def __init__(self, txns: int = 200, apply_lines: int = 2,
                 cycles_per_ref: int = 6, seed: int = 20260809) -> None:
        super().__init__()
        if txns < 1 or apply_lines < 1:
            raise ValueError("txns and apply_lines must be >= 1")
        self.txns = txns
        self.apply_lines = apply_lines
        self.cycles_per_ref = cycles_per_ref
        self.seed = seed
        self.problem = "%d txns, %d apply lines" % (txns, apply_lines)

    def setup(self, layout, num_cpus: int) -> None:
        self._num_cpus = num_cpus
        self.log = SharedArray(layout, key=9301, num_elems=self.txns,
                               elem_bytes=LINE_BYTES)
        self.votes = SharedArray(layout, key=9302,
                                 num_elems=self.txns * num_cpus,
                                 elem_bytes=LINE_BYTES)
        self.data = SharedArray(
            layout, key=9303,
            num_elems=num_cpus * self.txns * self.apply_lines,
            elem_bytes=LINE_BYTES)

    def generator(self, cpu_id: int, num_cpus: int):
        return coalesce_stream(self._stream(cpu_id, num_cpus))

    def _stream(self, cpu_id: int, num_cpus: int):
        al = self.apply_lines
        log, votes, data = self.log, self.votes, self.data
        coordinator = cpu_id == 0
        bid = 0
        for t in range(self.txns):
            # Phase 1: prepare.
            if coordinator:
                yield lock(0)
                yield log.write(t)
                yield unlock(0)
            else:
                yield compute(20)
            yield barrier(bid)
            bid += 1
            # Phase 2: vote.
            yield log.read(t)
            yield votes.write(t * num_cpus + cpu_id)
            yield barrier(bid)
            bid += 1
            # Phase 3: decide.
            if coordinator:
                for p in range(num_cpus):
                    yield votes.read(t * num_cpus + p)
                yield lock(0)
                yield log.write(t)
                yield unlock(0)
            else:
                yield compute(20)
            yield barrier(bid)
            bid += 1
            # Phase 4: apply.
            yield log.read(t)
            yield lock(1 + cpu_id)
            base = (cpu_id * self.txns + t) * al
            for i in range(al):
                yield data.write(base + i)
            yield unlock(1 + cpu_id)
            yield barrier(bid)
            bid += 1

    # -- serving metrics & chaos taps --------------------------------------

    def request_plan(self, num_cpus: int):
        """Per CPU, its transactions as ``(op, accesses)`` in issue
        order."""
        coord = ("txn", (1 + 2 + num_cpus + 1 + 1 + self.apply_lines))
        part = ("participant", (2 + 1 + self.apply_lines))
        return [[coord if c == 0 else part] * self.txns
                for c in range(num_cpus)]

    def add_probes(self, machine) -> None:
        """Machine hook: the chaos channel driver."""
        if self.use_command_channels:
            TwoPhaseChannelDriver(machine, self)


class TwoPhaseChannelDriver:
    """Broadcast 2PC decisions over command-mode message channels.

    An ``access`` probe (registered after any value tracker, so the
    tracker records the raw completion): when the coordinator's
    *decision* write to ``log[t]``
    resolves, a ``("commit", t)`` command is sent on the coordinator
    node's channel to every other node, and when a participant's
    decision read resolves, the participant polls its channel until
    that command arrives — so the decision handoff rides the network
    as ``COMMAND`` messages judged by the fault plane.  A drop with
    retries disabled surfaces as the canonical no-timeout hang
    (``DeadlineExceeded`` from the injector), exhausted retries or a
    dead node as a clean ``NodeFailedError`` — exactly the verdict
    split the chaos mutation self-test asserts.
    """

    POLL_CYCLES = 64

    def __init__(self, machine, workload: Txn2pcWorkload) -> None:
        from repro.kernel.msgqueue import MessageChannel
        self.machine = machine
        self.workload = workload
        self.coord_node = machine.cpus[0].node.node_id
        self.channels = {}
        for node in machine.nodes:
            if node.node_id != self.coord_node:
                self.channels[node.node_id] = MessageChannel(
                    machine, self.coord_node, node.node_id,
                    capacity=max(64, workload.txns + 8))
        log = workload.log
        self._log_base = log.vbase
        self._log_end = log.vbase + log.num_elems * log.elem_bytes
        self._elem = log.elem_bytes
        self._prepared: "set[int]" = set()
        self._decided: "set[int]" = set()
        self._received: "set[tuple[int, int]]" = set()
        machine.probes.add("access", self._on_access)

    def _on_access(self, call, cpu, vaddr: int, is_write: bool,
                   now: int) -> int:
        done = call(cpu, vaddr, is_write, now)
        if not self._log_base <= vaddr < self._log_end:
            return done
        txn = (vaddr - self._log_base) // self._elem
        if is_write and cpu.cpu_id == 0:
            if txn not in self._prepared:
                self._prepared.add(txn)       # phase 1: local prepare
            elif txn not in self._decided:
                self._decided.add(txn)        # phase 3: broadcast commit
                for channel in self.channels.values():
                    done = max(done, channel.send(("commit", txn), done))
        elif (not is_write and cpu.cpu_id != 0 and txn in self._decided):
            node_id = cpu.node.node_id
            channel = self.channels.get(node_id)
            if channel is None or (node_id, txn) in self._received:
                return done
            t = done
            while True:
                got = channel.receive(t)
                if got is not None:
                    t = max(t, got[1])
                    self._received.add((node_id, got[0][1]))
                    if got[0][1] == txn:
                        break
                    continue
                if not channel.pending():
                    break
                t += self.POLL_CYCLES
            done = t
        return done


class Txn2pcScenario:
    """A chaos-campaign scenario over :class:`Txn2pcWorkload`.

    Duck-compatible with :class:`~repro.verify.litmus.LitmusTest` where
    :func:`~repro.faults.campaign.run_chaos` cares: ``name``,
    ``policy``, ``num_nodes``, ``build_config()``, ``forbidden`` — plus
    the campaign hooks ``make_workload()`` (a channel-driven 2PC run)
    and ``check()`` (the atomicity judge: no data-shard apply may be
    recorded before its transaction's commit decision).
    """

    #: No register-outcome predicate; atomicity is judged by check().
    forbidden = None

    def __init__(self, name: str = "txn2pc", num_nodes: int = 4,
                 cpus_per_node: int = 1, policy: str = "scoma",
                 txns: int = 8, apply_lines: int = 2,
                 seed: int = 20260809) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self.cpus_per_node = cpus_per_node
        self.policy = policy
        self.txns = txns
        self.apply_lines = apply_lines
        self.seed = seed
        self._workload: "Txn2pcWorkload | None" = None

    def build_config(self):
        """The tiny machine the scenario runs on (litmus geometry)."""
        from repro.sim.config import CacheConfig, MachineConfig
        return MachineConfig(
            num_nodes=self.num_nodes,
            cpus_per_node=self.cpus_per_node,
            page_bytes=256,
            line_bytes=32,
            l1=CacheConfig(256, 32, 2),
            l2=CacheConfig(512, 32, 2),
            tlb_entries=8,
            directory_cache_entries=64)

    def make_workload(self) -> Txn2pcWorkload:
        """A fresh channel-driven 2PC workload for one chaos round."""
        workload = Txn2pcWorkload(txns=self.txns,
                                  apply_lines=self.apply_lines,
                                  seed=self.seed)
        workload.use_command_channels = True
        self._workload = workload
        return workload

    def check(self, events, machine) -> "list[str]":
        """Atomicity violations in one run's value-tap history.

        The commit point of transaction ``t`` is the *second* write to
        ``log[t]`` (the first is the prepare record); every data-shard
        apply write must carry a later-or-equal timestamp.  Partial
        histories from aborted runs are fine — applies simply must
        never outrun their decision.
        """
        workload = self._workload
        if workload is None or getattr(workload, "log", None) is None:
            return []
        log, data = workload.log, workload.data
        log_base = log.vbase
        log_end = log_base + log.num_elems * log.elem_bytes
        data_base = data.vbase
        data_end = data_base + data.num_elems * data.elem_bytes
        elem = log.elem_bytes
        al, txns = workload.apply_lines, workload.txns
        log_writes: "dict[int, int]" = {}
        decided_at: "dict[int, int]" = {}
        violations = []
        for event in events:
            if event["kind"] != "write":
                continue
            vaddr = event["vaddr"]
            if log_base <= vaddr < log_end:
                txn = (vaddr - log_base) // elem
                seen = log_writes.get(txn, 0) + 1
                log_writes[txn] = seen
                if seen == 2:
                    decided_at[txn] = event["time"]
            elif data_base <= vaddr < data_end:
                idx = (vaddr - data_base) // elem
                txn = (idx // al) % txns
                decision = decided_at.get(txn)
                if decision is None or decision > event["time"]:
                    violations.append(
                        "2pc atomicity: data apply for txn %d at t=%d "
                        "precedes its commit decision" % (txn,
                                                          event["time"]))
        return violations


def chaos_scenarios() -> "dict[str, Txn2pcScenario]":
    """The bundled serving chaos scenarios, by name."""
    return {
        "txn2pc": Txn2pcScenario(),
        "txn2pc-wide": Txn2pcScenario(name="txn2pc-wide", num_nodes=4,
                                      cpus_per_node=2, txns=6),
    }
