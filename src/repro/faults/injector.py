"""The fault plane: executes a :class:`FaultPlan` against the machine.

A :class:`FaultInjector` is a ``send`` probe (``repro.sim.probes``), so
it sees every inter-node hop ``Network.send`` charges: every protocol
hop, paging fan-out and command-channel deposit.  When a machine
carries one, every inter-node hop is *judged*: partitions and
drop rules lose it, delay/reorder rules stretch its flight, duplicate
rules deliver it twice (the second copy is discarded by sequence-number
dedup), and deliveries to a paused node are held until the pause ends.
Before the first cycle at which any clause or the deadline can act,
no verdict can be anything but clean: a hop sent then is stamped,
charged and counted as judged without the checks (held only if it
lands in a pause), and a key popped then is admitted unchecked.  The
counters, sequence numbers and RNG draws are the same either way.

The recovery half lives here too.  The simulator resolves transactions
atomically — a "request" is a direct call, not a queued object — so a
lost message manifests as the *requester* timing out: the injector
models the bounded-retransmission protocol by charging the sender the
:class:`RetryPolicy` timeout (with exponential backoff) and re-judging
the hop, up to ``max_retries`` times.  Exhausted retries raise
:class:`UnreachableNodeError` (a clean
:class:`~repro.core.controller.NodeFailedError`); a drop with
retransmission *disabled* raises :class:`DeadlineExceeded`, because a
protocol without timeouts would simply wait forever — that asymmetry is
what the chaos campaign's mutation self-test checks.

Determinism: the injector owns a dedicated ``random.Random(seed)``.
Fault verdicts consume randomness only for hops a live rule actually
covers, and nothing here touches the machine's workload RNGs, so a run
under an *empty* plan is byte-identical to a run with no injector at
all.  Without an injector none of this code runs: no ``send`` probe is
registered, and the event loop pops its heap with heapq's own
functions.
"""

from __future__ import annotations

import heapq
import random

from repro.core.controller import DeadlineExceeded, UnreachableNodeError
from repro.interconnect.messages import MessageKind, SequenceTracker
from repro.interconnect.network import Network


class RetryPolicy:
    """Per-request timeout + bounded retransmission with backoff.

    After a lost hop the sender waits ``timeout_cycles * backoff**k``
    (k = attempt index) and retransmits, up to ``max_retries`` times.
    ``max_retries=0`` disables recovery entirely (see
    :meth:`disabled`) — any drop then hangs the requester.
    """

    __slots__ = ("timeout_cycles", "max_retries", "backoff")

    def __init__(self, timeout_cycles: int = 1_000, max_retries: int = 6,
                 backoff: float = 2.0) -> None:
        if timeout_cycles < 1:
            raise ValueError("timeout_cycles must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        self.timeout_cycles = timeout_cycles
        self.max_retries = max_retries
        self.backoff = backoff

    def timeout(self, attempt: int) -> int:
        """Cycles the sender waits before retransmission ``attempt``."""
        return int(self.timeout_cycles * self.backoff ** attempt)

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """No retransmission: the mutation-self-test configuration."""
        return cls(max_retries=0)


class FaultStats:
    """Plain counters of everything the fault plane did in one run."""

    FIELDS = ("judged", "dropped", "partition_drops", "retransmissions",
              "retry_exhausted", "duplicated", "dedup_drops", "delayed",
              "reordered", "paused_deliveries", "scheduled_failures",
              "undeliverable", "hangs")

    __slots__ = FIELDS

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def to_dict(self) -> "dict[str, int]":
        """JSON-safe snapshot."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:
        busy = ", ".join("%s=%d" % (n, getattr(self, n))
                         for n in self.FIELDS if getattr(self, n))
        return "FaultStats(%s)" % (busy or "clean")


class FaultInjector:
    """Executes one :class:`FaultPlan` with a dedicated seeded RNG.

    Construct one per run (it accumulates per-run state: RNG position,
    sequence numbers, applied failures, counters) and hand it to
    ``Machine(..., faults=injector)``; the machine attaches it and pops
    its event heap through :meth:`admit`.  ``deadline`` bounds the run
    in simulated cycles (``None``: unbounded).
    """

    def __init__(self, plan, seed: int = 0, retry: "RetryPolicy | None" = None,
                 deadline: "int | None" = None) -> None:
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(seed)
        self.retry = retry if retry is not None else RetryPolicy()
        #: Optional sink of ``fault_inject`` events (a chaos run's).
        self.sink = None
        self.deadline = deadline
        self.stats = FaultStats()
        #: Faults per ``(action, message kind)``, kept out of
        #: ``FaultStats``, whose ``to_dict`` the chaos digests hash.
        self.noted: "dict[tuple[str, str], int]" = {}
        self.seqs = SequenceTracker()
        self._machine = None
        self._rules = tuple(plan.message_rules)
        self._partitions = tuple(plan.partitions)
        self._failures = sorted(plan.failures, key=lambda f: f.at)
        self._failure_idx = 0
        self._pauses_by_node: "dict[int, list]" = {}
        for pause in plan.pauses:
            self._pauses_by_node.setdefault(pause.node, []).append(pause)
        self._dup_pending = False
        #: The first cycle at which any clause can act (the deadline
        #: from ``deadline + 1``).  Before it no key is held and no hop
        #: sent is lost or stretched, so :meth:`admit` and :meth:`_send`
        #: skip their checks there.
        self._quiet_until = min(
            [r.start for r in self._rules]
            + [p.start for p in self._partitions]
            + [p.start for p in plan.pauses]
            + [f.at for f in self._failures]
            + ([deadline + 1] if deadline is not None else []),
            default=float("inf"))

    # -- machine wiring ----------------------------------------------------

    def attach(self, machine) -> None:
        """Register as a ``send`` probe on a built machine.

        Validates the plan's node ids against the machine first."""
        num_nodes = machine.config.num_nodes
        for clause in list(self.plan.pauses) + list(self.plan.failures):
            if clause.node >= num_nodes:
                raise ValueError("fault plan names node %d but the machine "
                                 "has %d nodes" % (clause.node, num_nodes))
        for part in self._partitions:
            if any(n >= num_nodes for n in part.nodes):
                raise ValueError("partition names a node outside the "
                                 "%d-node machine" % num_nodes)
        self._machine = machine
        self._key_shift = machine._key_shift
        self._node_of_cpu = [cpu.node.node_id for cpu in machine.cpus]
        machine.probes.add("send", self._send)

    # -- event-loop hooks --------------------------------------------------

    def admit(self, pop, heap: "list[int]", *item) -> int:
        """``pop(heap, *item)`` for the event loop, each key checked in
        order: the deadline, scheduled failures due by its time, then
        its CPU's node's pause windows.  A paused CPU is requeued at its
        release time and the key that comes back is checked in turn.  A
        key before the plan's first clause opens passes unchecked."""
        key = pop(heap, *item)
        shift = self._key_shift
        if key >> shift < self._quiet_until:
            return key
        mask = (1 << shift) - 1
        deadline = self.deadline
        while True:
            t = key >> shift
            if deadline is not None and t > deadline:
                raise DeadlineExceeded(
                    "simulated-time deadline %d exceeded at cycle %d"
                    % (deadline, t))
            self.on_tick(self._machine, t)
            cid = key & mask
            release = self.release_time(self._node_of_cpu[cid], t)
            if release <= t:
                return key
            # The CPU's node is paused: it stalls until the pause window
            # ends, then resumes.
            key = heapq.heappushpop(heap, release << shift | cid)

    def on_tick(self, machine, now: int) -> None:
        """Apply any scheduled hard failures due by ``now``."""
        while (self._failure_idx < len(self._failures)
               and self._failures[self._failure_idx].at <= now):
            failure = self._failures[self._failure_idx]
            self._failure_idx += 1
            if failure.node not in machine.failed_nodes:
                self.stats.scheduled_failures += 1
                machine.fail_node(failure.node, now=failure.at)

    def release_time(self, node: int, now: int) -> int:
        """Earliest time ``node`` is responsive again (``now`` if live)."""
        release = now
        for pause in self._pauses_by_node.get(node, ()):
            if pause.start <= release < pause.end:
                release = pause.end
        return release

    # -- the fault plane ---------------------------------------------------

    def _send(self, call, src: int, dst: int, now: int,
              kind: "MessageKind") -> int:
        """The ``send`` probe: judge and deliver one inter-node hop.

        Each transmission attempt is one ``call``, the hop as the rest
        of the chain charges it, so a clean verdict costs exactly what
        the fault-free path charges.
        """
        machine = self._machine
        if (now < self._quiet_until and not self._dup_pending
                and dst not in machine.failed_nodes):
            # Before the plan's first clause opens the verdict is clean
            # and no failure is due: the stamped hop as the chain
            # charges it, held only if it lands in a pause.
            stamp = self.seqs.stamp(src, dst)
            arrival = call(src, dst, now, kind)
            self.stats.judged += 1
            if arrival >= self._quiet_until:
                release = self.release_time(dst, arrival)
                if release > arrival:
                    self.stats.paused_deliveries += 1
                    arrival = release
            self.seqs.accept(src, dst, stamp)
            return arrival
        retry = self.retry
        stamp = self.seqs.stamp(src, dst)
        ni = machine.network.interfaces[src]
        t = now
        attempt = 0
        while True:
            self.on_tick(machine, t)
            if dst in machine.failed_nodes:
                self.stats.undeliverable += 1
                raise UnreachableNodeError(
                    "node %d: %s to failed node %d is undeliverable"
                    % (src, kind.name, dst))
            arrival = call(src, dst, t, kind)
            # The hop left the source NI at its new next_free.
            injected = ni.next_free
            self.stats.judged += 1
            action, extra = self._judge(kind, src, dst, t)
            if action is None:
                break
            if action == "drop":
                self.stats.dropped += 1
                self._note("drop", kind, src, dst, t)
                if retry.max_retries <= 0:
                    # No retransmission layer: the requester has no
                    # timeout and would wait for this reply forever.
                    self.stats.hangs += 1
                    raise DeadlineExceeded(
                        "%s %d->%d lost with retransmission disabled; "
                        "the requester would wait forever" %
                        (kind.name, src, dst))
                if attempt >= retry.max_retries:
                    self.stats.retry_exhausted += 1
                    self._note("retry_exhausted", kind, src, dst, t)
                    raise UnreachableNodeError(
                        "%s %d->%d lost %d times; retries exhausted, "
                        "declaring node %d unreachable"
                        % (kind.name, src, dst, attempt + 1, dst))
                t = injected + retry.timeout(attempt)
                for mark in machine.probes.mark:
                    # The back-off window the requester sat on before
                    # this retransmission — the ``retry`` segment.
                    mark("retry:" + kind.name, "retry", src, injected, t,
                         attempt=attempt + 1, dst=dst)
                attempt += 1
                self.stats.retransmissions += 1
                self._note("retransmit", kind, src, dst, t)
                continue
            if action == "delay":
                self.stats.delayed += 1
                arrival += extra
                self._note("delay", kind, src, dst, t)
            elif action == "reorder":
                self.stats.reordered += 1
                arrival += extra
                self._note("reorder", kind, src, dst, t)
            elif action == "duplicate":
                # The extra copy takes one more hop (no jitter, no
                # verdict) and reaches the receiver, where
                # sequence-number dedup discards it.
                self.stats.duplicated += 1
                Network._hop(machine.network, src, dst, arrival, kind)
                self._dup_pending = True
                self._note("duplicate", kind, src, dst, t)
            break
        release = self.release_time(dst, arrival)
        if release > arrival:
            self.stats.paused_deliveries += 1
            arrival = release
        self.seqs.accept(src, dst, stamp)
        if self._dup_pending and kind is not MessageKind.COMMAND:
            # Atomic (non-queued) delivery: the duplicate's only effect
            # is its dedup drop at the receiver.  COMMAND deposits are
            # real queued payloads — MessageChannel dedups those itself
            # via consume_duplicate().
            self._dup_pending = False
            self.seqs.accept(src, dst, stamp)
            self.stats.dedup_drops += 1
        return arrival

    def consume_duplicate(self) -> bool:
        """True once after a duplicate verdict (MessageChannel hook)."""
        if self._dup_pending:
            self._dup_pending = False
            return True
        return False

    def count_dedup_drop(self) -> None:
        """Record a receiver-side dedup performed outside the injector
        (the command channel's queued-payload path)."""
        self.stats.dedup_drops += 1

    # -- internals ---------------------------------------------------------

    def _judge(self, kind, src: int, dst: int,
               now: int) -> "tuple[str | None, int]":
        """Verdict for one transmission attempt: (action, extra cycles)."""
        for part in self._partitions:
            if part.severs(src, dst, now):
                self.stats.partition_drops += 1
                return "drop", 0
        for rule in self._rules:
            if (rule.applies(kind, src, dst, now)
                    and self.rng.random() < rule.probability):
                if rule.action == "delay":
                    return "delay", rule.cycles
                if rule.action == "reorder":
                    return "reorder", self.rng.randrange(rule.cycles + 1)
                return rule.action, 0
        return None, 0

    def _note(self, action: str, kind, src: int, dst: int, now: int) -> None:
        """Surface one fault as a count in :attr:`noted`, a zero-length
        ``fault:<action>`` mark and, optionally, an event.
        """
        key = (action, kind.name)
        self.noted[key] = self.noted.get(key, 0) + 1
        for mark in self._machine.probes.mark:
            mark("fault:" + action, "network", src, now, now,
                 msg=kind.name, dst=dst)
        if self.sink is not None:
            self.sink.emit("fault_inject", time=now, action=action,
                           msg=kind.name, src=src, dst=dst)
