"""The fault-plan DSL: a declarative description of what goes wrong.

A :class:`FaultPlan` is a bag of fault clauses, each scoped to a
simulated-time window:

* :class:`MessageRule` — drop / duplicate / delay / reorder messages of
  a kind class with probability *p*, optionally filtered by endpoint.
* :class:`NodePause` — a node stops servicing inbound traffic and its
  CPUs stall for a window (a GC pause / interrupt storm); everything
  queues and drains on resume.
* :class:`LinkPartition` — all links between a node set and the rest of
  the machine drop every message for a window.
* :class:`NodeFailure` — the node hard-fails at time *t* (the existing
  :meth:`Machine.fail_node` semantics, scheduled instead of manual).

Plans are pure data: they carry no RNG and no machine references, so
the same plan object can drive many seeded runs.  They serialize to
JSON (``to_dict`` / ``from_dict``) for the ``repro chaos --plan FILE``
CLI, and :meth:`FaultPlan.sample` draws a random small plan from a
caller-owned RNG for chaos campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.interconnect.messages import MessageKind

#: The four things a MessageRule can do to a matching message.
ACTIONS = ("drop", "duplicate", "delay", "reorder")

#: Named message-kind classes for rule filters.  ``None`` (or "all")
#: matches every kind.
KIND_CLASSES: "dict[str, frozenset]" = {
    "coherence": frozenset({
        MessageKind.READ_REQ, MessageKind.READ_EXCL_REQ,
        MessageKind.UPGRADE_REQ, MessageKind.DATA_REPLY, MessageKind.ACK,
        MessageKind.INVALIDATE, MessageKind.INTERVENTION,
        MessageKind.WRITEBACK, MessageKind.REPLACEMENT_HINT,
        MessageKind.FORWARD,
    }),
    "requests": frozenset({
        MessageKind.READ_REQ, MessageKind.READ_EXCL_REQ,
        MessageKind.UPGRADE_REQ,
    }),
    "replies": frozenset({MessageKind.DATA_REPLY, MessageKind.ACK}),
    "paging": frozenset({
        MessageKind.PAGE_IN_REQ, MessageKind.PAGE_IN_REPLY,
        MessageKind.PAGE_OUT_REQ, MessageKind.PAGE_OUT_ACK,
        MessageKind.CLIENT_PAGE_OUT, MessageKind.STATUS_RESET,
    }),
    "naming": frozenset({
        MessageKind.SEG_CREATE, MessageKind.SEG_ATTACH, MessageKind.SEG_REPLY,
    }),
    "migration": frozenset({MessageKind.MIGRATE_REQ, MessageKind.MIGRATE_ACK}),
    "command": frozenset({MessageKind.COMMAND}),
}


def resolve_kinds(spec) -> "frozenset | None":
    """Normalize a kind filter to ``frozenset[MessageKind] | None``.

    Accepts ``None`` / ``"all"`` (match everything), a
    :class:`MessageKind`, a kind name (``"READ_REQ"``), a class name
    from :data:`KIND_CLASSES` (``"coherence"``), or any iterable of
    those; raises ``ValueError`` on unknown names.
    """
    if spec is None:
        return None
    if isinstance(spec, MessageKind):
        return frozenset({spec})
    if isinstance(spec, str):
        if spec == "all":
            return None
        if spec in KIND_CLASSES:
            return KIND_CLASSES[spec]
        try:
            return frozenset({MessageKind[spec]})
        except KeyError:
            raise ValueError("unknown message kind or class %r (classes: %s)"
                             % (spec, ", ".join(sorted(KIND_CLASSES))))
    kinds: "set[MessageKind]" = set()
    for item in spec:
        resolved = resolve_kinds(item)
        if resolved is None:
            return None
        kinds |= resolved
    if not kinds:
        raise ValueError("empty kind filter")
    return frozenset(kinds)


def _kinds_to_names(kinds: "frozenset | None") -> "list[str] | None":
    if kinds is None:
        return None
    return sorted(k.name for k in kinds)


def _check_window(start: int, end: "int | None") -> None:
    if start < 0:
        raise ValueError("window start must be >= 0, got %d" % start)
    if end is not None and end < start:
        raise ValueError("window end %d precedes start %d" % (end, start))


@dataclass(frozen=True)
class MessageRule:
    """Perturb matching messages with probability ``probability``.

    ``action`` is one of :data:`ACTIONS`.  ``delay`` adds exactly
    ``cycles`` flight cycles; ``reorder`` adds a uniform random
    0..``cycles`` (in an atomically-resolved simulator, reordering *is*
    randomized extra delay — two messages in flight swap arrival
    order).  ``kinds`` is ``None`` for all kinds.  ``src`` / ``dst``
    restrict the rule to one endpoint.  The rule is live for sends in
    ``start <= now < end`` (``end=None`` means forever).
    """

    action: str
    probability: float
    kinds: "frozenset | None" = None
    start: int = 0
    end: "int | None" = None
    cycles: int = 0
    src: "int | None" = None
    dst: "int | None" = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError("action must be one of %r, got %r"
                             % (ACTIONS, self.action))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1], got %r"
                             % (self.probability,))
        _check_window(self.start, self.end)
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
        if self.action in ("delay", "reorder") and self.cycles == 0:
            raise ValueError("%s rules need cycles > 0" % self.action)

    def applies(self, kind, src: int, dst: int, now: int) -> bool:
        """True when this rule covers a ``kind`` send src->dst at ``now``."""
        if now < self.start or (self.end is not None and now >= self.end):
            return False
        if self.kinds is not None and kind not in self.kinds:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-safe encoding (kinds by name)."""
        return {"action": self.action, "probability": self.probability,
                "kinds": _kinds_to_names(self.kinds), "start": self.start,
                "end": self.end, "cycles": self.cycles,
                "src": self.src, "dst": self.dst}

    @classmethod
    def from_dict(cls, data: dict) -> "MessageRule":
        """Inverse of :meth:`to_dict`."""
        return cls(action=data["action"], probability=data["probability"],
                   kinds=resolve_kinds(data.get("kinds")),
                   start=data.get("start", 0), end=data.get("end"),
                   cycles=data.get("cycles", 0),
                   src=data.get("src"), dst=data.get("dst"))


@dataclass(frozen=True)
class NodePause:
    """Node ``node`` is unresponsive for ``start <= t < end``."""

    node: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node id must be >= 0")
        _check_window(self.start, self.end)

    def to_dict(self) -> dict:
        """JSON-safe encoding."""
        return {"node": self.node, "start": self.start, "end": self.end}


@dataclass(frozen=True)
class LinkPartition:
    """Links between ``nodes`` and the rest drop everything in the window.

    Traffic *within* ``nodes`` (and within the complement) is untouched;
    only messages crossing the cut are dropped, so the recovery layer's
    bounded retransmission decides whether the run survives (the window
    ends in time) or fails cleanly (retries exhaust).
    """

    nodes: frozenset
    start: int
    end: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if not self.nodes:
            raise ValueError("partition needs at least one node")
        if any(n < 0 for n in self.nodes):
            raise ValueError("node ids must be >= 0")
        _check_window(self.start, self.end)

    def severs(self, src: int, dst: int, now: int) -> bool:
        """True when the src->dst link is cut at ``now``."""
        if now < self.start or (self.end is not None and now >= self.end):
            return False
        return (src in self.nodes) != (dst in self.nodes)

    def to_dict(self) -> dict:
        """JSON-safe encoding."""
        return {"nodes": sorted(self.nodes), "start": self.start,
                "end": self.end}


@dataclass(frozen=True)
class NodeFailure:
    """Node ``node`` hard-fails at simulated time ``at``."""

    node: int
    at: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node id must be >= 0")
        if self.at < 0:
            raise ValueError("failure time must be >= 0")

    def to_dict(self) -> dict:
        """JSON-safe encoding."""
        return {"node": self.node, "at": self.at}


@dataclass
class FaultPlan:
    """A declarative, serializable bag of fault clauses.

    Build one fluently::

        plan = (FaultPlan()
                .drop(0.2, kinds="requests", start=0, end=50_000)
                .delay(0.5, cycles=300, kinds="replies")
                .pause_node(2, start=10_000, end=20_000)
                .fail_node(3, at=80_000))

    An injector with an empty plan changes no result: the run is
    byte-identical to one without an injector.  It is not free,
    though: it still judges every inter-node hop and checks every key
    the event loop pops.  Only a machine built without an injector
    pays nothing for the fault plane.
    """

    message_rules: "list[MessageRule]" = field(default_factory=list)
    pauses: "list[NodePause]" = field(default_factory=list)
    partitions: "list[LinkPartition]" = field(default_factory=list)
    failures: "list[NodeFailure]" = field(default_factory=list)

    # -- fluent builders ---------------------------------------------------

    def _rule(self, action, probability, kinds, start, end, cycles,
              src, dst) -> "FaultPlan":
        self.message_rules.append(MessageRule(
            action=action, probability=probability,
            kinds=resolve_kinds(kinds), start=start, end=end,
            cycles=cycles, src=src, dst=dst))
        return self

    def drop(self, probability: float, kinds=None, start: int = 0,
             end: "int | None" = None, src: "int | None" = None,
             dst: "int | None" = None) -> "FaultPlan":
        """Drop matching messages with probability ``probability``."""
        return self._rule("drop", probability, kinds, start, end, 0, src, dst)

    def duplicate(self, probability: float, kinds=None, start: int = 0,
                  end: "int | None" = None, src: "int | None" = None,
                  dst: "int | None" = None) -> "FaultPlan":
        """Deliver matching messages twice (receiver must dedup)."""
        return self._rule("duplicate", probability, kinds, start, end, 0,
                          src, dst)

    def delay(self, probability: float, cycles: int, kinds=None,
              start: int = 0, end: "int | None" = None,
              src: "int | None" = None, dst: "int | None" = None) -> "FaultPlan":
        """Add exactly ``cycles`` flight cycles to matching messages."""
        return self._rule("delay", probability, kinds, start, end, cycles,
                          src, dst)

    def reorder(self, probability: float, cycles: int, kinds=None,
                start: int = 0, end: "int | None" = None,
                src: "int | None" = None, dst: "int | None" = None) -> "FaultPlan":
        """Add uniform random 0..``cycles`` delay (arrival-order swaps)."""
        return self._rule("reorder", probability, kinds, start, end, cycles,
                          src, dst)

    def pause_node(self, node: int, start: int, end: int) -> "FaultPlan":
        """Stall ``node`` (CPUs and inbound delivery) for the window."""
        self.pauses.append(NodePause(node, start, end))
        return self

    def partition(self, nodes, start: int = 0,
                  end: "int | None" = None) -> "FaultPlan":
        """Cut every link between ``nodes`` and the rest for the window."""
        self.partitions.append(LinkPartition(frozenset(nodes), start, end))
        return self

    def fail_node(self, node: int, at: int) -> "FaultPlan":
        """Hard-fail ``node`` at simulated time ``at``."""
        self.failures.append(NodeFailure(node, at))
        return self

    # -- introspection -----------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.message_rules or self.pauses or self.partitions
                    or self.failures)

    def describe(self) -> str:
        """One human-readable line per clause."""
        if self.is_empty():
            return "empty plan (fault-free)"
        lines = []
        for r in self.message_rules:
            scope = "all kinds" if r.kinds is None else "/".join(
                sorted(k.name for k in r.kinds))
            window = ("[%d, %s)" % (r.start, r.end if r.end is not None
                                    else "inf"))
            extra = " +%d cycles" % r.cycles if r.cycles else ""
            lines.append("%s p=%.2f %s %s%s" % (r.action, r.probability,
                                                scope, window, extra))
        for p in self.pauses:
            lines.append("pause node %d [%d, %d)" % (p.node, p.start, p.end))
        for part in self.partitions:
            lines.append("partition %s [%d, %s)" % (
                sorted(part.nodes), part.start,
                part.end if part.end is not None else "inf"))
        for f in self.failures:
            lines.append("fail node %d at %d" % (f.node, f.at))
        return "; ".join(lines)

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe encoding of the whole plan."""
        return {
            "message_rules": [r.to_dict() for r in self.message_rules],
            "pauses": [p.to_dict() for p in self.pauses],
            "partitions": [p.to_dict() for p in self.partitions],
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (``repro chaos --plan FILE``)."""
        plan = cls()
        for r in data.get("message_rules", ()):
            plan.message_rules.append(MessageRule.from_dict(r))
        for p in data.get("pauses", ()):
            plan.pauses.append(NodePause(p["node"], p["start"], p["end"]))
        for p in data.get("partitions", ()):
            plan.partitions.append(LinkPartition(
                frozenset(p["nodes"]), p["start"], p.get("end")))
        for f in data.get("failures", ()):
            plan.failures.append(NodeFailure(f["node"], f["at"]))
        return plan

    # -- chaos sampling ----------------------------------------------------

    @classmethod
    def sample(cls, rng: "random.Random", num_nodes: int,
               horizon: int = 200_000) -> "FaultPlan":
        """Draw a random small plan from a caller-owned seeded RNG.

        Always includes 1-3 message rules; sometimes a node pause; and
        (rarely) a finite link partition.  Probabilities stay moderate
        and windows finite so a retrying protocol *can* survive — the
        point of a chaos campaign is distinguishing "survived with an
        SC history" from "failed cleanly", and a plan that guarantees
        failure proves nothing.
        """
        plan = cls()
        kind_pool = ("coherence", "requests", "replies", "paging", None)
        for _ in range(rng.randint(1, 3)):
            action = ACTIONS[rng.randrange(len(ACTIONS))]
            probability = round(rng.uniform(0.05, 0.35), 3)
            kinds = kind_pool[rng.randrange(len(kind_pool))]
            start = rng.randrange(horizon // 4)
            end = start + rng.randrange(horizon // 4, horizon)
            if action == "drop":
                plan.drop(probability, kinds=kinds, start=start, end=end)
            elif action == "duplicate":
                plan.duplicate(probability, kinds=kinds, start=start, end=end)
            else:
                cycles = rng.randrange(50, 2_000)
                getattr(plan, action)(probability, cycles=cycles, kinds=kinds,
                                      start=start, end=end)
        if rng.random() < 0.4:
            node = rng.randrange(num_nodes)
            start = rng.randrange(horizon // 2)
            plan.pause_node(node, start, start + rng.randrange(1_000, 20_000))
        if rng.random() < 0.15 and num_nodes > 1:
            node = rng.randrange(num_nodes)
            start = rng.randrange(horizon // 2)
            plan.partition({node}, start,
                           start + rng.randrange(1_000, 10_000))
        return plan
