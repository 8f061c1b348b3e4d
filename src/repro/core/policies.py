"""Page-mode selection policies (sections 3.3 and 4.2).

A policy decides, per client page fault, whether to back the faulting
global page with an S-COMA frame (local page-cache memory) or a LA-NUMA
frame (imaginary, remote-backed), and what to do when the page cache is
full.  The six policies of the paper's evaluation:

* ``scoma``    — always S-COMA, unbounded page cache (the "optimal"
  configuration: no capacity misses go remote).
* ``lanuma``   — always LA-NUMA at clients (CC-NUMA-like behaviour).
* ``scoma-70`` — S-COMA with the page cache capped (at 70% of the SCOMA
  run's client-frame count); on overflow the LRU client frame is paged
  out (no mode change).
* ``dyn-fcfs`` — S-COMA until the cache fills, LA-NUMA afterwards; no
  page-outs.  Implementable purely in the OS.
* ``dyn-util`` — on overflow, demote the client frame with the most
  Invalid fine-grain tags (a controller query) to LA-NUMA mode and
  reuse its frame.
* ``dyn-lru``  — on overflow, demote the least-recently-used client
  frame to LA-NUMA mode and reuse its frame.

Plus one extension the paper defers to future work (section 4.3):

* ``dyn-bidir`` — ``dyn-lru`` with R-NUMA-style *promotion*: a LA-NUMA
  page that keeps refetching lines from its home is converted back to
  S-COMA mode.

All decisions are node-local: converting a page between modes never
requires coordination with other nodes (the key PRISM property).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.finegrain import Tag
from repro.core.modes import PageMode


@dataclass
class FullCacheAction:
    """What to do when a client fault finds the page cache full."""

    #: "lanuma" (allocate an imaginary frame) or "evict" (page out
    #: ``victim_frame`` first, then allocate S-COMA).
    kind: str
    victim_frame: "int | None" = None
    #: When evicting: also set the victim page's mode to LA-NUMA so its
    #: future faults at this node allocate imaginary frames.
    demote: bool = False


ALLOC_LANUMA = FullCacheAction("lanuma")


class PageModePolicy:
    """Base class; see module docstring for the concrete policies."""

    name = "abstract"
    #: Does this policy ever promote LA-NUMA pages back to S-COMA?
    promotes = False

    def initial_mode(self, kernel, gpage: int) -> PageMode:
        """Desired mode for a faulting client page, before capacity
        checks.  Honors a previous demotion recorded by the kernel."""
        if kernel.page_mode_override.get(gpage) == PageMode.LANUMA:
            return PageMode.LANUMA
        return PageMode.SCOMA

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        """What a client fault on ``gpage`` does when ``kernel``'s page
        cache is full (the ``cache_full`` probe point)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class ScomaPolicy(PageModePolicy):
    """SCOMA / SCOMA-70: always S-COMA; LRU page-out on overflow."""

    def __init__(self, name: str = "scoma") -> None:
        self.name = name

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        victim = kernel.lru_client_frame()
        if victim is None:
            # No client frame to evict (capacity 0): fall back to
            # LA-NUMA rather than deadlock.
            return ALLOC_LANUMA
        return FullCacheAction("evict", victim_frame=victim, demote=False)


class LanumaPolicy(PageModePolicy):
    """Pure LA-NUMA clients (CC-NUMA-equivalent performance)."""

    name = "lanuma"

    def initial_mode(self, kernel, gpage: int) -> PageMode:
        return PageMode.LANUMA

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        return ALLOC_LANUMA  # pragma: no cover - never S-COMA at clients


class CcnumaPolicy(PageModePolicy):
    """Pure CC-NUMA clients (the section 3.2 extension mode).

    Client frames bypass the PIT: physical addresses directly identify
    memory at the home node.  This recovers a conventional CC-NUMA
    machine — at the price of global physical addresses (no lazy
    migration, no memory firewall for these pages).
    """

    name = "ccnuma"

    def initial_mode(self, kernel, gpage: int) -> PageMode:
        return PageMode.CCNUMA

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        return ALLOC_LANUMA  # pragma: no cover - never S-COMA at clients


class DynFcfsPolicy(PageModePolicy):
    """S-COMA first-come-first-served, LA-NUMA once the cache is full."""

    name = "dyn-fcfs"

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        return ALLOC_LANUMA


class DynUtilPolicy(PageModePolicy):
    """Demote the client frame with the most Invalid fine-grain tags.

    The OS queries the coherence controller for per-frame Invalid-tag
    counts (hardware support the paper calls out); frames with any line
    in Transit are skipped.
    """

    name = "dyn-util"

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        best_frame = None
        best_invalid = -1
        for frame in kernel.client_scoma_frames():
            entry = kernel.pit.entry_or_none(frame)
            if entry is None or entry.tags is None:
                continue
            if entry.tags.count(Tag.TRANSIT):
                continue
            invalid = entry.tags.count(Tag.INVALID)
            if invalid > best_invalid:
                best_invalid = invalid
                best_frame = frame
        if best_frame is None:
            return ALLOC_LANUMA
        return FullCacheAction("evict", victim_frame=best_frame, demote=True)


class DynLruPolicy(PageModePolicy):
    """Demote the least-recently-used client frame to LA-NUMA mode."""

    name = "dyn-lru"

    def on_cache_full(self, kernel, gpage: int) -> FullCacheAction:
        victim = kernel.lru_client_frame()
        if victim is None:
            return ALLOC_LANUMA
        return FullCacheAction("evict", victim_frame=victim, demote=True)


class DynBidirPolicy(DynLruPolicy):
    """``dyn-lru`` plus promotion of refetch-heavy LA-NUMA pages.

    The controller counts remote fetches per LA-NUMA page; when a page
    exceeds ``promote_threshold`` refetches, the kernel clears its
    LA-NUMA override and unmaps it, so the next fault re-maps it in
    S-COMA mode (evicting an LRU victim if needed) — the bidirectional
    adaptation of Falsafi & Wood's R-NUMA, done with purely node-local
    mechanisms.
    """

    name = "dyn-bidir"
    promotes = True

    def __init__(self, promote_threshold: int = 48) -> None:
        self.promote_threshold = promote_threshold


_POLICIES = {
    "scoma": lambda: ScomaPolicy("scoma"),
    "scoma-70": lambda: ScomaPolicy("scoma-70"),
    "lanuma": lambda: LanumaPolicy(),
    "ccnuma": lambda: CcnumaPolicy(),
    "dyn-fcfs": lambda: DynFcfsPolicy(),
    "dyn-util": lambda: DynUtilPolicy(),
    "dyn-lru": lambda: DynLruPolicy(),
    "dyn-bidir": lambda: DynBidirPolicy(),
}

POLICY_NAMES = tuple(sorted(_POLICIES))


def make_policy(name: str) -> PageModePolicy:
    """Instantiate a policy by its paper name (e.g. ``"dyn-lru"``)."""
    key = name.strip().lower()
    try:
        factory = _POLICIES[key]
    except KeyError:
        raise ValueError("unknown policy %r; choose from %s"
                         % (name, ", ".join(POLICY_NAMES))) from None
    return factory()
