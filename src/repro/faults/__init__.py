"""Deterministic fault-injection & resilience subsystem.

PRISM's nodes run independent kernels; the inter-node protocol is the
only coupling between them, so it is exactly the surface where a real
machine degrades when links misbehave or a node stalls.  This package
models that surface:

* :mod:`repro.faults.plan` — a :class:`FaultPlan` DSL describing *what*
  goes wrong: drop / duplicate / delay / reorder a message class with
  probability *p* inside a simulated-time window, pause a node, cut a
  set of links, or hard-fail a node at a chosen time.
* :mod:`repro.faults.injector` — the :class:`FaultInjector` fault plane
  that executes a plan against the interconnect with a dedicated seeded
  RNG (reproducible; byte-identical to a fault-free run when the plan
  is empty) plus the :class:`RetryPolicy` recovery layer: per-request
  timeout, bounded retransmission with exponential backoff, and
  sequence-numbered receiver-side dedup.
* :mod:`repro.faults.campaign` — chaos campaigns (`repro chaos`): each
  run hands a fresh injector to the conformance driver of
  :mod:`repro.verify` (``run_litmus``), whose SC checker asserts that
  under every sampled fault plan a run either completes with a
  sequentially-consistent history, or fails cleanly with
  :class:`~repro.core.controller.NodeFailedError` — never hangs, never
  silently corrupts.  Nothing here imports :mod:`repro.obs`: a traced
  chaos run is traced by that driver.
"""

from repro.faults.campaign import (ChaosCampaign, ChaosReport, ChaosRun,
                                   Verdict, run_chaos)
from repro.faults.injector import FaultInjector, FaultStats, RetryPolicy
from repro.faults.plan import (FaultPlan, LinkPartition, MessageRule,
                               NodeFailure, NodePause, resolve_kinds)

__all__ = [
    "ChaosCampaign",
    "ChaosReport",
    "ChaosRun",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LinkPartition",
    "MessageRule",
    "NodeFailure",
    "NodePause",
    "RetryPolicy",
    "Verdict",
    "resolve_kinds",
    "run_chaos",
]
