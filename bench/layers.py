"""Charge the host time of a cProfile run to the program's layers.

A function defined under ``src/repro/<package>/`` belongs to the layer
named after its package (``repro/__init__.py`` and ``__main__.py``, the
command-line entry, belong to ``harness``).  The benchmark's own files
belong to ``other``.  Everything else -- built-ins, C functions, the
standard library, numpy -- owns no layer: its self time is charged to
its callers in proportion to the time each caller spent in it, walking
up through further such functions until a layer is reached.
"""

from __future__ import annotations

import os

from common import BENCH_DIR, LAYERS, OTHER, SRC

_REPRO_DIR = os.path.join(SRC, "repro") + os.sep
_BENCH_DIR = BENCH_DIR + os.sep


def layer_of(filename: str) -> "str | None":
    """The layer owning code defined in ``filename``; None for code
    outside the program and the benchmark."""
    if filename.startswith(_REPRO_DIR):
        package, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
        if not sep:
            return "harness"
        return package if package in LAYERS else OTHER
    if filename.startswith(_BENCH_DIR):
        return OTHER
    return None


def attribute(stats) -> "dict[str, tuple[float, int]]":
    """``{layer: (self_seconds, python_calls)}`` from ``pstats.Stats``.

    ``python_calls`` counts calls of the layer's own functions
    (generator resumptions included).  The self seconds of all layers
    add up to the profile's total.
    """
    raw = stats.stats
    owners_of: "dict[tuple, dict[str, float]]" = {}

    def owners(func, seen: frozenset) -> "dict[str, float]":
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners_of:
            return owners_of[func]
        # callers[caller] = (calls, primitive calls, self time, total).
        callers = {caller: edge for caller, edge in raw[func][4].items()
                   if caller not in seen and caller in raw}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        shares: "dict[str, float]" = {}
        if total <= 0:
            shares[OTHER] = 1.0
        else:
            seen = seen | {func}
            for caller, weight in weights.items():
                for layer, share in owners(caller, seen).items():
                    shares[layer] = (shares.get(layer, 0.0)
                                     + share * weight / total)
        owners_of[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0)
    for func, (_cc, nc, tt, _ct, _callers) in raw.items():
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += nc
        for owner, share in owners(func, frozenset()).items():
            self_s[owner] += tt * share
    return {layer: (self_s[layer], calls[layer]) for layer in self_s}
