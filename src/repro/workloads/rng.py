"""Seeded draws: numpy's legacy ``RandomState`` streams, standard library only.

The workload kernels build their inputs from seeded draws once, in
``setup``; nothing per reference is random.  Those inputs were first
drawn with ``numpy.random.RandomState(seed)``, and the reference streams
(and every stat the golden matrix pins) depend on them bit for bit.
:class:`RandomState` reproduces the legacy draws it needs on
:class:`random.Random`, which runs the same MT19937 generator:

* **Seeding** is MT19937's ``init_genrand(seed)``, the state numpy's
  legacy seeding installs for an integer seed, handed to
  :meth:`random.Random.setstate`.
* :meth:`~RandomState.random_sample` is :meth:`random.Random.random`:
  both are ``genrand_res53`` (two 32-bit words, 53 bits);
  :meth:`~RandomState.below` compares the same draws with a fraction.
* :meth:`~RandomState.randint` is numpy's masked rejection: draw a
  32-bit word (two for spans over 32 bits, the first one high), mask it
  to the span's bit width, retry while it exceeds the span.
* :meth:`~RandomState.permutation` is the legacy reversed Fisher-Yates
  shuffle of ``range(n)``, each swap index drawn on the same masked
  interval.
* :meth:`~RandomState.randn` is the legacy polar Box-Muller, which
  makes two normals per accepted pair and keeps the second for the
  next call, across calls to the other methods too.

Draws come back as lists (flags as ``bytes``), element for element
equal to numpy's arrays (``tests/workloads/test_rng.py`` checks them
against numpy where it is installed).
"""

from __future__ import annotations

import math
import random
from itertools import repeat

_MASK32 = 0xFFFFFFFF


class RandomState:
    """numpy's ``RandomState(seed)`` for an integer seed, as lists."""

    __slots__ = ("_random", "_gauss")

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK32:
            raise ValueError("Seed must be between 0 and 2**32 - 1")
        mt = [seed]
        for i in range(1, 624):
            prev = mt[-1]
            mt.append((1812433253 * (prev ^ prev >> 30) + i) & _MASK32)
        self._random = random.Random(0)
        # Index 624: the first draw regenerates the whole state, as it
        # does in numpy after seeding.
        self._random.setstate((3, tuple(mt) + (624,), None))
        self._gauss: "float | None" = None

    def random_sample(self, count: int) -> "list[float]":
        """``count`` uniform floats in ``[0, 1)``."""
        draw = self._random.random
        return [draw() for _ in repeat(None, count)]

    def below(self, count: int, fraction: float) -> bytes:
        """``count`` flags, 1 where a uniform draw is below ``fraction``:
        numpy's ``random_sample(count) < fraction``, without the floats
        (one flag per reference is the workloads' largest draw)."""
        draw = self._random.random
        return bytes([draw() < fraction for _ in repeat(None, count)])

    def randint(self, low: int, high: int, count: int) -> "list[int]":
        """``count`` integers in ``[low, high)``."""
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if span == 0:
            return [low] * count
        bits = self._random.getrandbits
        mask = (1 << span.bit_length()) - 1
        if span > _MASK32:
            return [low + self._masked(span, mask) for _ in range(count)]
        if span == mask:                # a power-of-two span never retries
            return [low + (bits(32) & mask) for _ in range(count)]
        out = []
        for _ in range(count):
            value = bits(32) & mask
            while value > span:
                value = bits(32) & mask
            out.append(low + value)
        return out

    def permutation(self, n: int) -> "list[int]":
        """A random ordering of ``range(n)`` (``n`` below ``2**32``)."""
        out = list(range(n))
        bits = self._random.getrandbits
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = bits(32) & mask
            while j > i:
                j = bits(32) & mask
            out[i], out[j] = out[j], out[i]
        return out

    def randn(self, count: int) -> "list[float]":
        """``count`` standard normal floats."""
        return [self._normal() for _ in range(count)]

    def _masked(self, span: int, mask: int) -> int:
        """One ``randint`` draw in ``[0, span]`` for a span over 32
        bits: 64-bit words, high word first."""
        bits = self._random.getrandbits
        while True:
            value = (bits(32) << 32 | bits(32)) & mask
            if value <= span:
                return value

    def _normal(self) -> float:
        cached = self._gauss
        if cached is not None:
            self._gauss = None
            return cached
        draw = self._random.random
        while True:
            x1 = 2.0 * draw() - 1.0
            x2 = 2.0 * draw() - 1.0
            r2 = x1 * x1 + x2 * x2
            if 0.0 < r2 < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(r2) / r2)
        self._gauss = f * x1
        return f * x2
