"""Property tests for the array coalescer.

``coalesce(addrs, writes)`` finds run ops with array arithmetic;
``coalesce_stream`` is the per-op reference that walks the same single
ops one by one.  On any stretch of references — zero strides, negative
strides, repeated addresses, kind changes anywhere — the two must emit
the same op list, and that list must expand back to the input.
``coalesce`` hands its op list out in chunks of at most
``COALESCE_CHUNK`` ops; the chunks are slices of that one list.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.ops import OP_READ, OP_WRITE, expand_op
from repro.workloads.base import COALESCE_CHUNK, coalesce, coalesce_stream

#: Address steps that make runs (0, +-8, 32) and break them (anything).
_STEP = st.one_of(st.sampled_from((0, 8, 8, -8, 32)),
                  st.integers(min_value=-4096, max_value=4096))


@st.composite
def references(draw):
    steps = draw(st.lists(_STEP, min_size=0, max_size=64))
    start = draw(st.integers(min_value=0, max_value=1 << 40))
    addrs = np.cumsum([start] + steps, dtype=np.int64)[:len(steps)]
    writes = np.array(draw(st.lists(st.booleans(), min_size=len(steps),
                                    max_size=len(steps))), dtype=bool)
    return addrs, writes


@st.composite
def long_references(draw):
    """Stretches several chunks long: seeded steps and kinds, each
    repeating its predecessor with a drawn probability, so runs of
    every length occur."""
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2 * COALESCE_CHUNK, 8 * COALESCE_CHUNK))

    def sticky(values):
        # Forward-fill: where ``keep`` is set, repeat the previous value.
        keep = rng.rand(n) < draw(st.floats(0.0, 0.9))
        keep[0] = False
        source = np.maximum.accumulate(np.where(keep, 0, np.arange(n)))
        return values[source]

    # 1 << 33: a run whose stride does not fit the compact int32 array.
    steps = sticky(rng.choice([0, 8, -8, 32, 4096, -4095, 1 << 33], n))
    addrs = draw(st.integers(1 << 20, 1 << 40)) + np.cumsum(steps)
    return addrs.astype(np.int64), sticky(rng.rand(n) < 0.3)


def joined(chunks):
    return [op for chunk in chunks for op in chunk]


def singles(addrs, writes):
    return [(OP_WRITE if w else OP_READ, a)
            for a, w in zip(addrs.tolist(), writes.tolist())]


@settings(max_examples=400, deadline=None)
@given(references())
def test_array_coalescer_matches_the_stream_coalescer(refs):
    addrs, writes = refs
    assert joined(coalesce(addrs, writes)) == list(
        coalesce_stream(iter(singles(addrs, writes))))


@settings(max_examples=200, deadline=None)
@given(references())
def test_array_coalescer_expands_to_its_input(refs):
    addrs, writes = refs
    ops = joined(coalesce(addrs, writes))
    assert [s for op in ops for s in expand_op(op)] == singles(addrs, writes)
    assert len(ops) <= len(addrs)


@settings(max_examples=60, deadline=None)
@given(long_references())
def test_chunks_are_bounded_slices_of_the_op_list(refs):
    addrs, writes = refs
    chunks = list(coalesce(addrs, writes))
    assume(len(chunks) > 1)
    assert all(len(chunk) == COALESCE_CHUNK for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= COALESCE_CHUNK
    ops = joined(chunks)
    assert ops == list(coalesce_stream(iter(singles(addrs, writes))))
    assert [s for op in ops for s in expand_op(op)] == singles(addrs, writes)
