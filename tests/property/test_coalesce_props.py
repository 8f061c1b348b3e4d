"""Property tests for the array coalescer.

``coalesce(addrs, writes)`` fuses a stretch of references given as two
sequences; ``coalesce_stream`` is the per-op reference that walks the
same single ops one by one.  On any stretch of references — zero
strides, negative strides, repeated addresses, kind changes anywhere —
the two must emit the same op list, and that list must expand back to
the input.  ``coalesce`` hands its op list out in chunks of at most
``COALESCE_CHUNK`` ops; the chunks are slices of that one list.
"""

import random
from array import array
from itertools import accumulate

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.ops import OP_READ, OP_WRITE
from repro.workloads.base import COALESCE_CHUNK, coalesce, coalesce_stream
from tests.conftest import expand_op

#: Address steps that make runs (0, +-8, 32) and break them (anything).
_STEP = st.one_of(st.sampled_from((0, 8, 8, -8, 32)),
                  st.integers(min_value=-4096, max_value=4096))


@st.composite
def references(draw):
    steps = draw(st.lists(_STEP, min_size=0, max_size=64))
    start = draw(st.integers(min_value=0, max_value=1 << 40))
    addrs = list(accumulate([start] + steps))[:len(steps)]
    writes = draw(st.lists(st.booleans(), min_size=len(steps),
                           max_size=len(steps)))
    return addrs, writes


@st.composite
def long_references(draw):
    """Stretches several chunks long, as the workloads pass them (an
    ``array('q')`` of addresses, ``bytes`` of write flags): seeded
    steps and kinds, each repeating its predecessor with a drawn
    probability, so runs of every length occur."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2 * COALESCE_CHUNK, 8 * COALESCE_CHUNK))

    def sticky(draw_value):
        # Where ``keep`` is drawn, repeat the previous value.
        keep = draw(st.floats(0.0, 0.9))
        values = [draw_value()]
        for _ in range(n - 1):
            values.append(values[-1] if rng.random() < keep
                          else draw_value())
        return values

    # 1 << 33: a stride past 32 bits.
    steps = sticky(lambda: rng.choice([0, 8, -8, 32, 4096, -4095, 1 << 33]))
    start = draw(st.integers(1 << 20, 1 << 40))
    writes = bytes(sticky(lambda: rng.random() < 0.3))
    return array("q", accumulate(steps, initial=start))[1:], writes


def joined(chunks):
    return [op for chunk in chunks for op in chunk]


def singles(addrs, writes):
    return [(OP_WRITE if w else OP_READ, a)
            for a, w in zip(addrs, writes)]


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
