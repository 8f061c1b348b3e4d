"""Property tests for the run-op producers.

``coalesce(addrs, writes)`` fuses a stretch of references given as two
sequences; ``coalesce_stream`` is the per-op reference that walks the
same single ops one by one.  On any stretch of references — zero
strides, negative strides, repeated addresses, kind changes anywhere —
the two must emit the same op list, and that list must expand back to
the input.  ``coalesce`` hands its op list out in chunks of at most
``COALESCE_CHUNK`` ops; the chunks are slices of that one list.  The
synthetic sweep and ``SharedArray.read_run``/``write_run`` build run
ops directly; expanded, theirs are exactly the references they stand
for.
"""

import random
from array import array
from itertools import accumulate

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
from repro.sim.ops import OP_COMPUTE, OP_READ, OP_WRITE
from repro.workloads.base import (COALESCE_CHUNK, SharedArray, coalesce,
                                  coalesce_stream)
from repro.workloads.synthetic import SyntheticWorkload
from tests.conftest import expand_op, run_flags

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


def by_content(ops):
    """The ops with each run's flags as its own bytes: ``coalesce``
    points into the caller's flags, ``coalesce_stream`` builds its
    own."""
    return [run_flags(op) for op in ops]


def singles(addrs, writes):
    return [(OP_WRITE if w else OP_READ, a)
            for a, w in zip(addrs, writes)]


@settings(max_examples=400, deadline=None)
@given(references())
def test_array_coalescer_matches_the_stream_coalescer(refs):
    addrs, writes = refs
    assert by_content(joined(coalesce(addrs, writes))) == by_content(
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
    assert by_content(ops) == by_content(
        coalesce_stream(iter(singles(addrs, writes))))
    assert [s for op in ops for s in expand_op(op)] == singles(addrs, writes)


def expand(ops):
    return [s for op in ops for s in expand_op(op)]


@settings(max_examples=200, deadline=None)
@given(references(), st.lists(st.integers(0, 64), max_size=4))
def test_stream_coalescer_expands_to_its_input(refs, breaks):
    # Non-reference ops anywhere end a run and pass through unchanged.
    stream = singles(*refs)
    for at in sorted(breaks, reverse=True):
        stream.insert(min(at, len(stream)), (OP_COMPUTE, at))
    ops = list(coalesce_stream(iter(stream)))
    assert expand(ops) == stream
    assert len(ops) <= len(stream)


def _layout():
    return AddressSpaceLayout(GlobalIpcServer(2, 1024), 1024)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 7),
       st.lists(st.sampled_from((0, 1)), max_size=40))
def test_sweep_expands_to_its_laps(span, first, flags):
    # Any span (1: a stride-0 run), any number of laps (a last lap of
    # one reference, a wrap after every lap, none at all).
    wl = SyntheticWorkload("block", shared_kb=1)
    wl.setup(_layout(), 1)
    writes = bytes(flags)
    addrs = [wl.array.addr(first + i % span) for i in range(len(writes))]
    ops = joined(wl._sweep(first, span, writes))
    assert ops == joined(coalesce(addrs, writes))
    assert expand(ops) == singles(addrs, writes)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64), st.integers(1, 70), st.integers(-3, 3),
       st.sampled_from(("read_run", "write_run")))
def test_uniform_runs_expand_to_their_elements(index, count, stride, which):
    array = SharedArray(_layout(), key=1, num_elems=512, elem_bytes=8)
    index += 3 * 70              # room for negative strides
    kind = OP_WRITE if which == "write_run" else OP_READ
    op = getattr(array, which)(index, count, stride)
    assert expand([op]) == [(kind, array.addr(index + i * stride))
                            for i in range(count)]
