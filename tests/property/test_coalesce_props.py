"""Property tests for the array coalescer.

``coalesce(addrs, writes)`` finds run ops with array arithmetic;
``coalesce_stream`` is the per-op reference that walks the same single
ops one by one.  On any stretch of references — zero strides, negative
strides, repeated addresses, kind changes anywhere — the two must emit
the same op list, and that list must expand back to the input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.ops import OP_READ, OP_WRITE, expand_op
from repro.workloads.base import coalesce, coalesce_stream

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


def singles(addrs, writes):
    return [(OP_WRITE if w else OP_READ, a)
            for a, w in zip(addrs.tolist(), writes.tolist())]


@settings(max_examples=400, deadline=None)
@given(references())
def test_array_coalescer_matches_the_stream_coalescer(refs):
    addrs, writes = refs
    assert coalesce(addrs, writes) == list(
        coalesce_stream(iter(singles(addrs, writes))))


@settings(max_examples=200, deadline=None)
@given(references())
def test_array_coalescer_expands_to_its_input(refs):
    addrs, writes = refs
    ops = coalesce(addrs, writes)
    assert [s for op in ops for s in expand_op(op)] == singles(addrs, writes)
    assert len(ops) <= len(addrs)
