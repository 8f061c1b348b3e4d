"""The standard-library RandomState draws numpy's legacy streams.

Every method must equal ``numpy.random.RandomState`` draw for draw,
over seeds at both ends of the 32-bit range, with calls interleaved
(the Box-Muller cache survives other draws) and ``randint`` spans of
32 bits and more.  numpy is only the oracle; the pinned values and
the seed check run without it.
"""

import pytest

from repro.workloads.rng import RandomState

SEEDS = (0, 5, 12345, 20260809, 2 ** 32 - 1)


def test_pinned_first_draws():
    # numpy.random.RandomState(0).random_sample(3) and .randint(0, 10, 5)
    assert RandomState(0).random_sample(3) == [
        0.5488135039273248, 0.7151893663724195, 0.6027633760716439]
    assert RandomState(0).randint(0, 10, 5) == [5, 0, 3, 3, 7]


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 40])
def test_seed_outside_32_bits_is_rejected(seed):
    with pytest.raises(ValueError):
        RandomState(seed)


def test_empty_span_is_rejected_and_a_single_value_draws_nothing():
    rng = RandomState(3)
    with pytest.raises(ValueError):
        rng.randint(4, 4, 1)
    assert rng.randint(7, 8, 3) == [7, 7, 7]
    assert rng.random_sample(1) == RandomState(3).random_sample(1)


#: ``(method, args)`` steps, run in this order on both generators.
STEPS = [
    ("random_sample", (17,)),
    ("randn", (13,)),                       # odd: leaves a cached normal
    ("randint", (0, 1000, 50)),             # masked, with rejections
    ("random_sample", (3,)),
    ("randn", (4,)),                        # starts from the cached one
    ("randint", (-5, 8, 40)),               # negative low
    ("randint", (0, 1 << 16, 40)),          # power-of-two span
    ("randint", (0, 1 << 32, 9)),           # the full 32-bit span
    ("randint", (3, (1 << 32) + 7, 20)),    # just over 32 bits
    ("randint", (-9, (1 << 40) + 3, 20)),   # two words, high first
    ("randint", (0, 1 << 62, 8)),
    ("permutation", (97,)),
    ("permutation", (1,)),
    ("randn", (1,)),
    ("randint", (7, 8, 3)),                 # one value: no draw
    ("random_sample", (5,)),
    ("below", (300, 0.25)),
    ("randn", (3,)),
    ("below", (7, 1)),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_method_matches_numpy_interleaved(seed):
    np = pytest.importorskip("numpy")
    ours, theirs = RandomState(seed), np.random.RandomState(seed)
    for method, args in STEPS:
        if method == "randint":
            want = theirs.randint(*args, dtype=np.int64)
        elif method == "below":
            count, fraction = args
            want = theirs.random_sample(count) < fraction
        else:
            want = getattr(theirs, method)(*args)
        assert list(getattr(ours, method)(*args)) == want.tolist(), \
            (method, args)


@pytest.mark.parametrize("seed", SEEDS)
def test_long_streams_match_numpy(seed):
    np = pytest.importorskip("numpy")
    ours, theirs = RandomState(seed), np.random.RandomState(seed)
    assert ours.randn(20001) == theirs.randn(20001).tolist()
    assert ours.permutation(4096) == theirs.permutation(4096).tolist()
    assert ours.randint(0, 192, 5000) == theirs.randint(0, 192,
                                                        5000).tolist()
    assert ours.random_sample(5000) == theirs.random_sample(5000).tolist()
