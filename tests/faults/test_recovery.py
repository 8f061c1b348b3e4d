"""Recovery primitives in isolation: retry policy and sequence dedup."""

import pytest

from repro.faults import RetryPolicy
from repro.interconnect.messages import MessageKind, SequenceTracker

pytestmark = pytest.mark.faults


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(timeout_cycles=1_000, max_retries=4, backoff=2.0)
        assert [policy.timeout(a) for a in range(4)] == [
            1_000, 2_000, 4_000, 8_000]

    def test_defaults_bound_the_total_wait(self):
        policy = RetryPolicy()
        total = sum(policy.timeout(a) for a in range(policy.max_retries))
        assert total < 10 ** 6   # a stall, never an effective hang

    def test_disabled_policy_has_no_retries(self):
        assert RetryPolicy.disabled().max_retries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_cycles=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestSequenceTracker:
    def test_stamps_are_monotonic_per_link(self):
        seqs = SequenceTracker()
        assert [seqs.stamp(0, 1) for _ in range(3)] == [0, 1, 2]
        # An independent link starts its own sequence.
        assert seqs.stamp(1, 0) == 0

    def test_fresh_messages_accepted_in_order(self):
        seqs = SequenceTracker()
        for seq in range(3):
            assert seqs.accept(0, 1, seq)
        assert seqs.dedup_drops == 0

    def test_replayed_seq_is_dropped(self):
        seqs = SequenceTracker()
        assert seqs.accept(0, 1, seqs.stamp(0, 1))
        assert not seqs.accept(0, 1, 0)    # exact duplicate
        assert seqs.dedup_drops == 1
        # ... but the same seq on another link is fine.
        assert seqs.accept(2, 1, 0)

    def test_older_seq_is_dropped(self):
        seqs = SequenceTracker()
        assert seqs.accept(0, 1, 5)
        assert not seqs.accept(0, 1, 3)
        assert seqs.accept(0, 1, 6)

