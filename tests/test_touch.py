"""Per-shard touch summaries (``repro.sampling.touch``).

``touch_summary`` builds its member list without ``np.unique`` and its
Bloom words without ``np.bitwise_or.at``; the summaries are stored in
shard files and compared across runs, so they must stay byte-identical
to the original construction, kept below as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sampling import touch
from repro.sampling.touch import summary_may_touch, touch_summary


def oracle_touch_summary(nodes) -> np.ndarray:
    """The original construction: ``np.unique`` + ``bitwise_or.at``."""
    members = np.unique(np.asarray(nodes, dtype=np.int64))
    if members.size <= touch._EXACT_LIMIT:
        return np.concatenate(
            [
                np.array([touch._KIND_EXACT, members.size], dtype=np.int64),
                members,
            ]
        )
    bits = touch._BLOOM_MIN_BITS
    target = min(
        members.size * touch._BLOOM_BITS_PER_MEMBER, touch._BLOOM_MAX_BITS
    )
    while bits < target:
        bits <<= 1
    words = np.zeros(bits // 64, dtype=np.uint64)
    pos = touch._bloom_hashes(members, bits)
    np.bitwise_or.at(
        words, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
    )
    return np.concatenate(
        [
            np.array([touch._KIND_BLOOM, bits], dtype=np.int64),
            words.view(np.int64),
        ]
    )


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes()


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTouchSummaryPin:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 12_000),
        # one and two radix digits, and the argsort fallback past 2**32
        bound=st.sampled_from([1, 7, 300, 5_000, 1 << 16, 70_000, 1 << 33]),
    )
    @SETTINGS
    def test_matches_original_construction(self, seed, size, bound):
        nodes = np.random.default_rng(seed).integers(0, bound, size=size)
        got = touch_summary(nodes, bound)
        _assert_same_bytes(got, oracle_touch_summary(nodes))

    @pytest.mark.parametrize("unique", [5, 2048, 2049, 40_000, 200_000])
    def test_both_regimes_with_duplicates(self, unique):
        """Exact up to the limit, Bloom past it (up to the bit cap);
        every member repeated, in shuffled order."""
        rng = np.random.default_rng(unique)
        n = 4 * unique
        members = rng.choice(n, size=unique, replace=False)
        nodes = rng.permutation(np.repeat(members, 3))
        got = touch_summary(nodes, n)
        kind = touch._KIND_EXACT if unique <= 2048 else touch._KIND_BLOOM
        assert got[0] == kind
        _assert_same_bytes(got, oracle_touch_summary(nodes))

    @pytest.mark.parametrize("bound", [1, 10_000])
    def test_empty_input(self, bound):
        empty = np.zeros(0, dtype=np.int64)
        got = touch_summary(empty, bound)
        _assert_same_bytes(got, oracle_touch_summary(empty))
        assert not summary_may_touch(got, [0, 3])

    def test_bloom_has_no_false_negatives(self):
        nodes = np.random.default_rng(3).integers(0, 50_000, size=20_000)
        summary = touch_summary(nodes, 50_000)
        assert summary[0] == touch._KIND_BLOOM
        for v in np.unique(nodes)[::97]:
            assert summary_may_touch(summary, [v])


class TestMayTouch:
    @pytest.mark.parametrize("size", [50, 20_000])
    def test_unsorted_repeated_queries(self, size):
        """Queries need no dedup: exact summaries answer membership
        exactly, Bloom summaries never miss a member."""
        rng = np.random.default_rng(size)
        nodes = rng.integers(0, 30_000, size=size)
        summary = touch_summary(nodes, 30_000)
        members = set(nodes.tolist())
        for _ in range(50):
            query = rng.integers(0, 30_000, size=rng.integers(1, 6))
            query = np.concatenate([query, query[::-1]])
            hit = any(int(v) in members for v in query)
            got = summary_may_touch(summary, query)
            if summary[0] == touch._KIND_EXACT:
                assert got == hit
            else:
                assert got or not hit
