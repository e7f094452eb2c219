"""Compact per-shard vertex-touch summaries for delta invalidation.

An RR-set expansion examines the in-edges of exactly the vertices it
visits, so a graph delta on edge ``(u, v)`` can only change RR sets
that *visited* ``v`` (the dirty head — see ``repro.incremental.delta``).
To invalidate precisely, every sample shard records a summary of the
vertices its RR sets contain, written at sample time and queried at
delta time:

- **exact** (kind 0): the sorted unique member list, used while it is
  small — zero false positives;
- **bloom** (kind 1): a fixed-``k`` Bloom filter over the members,
  used for large shards — no false *negatives* (a clean verdict is
  always safe), bounded false positives (a dirty verdict may resample
  a clean shard, which costs time, never correctness).

Both kinds are encoded as a single ``int64`` array so stores can drop
them into their existing ``.npz`` shard files untouched.  This module
depends only on ``numpy`` and :mod:`repro.utils.frontier`, so the
store layer can import it without pulling in :mod:`repro.incremental`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.frontier import stable_key_order

__all__ = ["touch_summary", "summary_may_touch"]

#: Switch from the exact member list to a Bloom filter above this many
#: unique vertices: 2048 int64s (16 KiB) per shard is the ceiling we
#: are willing to pay for exactness.
_EXACT_LIMIT = 2048

#: Bloom geometry: ~16 bits per member (k=4 → ~2.4% false positives),
#: floor 1024 bits, capped at 1 MiB of filter per shard.
_BLOOM_BITS_PER_MEMBER = 16
_BLOOM_MIN_BITS = 1 << 10
_BLOOM_MAX_BITS = 1 << 20
_BLOOM_K = 4

_KIND_EXACT = 0
_KIND_BLOOM = 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (vectorized)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _bloom_hashes(members: np.ndarray, bits: int) -> np.ndarray:
    """The ``k`` bit positions of each member via double hashing."""
    with np.errstate(over="ignore"):
        x = members.astype(np.uint64)
        h1 = _splitmix64(x)
        h2 = _splitmix64(x ^ np.uint64(0xD6E8FEB86659FD93)) | np.uint64(1)
        mask = np.uint64(bits - 1)
        idx = [(h1 + np.uint64(i) * h2) & mask for i in range(_BLOOM_K)]
    return np.concatenate(idx)


def touch_summary(nodes: np.ndarray, bound: int) -> np.ndarray:
    """Summarise the vertices one shard's RR sets touch.

    ``nodes`` is the shard's flat RR-set member array (duplicates
    fine), every entry in ``[0, bound)`` — stores pass their vertex
    count.  Returns an ``int64`` array: ``[0, m, v_1..v_m]`` (exact
    sorted-unique list) or ``[1, bits, word_0..]`` (Bloom filter words,
    bit ``p`` of the filter at bit ``p % 64`` of word ``p // 64``).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    # sorted distinct members: one radix-keyed sort, then each run's head
    members = nodes[stable_key_order(nodes, int(bound))]
    if members.size:
        head = np.empty(members.size, dtype=bool)
        head[0] = True
        np.not_equal(members[1:], members[:-1], out=head[1:])
        members = members[head]
    if members.size <= _EXACT_LIMIT:
        return np.concatenate(
            [
                np.array([_KIND_EXACT, members.size], dtype=np.int64),
                members,
            ]
        )
    bits = _BLOOM_MIN_BITS
    target = min(members.size * _BLOOM_BITS_PER_MEMBER, _BLOOM_MAX_BITS)
    while bits < target:
        bits <<= 1
    flags = np.zeros(bits, dtype=bool)
    flags[_bloom_hashes(members, bits)] = True
    words = np.packbits(flags, bitorder="little").view("<i8")
    return np.concatenate(
        [
            np.array([_KIND_BLOOM, bits], dtype=np.int64),
            words.astype(np.int64, copy=False),
        ]
    )


def summary_may_touch(summary: np.ndarray, vertices: np.ndarray) -> bool:
    """Whether any of ``vertices`` may appear in the summarised shard.

    ``False`` is definitive (no RR set in the shard contains any of
    the vertices); ``True`` may be a Bloom false positive.  An
    unrecognised summary kind degrades to ``True`` — newer writers
    must never make an older reader skip an invalidation.  Repeated
    or unsorted ``vertices`` are fine.
    """
    summary = np.asarray(summary, dtype=np.int64)
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return False
    if summary.size < 2:
        return True
    kind = int(summary[0])
    if kind == _KIND_EXACT:
        count = int(summary[1])
        members = summary[2 : 2 + count]
        pos = np.searchsorted(members, vertices)
        pos = np.minimum(pos, max(members.size - 1, 0))
        return bool(members.size and np.any(members[pos] == vertices))
    if kind == _KIND_BLOOM:
        bits = int(summary[1])
        if bits <= 0 or bits & (bits - 1):
            return True  # corrupt geometry: stay conservative
        words = summary[2 : 2 + bits // 64].view(np.uint64)
        if words.size != bits // 64:
            return True
        pos = _bloom_hashes(vertices, bits).reshape(_BLOOM_K, -1)
        hit = np.ones(vertices.size, dtype=bool)
        for row in pos:
            hit &= (
                words[row >> np.uint64(6)] >> (row & np.uint64(63))
            ) & np.uint64(1) != 0
        return bool(np.any(hit))
    return True
