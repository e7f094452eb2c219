"""Shared primitives for frontier-at-a-time graph kernels.

Both the batched RR sampler and the vectorized forward-cascade kernel
expand a whole frontier of vertices per step: gather every adjacency
slab of the frontier into one flat edge-slot array, coin-flip the slab
with a single ``rng.random`` call, then deduplicate the surviving
endpoints.  The helpers here implement those pieces once, in a form
careful about two contracts:

* slab order is *frontier order* (entry ``i``'s edges occupy one
  contiguous run, runs concatenated in frontier order), so a frontier
  held in discovery order consumes the rng stream in exactly the same
  order as the per-vertex reference loops;
* deduplication preserves first-occurrence order, so discovery order —
  and with it rng-stream equality against the reference kernels — is
  maintained across levels (:func:`first_occurrence`, O(f), no sort).

:class:`Int64Buffer` is the amortized-doubling append buffer used to
accumulate CSR node arrays without materialising a Python list of
per-root chunks: one backing array (at most 2x the result) replaces
len(roots) small ndarray objects plus the final ``np.concatenate``
copy — ``to_array`` right-sizes the backing array in place instead of
copying, so the backing array *is* the peak.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Int64Buffer",
    "first_occurrence",
    "frontier_edge_slots",
    "segment_sums",
    "stable_key_order",
]


class Int64Buffer:
    """Append-only int64 array with amortized-doubling growth."""

    __slots__ = ("_data", "_size")

    def __init__(self, capacity: int = 16) -> None:
        self._data = np.empty(max(int(capacity), 1), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def extend(self, values: np.ndarray) -> None:
        """Append ``values``, growing the backing array geometrically."""
        needed = self._size + values.size
        if needed > self._data.size:
            capacity = self._data.size
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed

    def to_array(self) -> np.ndarray:
        """The accumulated values, right-sized in place (no copy).

        Ownership of the backing array transfers to the caller: the
        shrink is a C-level ``realloc``, so peak memory stays at the
        backing array itself.  The buffer resets to empty and may be
        reused afterwards.
        """
        data = self._data
        data.resize(self._size, refcheck=False)
        self._data = np.empty(1, dtype=np.int64)
        self._size = 0
        return data


def frontier_edge_slots(
    ptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-slot indices of every frontier adjacency slab, concatenated.

    Returns ``(edge_idx, deg)`` where ``deg[i]`` is frontier entry
    ``i``'s degree and ``edge_idx`` lists the CSR slots of all slabs in
    frontier order — equivalent to concatenating
    ``arange(ptr[v], ptr[v + 1])`` for each ``v`` without a Python loop.
    """
    deg = ptr[frontier + 1] - ptr[frontier]
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), deg
    cum = np.cumsum(deg)
    edge_idx = np.repeat(ptr[frontier] + deg - cum, deg) + np.arange(
        total, dtype=np.int64
    )
    return edge_idx, deg


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` split into runs of ``lengths``.

    ``values`` holds the segments back to back (the layout
    :func:`frontier_edge_slots` produces); segment ``i`` spans
    ``values[sum(lengths[:i]) : sum(lengths[:i+1])]``.  Zero-length
    segments sum to zero.  Summation within a segment is sequential
    (``np.add.reduceat``), matching left-to-right scalar accumulation.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    values = np.asarray(values)
    if values.dtype == bool:
        values = values.astype(np.int64)
    out = np.zeros(lengths.size, dtype=values.dtype)
    nonempty = lengths > 0
    if values.size == 0 or not nonempty.any():
        return out
    starts = np.cumsum(lengths) - lengths
    out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def first_occurrence(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Distinct ``keys`` in first-occurrence order, in O(len(keys)).

    ``np.minimum.at`` leaves each key's int64 ``scratch`` cell holding
    the smallest of its positions ``-f .. -1`` (fancy assignment has no
    defined order among duplicates).  Those cells are left negative: a
    caller keeping positive stamps in ``scratch`` rewrites them itself.
    """
    pos = np.arange(-keys.size, 0, dtype=np.int64)
    scratch[keys] = 0
    np.minimum.at(scratch, keys, pos)
    return keys[scratch[keys] == pos]


def stable_key_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    LSD passes over uint16 digits, which NumPy sorts in O(N) by radix:
    one pass up to ``bound = 2**16``, two up to ``2**32``, else argsort.
    """
    if bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 16:
        high = (keys[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order
