"""Coverage-set primitives for the coverage engine.

The solvers' coverage bookkeeping is set membership over ``theta``
samples, per piece.  Two containers hold it:

* :class:`PieceBitMatrix` — one ``theta``-long bool row per piece with
  per-row copy-on-write; the backing store of
  :class:`repro.core.coverage.CoverageState` and
  :class:`repro.core.upper_bound.TauState`.  Cloning a state for a BAB
  branch is O(number of piece rows), and only rows the branch actually
  dirties are ever duplicated.  A row is one byte per cell, not one
  bit: the bound loop tests and sets ~100-entry slabs, where the fixed
  per-call cost of word packing (gather, shift, mask, grouped OR)
  outweighed the data, while on bytes a test is one gather
  (``row[samples]``) and a set is one scatter.  A dirtied row costs
  ``theta`` bytes instead of ``theta / 8``.
* :class:`SampleBitset` — a flat ``uint64``-word bitset over the
  ``theta`` samples of one piece; the RIS max-coverage greedy's
  ``covered`` vector.  It stays packed: it is a single row scanned over
  whole candidate pools, and its words feed the compiled
  ``uncovered_segment_counts`` kernel (:mod:`repro.native.kernels`).

All index arrays are int64 sample ids; every test and set is one NumPy
dispatch (a few for packed words), with no Python loop over samples.
"""

from __future__ import annotations

import numpy as np

from repro import native as _native
from repro.native import kernels as _nk

__all__ = [
    "COUNT_DTYPE",
    "CowCounts",
    "PieceBitMatrix",
    "SampleBitset",
    "pack_bool",
    "popcount",
    "unpack_words",
]

#: Per-sample coverage counts are bounded by the number of pieces, so
#: int16 (32k pieces) is plenty — 4x less branch-copy traffic than the
#: historical int64 counts.
COUNT_DTYPE = np.int16

_ONE = np.uint64(1)
_WORD_SHIFT = 6  # log2(64)
_BIT_MASK = np.int64(63)


def _num_words(num_bits: int) -> int:
    return (int(num_bits) + 63) >> _WORD_SHIFT


def _bit_masks(bits: np.ndarray) -> np.ndarray:
    """``1 << (bits mod 64)`` as uint64, for int64 bit positions."""
    return _ONE << (bits & _BIT_MASK).astype(np.uint64)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across ``words`` (uint64).

    With the compiled tier live this is one word-at-a-time SWAR loop
    (no ``bitwise_count`` intermediate array); the count is exact
    either way, so the kernel is used whenever it is compiled,
    independent of the backend knob.
    """
    if words.size == 0:
        return 0
    if _native.compiled():
        return int(_nk.popcount_words(words))
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
        return int(np.bitwise_count(words).sum())
    return int(np.unpackbits(words.view(np.uint8)).sum())


def pack_bool(mask: np.ndarray) -> np.ndarray:
    """Pack a 1-D bool array into uint64 words (bit ``i`` = ``mask[i]``)."""
    mask = np.asarray(mask, dtype=bool)
    words = np.zeros(_num_words(mask.size), dtype=np.uint64)
    set_bits(words, np.flatnonzero(mask))
    return words


def unpack_words(words: np.ndarray, num_bits: int) -> np.ndarray:
    """The inverse of :func:`pack_bool`: words back to a bool array."""
    bits = np.arange(num_bits, dtype=np.int64)
    return test_bits(words, bits)


def test_bits(words: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Boolean mask: is each of ``bits`` set in ``words``?

    ``bits`` may contain duplicates and be in any order; the result
    aligns with ``bits``.
    """
    if bits.size == 0:
        return np.zeros(0, dtype=bool)
    gathered = words[bits >> _WORD_SHIFT]
    return (gathered >> (bits & _BIT_MASK).astype(np.uint64)) & _ONE != 0


def set_bits(words: np.ndarray, bits: np.ndarray) -> None:
    """Set every bit in ``bits`` (duplicates allowed) in ``words``.

    Grouped by word: masks are OR-reduced per touched word
    (``np.bitwise_or.reduceat``) and committed with one fancy-indexed
    OR, so the cost is one dispatch regardless of how many bits share a
    word.
    """
    if bits.size == 0:
        return
    word_idx = bits >> _WORD_SHIFT
    masks = _bit_masks(bits)
    if word_idx.size > 1 and (word_idx[1:] < word_idx[:-1]).any():
        order = np.argsort(word_idx, kind="stable")
        word_idx, masks = word_idx[order], masks[order]
    starts = np.flatnonzero(
        np.concatenate(([True], word_idx[1:] != word_idx[:-1]))
    )
    words[word_idx[starts]] |= np.bitwise_or.reduceat(masks, starts)


class SampleBitset:
    """A packed bitset over ``size`` sample ids."""

    __slots__ = ("size", "words")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        self.size = int(size)
        if words is None:
            words = np.zeros(_num_words(size), dtype=np.uint64)
        self.words = words

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "SampleBitset":
        return cls(len(mask), pack_bool(mask))

    def test(self, bits: np.ndarray) -> np.ndarray:
        """Membership mask for ``bits`` (no bounds check — hot path)."""
        return test_bits(self.words, bits)

    def set_many(self, bits: np.ndarray) -> None:
        """Add ``bits`` to the set (idempotent)."""
        set_bits(self.words, bits)

    def count(self) -> int:
        """Popcount: how many bits are set."""
        return popcount(self.words)

    def copy(self) -> "SampleBitset":
        return SampleBitset(self.size, self.words.copy())

    def to_bool(self) -> np.ndarray:
        """Materialise the dense bool view (tests / compat only)."""
        return unpack_words(self.words, self.size)

    def __repr__(self) -> str:
        return f"SampleBitset(size={self.size}, set={self.count()})"


class CowCounts:
    """Copy-on-write per-sample counts — the coverage rows' scalar sibling.

    The coverage states carry one O(theta) ``counts`` array next to the
    cell rows; eagerly duplicating it on every branch clone (and twice
    per :class:`~repro.core.upper_bound.TauState` construction) would
    cost O(theta) per branch.  Like
    :meth:`PieceBitMatrix.copy`, :meth:`clone` shares the backing array
    and marks both holders shared; the first mutation on either side —
    via :meth:`own` — pays the one copy, and read-only holders (a
    pruned BAB node, a tau state that never commits) never pay it.

    ``array`` is the read view; callers must route every write through
    ``own()`` first, mirroring ``PieceBitMatrix._own_row``.
    """

    __slots__ = ("array", "_shared")

    def __init__(self, size: int, dtype=COUNT_DTYPE) -> None:
        self.array = np.zeros(int(size), dtype=dtype)
        self._shared = False

    def own(self) -> np.ndarray:
        """The counts array, privately owned (duplicating if shared)."""
        if self._shared:
            self.array = self.array.copy()
            self._shared = False
        return self.array

    def clone(self) -> "CowCounts":
        """O(1) copy-on-write clone; the array is duplicated on write."""
        clone = CowCounts.__new__(CowCounts)
        clone.array = self.array
        clone._shared = True
        self._shared = True
        return clone

    def __repr__(self) -> str:
        return (
            f"CowCounts(size={self.array.size}, shared={self._shared})"
        )


class PieceBitMatrix:
    """Per-piece bool coverage rows with copy-on-write cloning.

    :meth:`copy` shares every row between parent and clone and marks
    them shared; the first mutation of a row — on either side — pays
    one ``theta``-byte row duplication, and untouched rows are never
    copied.  A BAB branch that dirties one piece therefore costs one
    row instead of O(theta * l), while both states stay fully
    independent: no write is ever visible across the share.
    """

    __slots__ = ("num_pieces", "num_samples", "_rows", "_shared")

    def __init__(self, num_pieces: int, num_samples: int) -> None:
        self.num_pieces = int(num_pieces)
        self.num_samples = int(num_samples)
        self._rows = [
            np.zeros(self.num_samples, dtype=bool)
            for _ in range(self.num_pieces)
        ]
        self._shared = [False] * self.num_pieces

    def copy(self) -> "PieceBitMatrix":
        """O(l) copy-on-write clone; rows are duplicated only on write."""
        clone = PieceBitMatrix.__new__(PieceBitMatrix)
        clone.num_pieces = self.num_pieces
        clone.num_samples = self.num_samples
        clone._rows = list(self._rows)
        clone._shared = [True] * self.num_pieces
        self._shared = [True] * self.num_pieces
        return clone

    def _own_row(self, piece: int) -> np.ndarray:
        """The piece's row, privately owned (duplicating if shared)."""
        if self._shared[piece]:
            self._rows[piece] = self._rows[piece].copy()
            self._shared[piece] = False
        return self._rows[piece]

    def test(self, piece: int, samples: np.ndarray) -> np.ndarray:
        """Membership mask of ``samples`` in ``piece``'s row (one gather)."""
        return self._rows[piece][samples]

    def set_many(self, piece: int, samples: np.ndarray) -> None:
        """Set ``samples`` in ``piece``'s row (idempotent, CoW-safe)."""
        if samples.size == 0:
            return
        self._own_row(piece)[samples] = True

    def count_cells(self) -> int:
        """Total set cells across all pieces (the repr diagnostic)."""
        return sum(int(np.count_nonzero(row)) for row in self._rows)

    def to_bool(self) -> np.ndarray:
        """Materialise the dense ``(num_samples, num_pieces)`` bool view."""
        out = np.empty((self.num_samples, self.num_pieces), dtype=bool)
        for j, row in enumerate(self._rows):
            out[:, j] = row
        return out

    def __repr__(self) -> str:
        return (
            f"PieceBitMatrix(pieces={self.num_pieces}, "
            f"samples={self.num_samples}, set={self.count_cells()})"
        )
