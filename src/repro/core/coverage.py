"""Incremental per-sample coverage bookkeeping over an MRR collection.

Every solver needs the same two quantities, updated as assignments are
added: which (sample, piece) cells are already covered, and how many
distinct pieces cover each sample (``counts``).  :class:`CoverageState`
maintains both with O(index lookup) updates; the cell set lives in a
:class:`~repro.core.bitset.PieceBitMatrix` — one ``theta``-byte bool row
per piece, copy-on-write — and ``counts`` in a matching
:class:`~repro.core.bitset.CowCounts`, so :meth:`CoverageState.copy` —
the branch-and-bound branching operation — is O(piece rows) instead of
an O(theta * l) dense copy, and a branch only ever pays for the rows
(or the counts array) it actually dirties.  Rows are bytes, not packed
bits, because every test and commit here touches one short slab: a
byte row answers it with one gather or one scatter, where packed words
paid several dispatches per call.  A small
``count_hist`` histogram (how many samples sit at each coverage count)
rides along, maintained incrementally, so the tau bound can anchor its
majorants in O(l) instead of an O(theta) per-sample gather.

The module also hosts the *batch* coverage kernels: instead of looping
candidate vertices in Python and slicing the inverted index once per
candidate, :func:`coverage_gains` gathers every candidate's index slab
into one flat array and reduces the uncovered flags with a single
segmented sum — one NumPy dispatch for the whole candidate pool.  The
gathers run through :meth:`MRRCollection.iter_index_slabs`, which
chunks them to the sample store's resident budget: on the in-RAM store
that is one dispatch exactly as before, while on a disk-sharded store a
whole-pool scan builds its coverage rows shard-by-shard without ever
materialising the dense slab concatenation.  The RIS greedy, the
baselines, and the tau bound all drive their marginal-gain scans
through these kernels; ``covered`` may be either a dense bool vector or
a packed :class:`~repro.core.bitset.SampleBitset`.  The RIS greedy's
single row stays packed: its scans are whole-pool, and its words feed
the compiled ``uncovered_segment_counts`` kernel.
"""

from __future__ import annotations

import numpy as np

from repro import native as _native
from repro.core.bitset import (
    COUNT_DTYPE,
    CowCounts,
    PieceBitMatrix,
    SampleBitset,
)
from repro.core.plan import AssignmentPlan
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.native import kernels as _nk
from repro.sampling.mrr import MRRCollection
from repro.utils.frontier import segment_sums

__all__ = ["CoverageState", "coverage_gains"]


def coverage_gains(
    mrr: MRRCollection,
    piece: int,
    vertices: np.ndarray,
    covered,
) -> np.ndarray:
    """Newly-covered sample counts for every candidate vertex at once.

    ``gains[i]`` is the number of ``piece`` RR sets containing
    ``vertices[i]`` that ``covered`` does not cover yet — exactly
    ``(~covered[mrr.samples_containing(piece, v)]).sum()`` for each
    candidate, computed with index gathers and segmented sums instead
    of a Python loop over candidates.  Gathers are chunked to the
    sample store's resident budget (one chunk — one dispatch — on the
    in-RAM store); each candidate's sum sees exactly its own slab, so
    gains are identical for every chunking.  ``covered`` is either a
    boolean array over the ``theta`` samples or a packed
    :class:`~repro.core.bitset.SampleBitset` (the RIS greedy's working
    set) — membership tests cost the same single dispatch either way.
    """
    packed = isinstance(covered, SampleBitset)
    if packed:
        if covered.size != mrr.theta:
            raise SolverError(
                f"covered bitset sized {covered.size}, expected {mrr.theta}"
            )
    elif covered.shape != (mrr.theta,):
        raise SolverError(
            f"covered must have shape ({mrr.theta},), got {covered.shape}"
        )
    vertices = np.asarray(vertices, dtype=np.int64)
    gains = np.zeros(vertices.size, dtype=np.int64)
    for samples, deg, lo, hi in mrr.iter_index_slabs(
        piece, vertices, exc=SolverError
    ):
        if samples.size == 0:
            continue
        if packed and _native.compiled():
            # Fused bit-test + segmented count: no intermediate mask or
            # gather arrays; the counts are integer-exact either way.
            _nk.uncovered_segment_counts(
                covered.words, samples, deg, gains[lo:hi]
            )
            continue
        hit = covered.test(samples) if packed else covered[samples]
        gains[lo:hi] = segment_sums(~hit, deg)
    return gains


class CoverageState:
    """Mutable (sample x piece) coverage induced by a growing plan."""

    __slots__ = ("mrr", "bits", "_counts", "count_hist")

    def __init__(self, mrr: MRRCollection) -> None:
        self.mrr = mrr
        self.bits = PieceBitMatrix(mrr.num_pieces, mrr.theta)
        self._counts = CowCounts(mrr.theta, dtype=COUNT_DTYPE)
        self.count_hist = np.zeros(mrr.num_pieces + 1, dtype=np.int64)
        self.count_hist[0] = mrr.theta

    @classmethod
    def from_plan(cls, mrr: MRRCollection, plan: AssignmentPlan) -> "CoverageState":
        """Build the state induced by an existing plan.

        Each piece's seed set commits in one :meth:`add_many` kernel
        call — this runs once per branch-and-bound node, so plan
        reconstruction stays off the per-candidate Python path.
        """
        state = cls(mrr)
        for j, seeds in enumerate(plan.seed_lists()):
            if seeds:
                state.add_many(np.asarray(seeds, dtype=np.int64), j)
        return state

    @property
    def counts(self) -> np.ndarray:
        """Per-sample distinct-piece coverage counts (read-only view).

        Mutating the returned array corrupts copy-on-write sharing —
        use :meth:`add` / :meth:`add_many`.
        """
        return self._counts.array

    @property
    def covered(self) -> np.ndarray:
        """Dense ``(theta, l)`` bool copy of the cell set.

        Materialised on demand for inspection and the historical API;
        mutating the returned array does not affect the state — use
        :meth:`add` / :meth:`add_many`.
        """
        return self.bits.to_bool()

    def copy(self) -> "CoverageState":
        """Independent copy (used when branching).

        Both the cell rows and the counts array are shared
        copy-on-write — O(l) now, one row (or counts) duplication per
        side that later dirties it — so no mutation of either state can
        ever reach the other through a shared slab.
        """
        clone = CoverageState.__new__(CoverageState)
        clone.mrr = self.mrr
        clone.bits = self.bits.copy()
        clone._counts = self._counts.clone()
        clone.count_hist = self.count_hist.copy()
        return clone

    # ------------------------------------------------------------------

    def _bump(self, fresh: np.ndarray) -> None:
        """Increment ``counts[fresh]``, keeping the histogram in step."""
        counts = self._counts.own()
        old = counts[fresh].astype(np.int64)
        counts[fresh] += 1
        width = self.count_hist.size
        self.count_hist -= np.bincount(old, minlength=width)
        self.count_hist += np.bincount(old + 1, minlength=width)

    def add(self, vertex: int, piece: int) -> np.ndarray:
        """Cover ``(vertex, piece)``; return sample ids newly covered.

        Idempotent per (sample, piece) cell: a sample already covered for
        ``piece`` is unaffected, matching the indicator semantics
        ``I[R_i^j ∩ S_j ≠ ∅]``.
        """
        self._check_cell(vertex, piece)
        samples = self.mrr.samples_containing(piece, vertex)
        if samples.size == 0:
            return samples
        fresh = samples[~self.bits.test(piece, samples)]
        if fresh.size:
            self.bits.set_many(piece, fresh)
            self._bump(fresh)
        return fresh

    def newly_covered(self, vertex: int, piece: int) -> np.ndarray:
        """Samples that *would* be newly covered, without mutating."""
        self._check_cell(vertex, piece)
        samples = self.mrr.samples_containing(piece, vertex)
        if samples.size == 0:
            return samples
        return samples[~self.bits.test(piece, samples)]

    def add_many(self, vertices, piece: int) -> np.ndarray:
        """Cover ``(v, piece)`` for every ``v``; return fresh sample ids.

        Vectorized commit: index gathers over all vertices replace
        per-vertex :meth:`add` calls, chunked to the store's resident
        budget so a disk-backed commit sets its coverage rows shard-by-shard.
        Returns the sample ids newly covered for ``piece``, sorted
        ascending (each reported once, even when several of the
        vertices share it).
        """
        fresh_chunks: list[np.ndarray] = []
        for samples, _deg, _lo, _hi in self.mrr.iter_index_slabs(
            piece, vertices, exc=SolverError
        ):
            if samples.size == 0:
                continue
            samples = np.unique(samples)
            fresh = samples[~self.bits.test(piece, samples)]
            if fresh.size:
                self.bits.set_many(piece, fresh)
                self._bump(fresh)
                fresh_chunks.append(fresh)
        if not fresh_chunks:
            return np.zeros(0, dtype=np.int64)
        if len(fresh_chunks) == 1:
            return fresh_chunks[0]
        # Chunks are disjoint (bits were set between them); sort so the
        # result matches the single-gather path's np.unique order.
        return np.sort(np.concatenate(fresh_chunks))

    def _check_cell(self, vertex: int, piece: int) -> None:
        """Both coordinates range-checked up front, failing loudly."""
        if not (0 <= piece < self.mrr.num_pieces):
            raise SolverError(
                f"piece {piece} outside [0, {self.mrr.num_pieces})"
            )
        if not (0 <= vertex < self.mrr.n):
            raise SolverError(f"vertex {vertex} outside [0, {self.mrr.n})")

    # ------------------------------------------------------------------

    def utility(self, adoption: AdoptionModel) -> float:
        """Current AU estimate (Eq. 6 over the tracked counts)."""
        return self.mrr.estimate_from_counts(self.counts, adoption)

    def __repr__(self) -> str:
        return (
            f"CoverageState(covered={self.bits.count_cells()} cells, "
            f"theta={self.mrr.theta}, pieces={self.mrr.num_pieces})"
        )
