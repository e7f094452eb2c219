"""The submodular upper-bound function ``tau`` over MRR samples (Def. 6).

For a partial plan ``S-bar^a`` with per-sample base counts ``b_i``,

    tau(S-bar | S-bar^a) = (n / theta) * sum_i phi_{b_i}( n_i(S-bar ∪ S-bar^a) )

where ``n_i`` is the sample's distinct-piece coverage count and
``phi_{b_i}`` is the concave majorant anchored at ``b_i``
(:class:`repro.core.tangent.MajorantTable`).  Because each ``phi`` is
nondecreasing and concave, and coverage counts are coverage functions,
``tau`` is a monotone submodular set function over (vertex, piece)
assignments — the property Theorems 2 and 3 rest on.

:class:`TauState` is the mutable greedy-evaluation state: it tracks the
covered cells and current counts, answers marginal-gain queries through
the MRR inverted index, and counts every evaluation (the quantity
Theorem 4 bounds, and the currency of the BAB-vs-BAB-P ablation).
Construction is O(l): the anchor sum folds the base coverage's count
histogram against the majorant diagonal instead of gathering an
O(theta) per-sample anchor array, and both count arrays are
copy-on-write clones of the base's — the first :meth:`add` pays the one
copy, while bound computations that never commit (pruned nodes) pay
nothing.

Every gain is one kernel: a slab's majorant gains, zeroed where the
cell is already covered, summed left to right (``np.add.reduceat``, the
reduction :func:`~repro.utils.frontier.segment_sums` applies per slab).
A slab of ~100 entries costs little as data, so its per-call dispatch
count sets the price: the covered cells are one gather from the piece's
byte row (:class:`~repro.core.bitset.PieceBitMatrix`), and the majorant
gains are one ``take`` on the flattened table
(:meth:`~repro.core.tangent.MajorantTable.gains_at`) instead of a 2-D
fancy index, then the covered entries are zeroed in place.
:meth:`TauState.marginal_gain` is the one-slab case of the batched
:meth:`TauState.marginal_gains` and :meth:`TauState.pool_gains`, so a
cached scan gain and a later re-evaluation of the same cell round
identically.  Only :meth:`TauState.add` sums its fresh subset pairwise,
which is what ``tau.value`` has always accumulated.  A commit directly
after :meth:`TauState.marginal_gain` of the same pair (the BAB-P sweep's
pattern, and CELF's when a re-evaluated entry tops its heap) reuses that
call's slab, covered mask and gathered values: ``values[~covered]``
are the floats a fresh gather returns, in the same order, so the pairwise sum
and every count are unchanged.  Any commit clears the remembered call.

:class:`PoolIndex` is the branch-and-bound solver's per-solve slab
cache.  The promoter pool is fixed for a whole solve, so the solver
gathers each piece's inverted-index slabs for the pool once — the
concatenated sample ids, per-pool-position slab starts and lengths, and
a vertex→position map — and every bound's initial scan, threshold-sweep
re-evaluation and commit reads a zero-copy view of it instead of
re-validating and re-gathering one slab per call.  Budget rule: the
index is resident only when the pool's slab bytes across all pieces
(``8 * sum(deg)``, computed from the ``idx_ptr`` degrees in O(pool))
fit the store's :attr:`~repro.sampling.store.SampleStore.gather_chunk_bytes`
(always on the in-RAM store).  Over budget it holds nothing: scans
stream through :meth:`MRRCollection.iter_index_slabs` and single slabs
come from :meth:`MRRCollection.samples_containing`, exactly as without
an index, so a disk store's ``max_resident_bytes`` contract holds.  The
choice is made once per solve; the arithmetic is the same code either
way, so results are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.coverage import CoverageState
from repro.core.tangent import MajorantTable
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.sampling.mrr import MRRCollection
from repro.utils.frontier import segment_sums
from repro.utils.validation import check_index_array

__all__ = ["PoolIndex", "TauState"]

_FIRST = np.zeros(1, dtype=np.int64)  # reduceat start of a one-slab sum


class PoolIndex:
    """One solve's promoter-pool inverted-index slabs, gathered once.

    ``pool`` is the candidate vertex array (pool order is scan order).
    When :attr:`resident`, piece ``j``'s slabs are one concatenated
    read-only sample-id array with per-position ``deg`` and bounds;
    otherwise nothing is held and every read goes to the collection
    (see the module docstring for the budget rule).
    """

    __slots__ = (
        "mrr",
        "pool",
        "resident",
        "_position",
        "_samples",
        "_deg",
        "_start",
        "_stop",
    )

    def __init__(self, mrr: MRRCollection, pool) -> None:
        pool = np.asarray(pool, dtype=np.int64)
        check_index_array("vertex", pool, mrr.n, exc=SolverError)
        self.mrr = mrr
        self.pool = pool
        budget = mrr.store.gather_chunk_bytes
        if budget is None:
            self.resident = True
        else:
            slab_bytes = 0
            for j in range(mrr.num_pieces):
                ptr = mrr.store.idx_ptr(j)
                slab_bytes += 8 * int((ptr[pool + 1] - ptr[pool]).sum())
            self.resident = slab_bytes <= budget
        self._position: dict[int, int] = {}
        self._samples: list[np.ndarray] = []
        self._deg: list[np.ndarray] = []
        self._start: list[list[int]] = []
        self._stop: list[list[int]] = []
        if not self.resident:
            return
        for pos, v in enumerate(pool.tolist()):
            self._position.setdefault(v, pos)
        for j in range(mrr.num_pieces):
            # Within budget, the chunked gather is a single chunk.
            samples, deg = mrr.gather_index_slabs(j, pool, exc=SolverError)
            samples.setflags(write=False)
            self._samples.append(samples)
            self._deg.append(deg)
            stop = np.cumsum(deg)
            self._start.append((stop - deg).tolist())
            self._stop.append(stop.tolist())

    def slab(self, piece: int, vertex: int) -> np.ndarray:
        """Sample ids whose ``piece`` RR set contains ``vertex``.

        A zero-copy view for a pool vertex of a resident index; any
        other request reads (and validates) through the collection.
        """
        pos = self._position.get(vertex)
        if pos is None or not (0 <= piece < len(self._start)):
            return self.mrr.samples_containing(piece, vertex)
        return self._samples[piece][
            self._start[piece][pos] : self._stop[piece][pos]
        ]

    def slabs(self, piece: int):
        """Every pool vertex's ``piece`` slab, as ``(samples, deg, lo, hi)``.

        The chunk protocol of :meth:`MRRCollection.iter_index_slabs`: one
        chunk when resident, the store-budgeted chunks otherwise.
        """
        if self.resident:
            yield self._samples[piece], self._deg[piece], 0, self.pool.size
        else:
            yield from self.mrr.iter_index_slabs(
                piece, self.pool, exc=SolverError
            )


class TauState:
    """Greedy-evaluation state of ``tau(. | S-bar^a)``.

    Construction freezes the *base* (the partial plan's coverage, whose
    counts anchor the majorants — the "refinement" step of Fig. 2);
    subsequent :meth:`add` calls grow the candidate set ``S-bar`` along
    those fixed majorants, which is exactly what keeps the function
    submodular throughout one ``ComputeBound`` invocation.

    The base coverage is consumed: its cell rows and counts are
    shared copy-on-write with this state, so the base itself is never
    mutated through the share, but callers must not mutate the base
    while relying on this state's ``base_counts`` staying anchored.
    """

    __slots__ = (
        "mrr",
        "table",
        "adoption",
        "_base_counts",
        "bits",
        "_counts",
        "scale",
        "evaluations",
        "_value",
        "index",
        "_memo",
    )

    def __init__(
        self,
        mrr: MRRCollection,
        table: MajorantTable,
        base_coverage: CoverageState,
        adoption: AdoptionModel,
        index: PoolIndex | None = None,
    ) -> None:
        if table.num_pieces != mrr.num_pieces:
            raise SolverError(
                f"majorant table built for l={table.num_pieces} but the MRR "
                f"collection has {mrr.num_pieces} pieces"
            )
        if index is not None and index.mrr is not mrr:
            raise SolverError("pool index was built on another collection")
        self.mrr = mrr
        self.table = table
        self.adoption = adoption
        self.index = index
        # Copy-on-write clones of the base's cell rows and counts:
        # O(l) here, and greedy growth only duplicates what it touches —
        # the base coverage is never written through the share.  The
        # frozen anchor counts are a second clone that is never mutated,
        # so they never pay a copy at all.
        self._base_counts = base_coverage._counts.clone()
        self.bits = base_coverage.bits.copy()
        self._counts = base_coverage._counts.clone()
        self.scale = mrr.n / mrr.theta
        self.evaluations = 0
        # The anchor sum over theta samples collapses to an O(l) fold of
        # the base's count histogram against the majorant diagonal:
        # sum_i phi_{b_i}(b_i) = sum_c hist[c] * values[c, c].
        hist = base_coverage.count_hist.astype(np.float64)
        self._value = float(self.scale * (hist * table.anchor_diag).sum())
        # The last marginal_gain's (vertex, piece, samples, fresh, values);
        # valid until the next add, which always clears it.
        self._memo = None

    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Current ``tau`` value (absolute, same scale as sigma)."""
        return self._value

    @property
    def base_counts(self) -> np.ndarray:
        """The frozen anchor counts ``b_i`` (read-only view)."""
        return self._base_counts.array

    @property
    def counts(self) -> np.ndarray:
        """The growing coverage counts (read-only view)."""
        return self._counts.array

    @property
    def covered(self) -> np.ndarray:
        """Dense ``(theta, l)`` bool copy of the cell set.

        Materialised on demand (inspection / historical API); mutating
        the returned array does not affect the state.
        """
        return self.bits.to_bool()

    def utility(self) -> float:
        """The *actual* AU estimate of the tracked coverage (Eq. 6)."""
        return self.mrr.estimate_from_counts(self.counts, self.adoption)

    def _slab(self, piece: int, vertex: int) -> np.ndarray:
        if self.index is not None:
            return self.index.slab(piece, vertex)
        return self.mrr.samples_containing(piece, vertex)

    def _slab_values(
        self, piece: int, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(covered, values)``: which of ``samples``' cells are already
        covered, and their majorant gains, zero where covered."""
        covered = self.bits.test(piece, samples)
        values = self.table.gains_at(
            self._base_counts.array[samples], self._counts.array[samples]
        )
        values[covered] = 0.0
        return covered, values

    def _scan(self, piece: int, chunks, size: int) -> np.ndarray:
        gains = np.zeros(size, dtype=np.float64)
        for samples, deg, lo, hi in chunks:
            if samples.size:
                gains[lo:hi] = segment_sums(
                    self._slab_values(piece, samples)[1], deg
                )
        return self.scale * gains

    def marginal_gain(self, vertex: int, piece: int) -> float:
        """``tau`` gain of adding ``(vertex, piece)`` — no mutation.

        Each call is one tau evaluation (Theorem 4's unit of work).  The
        one-slab case of :meth:`marginal_gains`: bit-identical to
        ``marginal_gains([vertex], piece)[0]``.  The slab, its covered
        mask and values are remembered for an :meth:`add` of the same
        pair that follows before any other commit.
        """
        self.evaluations += 1
        samples = self._slab(piece, vertex)
        if samples.size == 0:
            return 0.0
        covered, vals = self._slab_values(piece, samples)
        self._memo = (vertex, piece, samples, covered, vals)
        return float(self.scale * np.add.reduceat(vals, _FIRST)[0])

    def marginal_gains(self, vertices, piece: int) -> np.ndarray:
        """``tau`` gains of every ``(v, piece)`` candidate — no mutation.

        Vectorized counterpart of :meth:`marginal_gain`: the candidates'
        inverted-index slabs are gathered into flat arrays and their
        majorant gains reduced with segmented sums, so a whole candidate
        scan costs one NumPy dispatch per store-budget chunk (a single
        dispatch on the in-RAM store) instead of one Python iteration
        per candidate.  Each candidate still counts as one tau
        evaluation (Theorem 4's unit of work is unchanged), and each
        candidate's gain sees exactly its own slab, so results are
        identical for every chunking.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        self.evaluations += int(vertices.size)
        chunks = self.mrr.iter_index_slabs(piece, vertices, exc=SolverError)
        return self._scan(piece, chunks, vertices.size)

    def pool_gains(self, available: np.ndarray) -> np.ndarray:
        """Gains of every (piece, pool position) cell of the index.

        ``available`` is an ``(l, |pool|)`` bool mask; the result has
        its shape, with unavailable cells zero.  One scan per piece
        with any available cell; only available cells count as tau
        evaluations.
        """
        gains = np.zeros(available.shape, dtype=np.float64)
        for j in range(available.shape[0]):
            mask = available[j]
            if mask.any():
                gains[j] = self._scan(j, self.index.slabs(j), mask.size)
                gains[j, ~mask] = 0.0
        self.evaluations += int(np.count_nonzero(available))
        return gains

    def add(self, vertex: int, piece: int) -> float:
        """Commit ``(vertex, piece)``; return the realised ``tau`` gain.

        Directly after :meth:`marginal_gain` of the same pair (no commit
        between), its remembered evaluation is reused: ``values[~covered]``
        holds exactly the floats a fresh gather would, in slab order, so
        the sum is unchanged.
        """
        memo, self._memo = self._memo, None
        if memo is not None and memo[0] == vertex and memo[1] == piece:
            _, _, samples, covered, values = memo
            fresh_mask = ~covered
            fresh = samples[fresh_mask]
            gains = values[fresh_mask]
        else:
            samples = self._slab(piece, vertex)
            if samples.size == 0:
                return 0.0
            fresh = samples[~self.bits.test(piece, samples)]
            gains = self.table.gains_at(
                self.base_counts[fresh], self.counts[fresh]
            )
        if fresh.size == 0:
            return 0.0
        gain = float(self.scale * gains.sum())
        self.bits.set_many(piece, fresh)
        self._counts.own()[fresh] += 1
        self._value += gain
        return gain

    def __repr__(self) -> str:
        return (
            f"TauState(value={self._value:.6g}, "
            f"evaluations={self.evaluations})"
        )
