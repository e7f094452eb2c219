"""``ComputeBound`` — greedy upper-bound estimation (Algorithm 2).

Given a partial plan ``S-bar^a`` and the remaining candidate space, the
routine (1) anchors the majorants at the partial plan's coverage ("refine
tau", Fig. 2), (2) greedily selects up to ``k - |S-bar^a|`` further
(vertex, piece) assignments maximising the marginal gain of the
submodular ``tau``, and (3) returns the completed candidate plan, its
actual AU estimate (a global lower bound), and the ``tau`` value (the
subspace's upper bound).  Submodularity gives the greedy the classic
(1 − 1/e) guarantee, which Theorem 2 lifts to the whole framework.

Both the literal rescanning greedy of Algorithm 2 and a lazy (CELF-style)
variant are provided.  They select identical sets — laziness is sound for
any submodular function — but the lazy variant performs far fewer ``tau``
evaluations; the ablation benchmark measures the difference.

Candidates are cells of an ``(l, |pool|)`` availability mask
(:meth:`CandidateSpace.available`) scanned against a
:class:`~repro.core.upper_bound.PoolIndex`: one vectorised pass per
piece over the whole pool, with taken and excluded cells masked out and
not counted as evaluations.  Flat cell order is piece-major, then pool
order — the order of :meth:`CandidateSpace.pairs`, which every
tie-break follows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import PoolIndex, TauState
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.sampling.mrr import MRRCollection

__all__ = [
    "BoundResult",
    "CandidateSpace",
    "compute_bound",
]


class CandidateSpace:
    """The per-piece availability sets ``Vp = {V_1, ..., V_l}`` of Alg. 1.

    Starts as the full promoter pool for every piece; branching removes
    individual (vertex, piece) pairs.  Immutable — children are created
    with :meth:`without`, sharing the pool array.
    """

    __slots__ = ("pool", "num_pieces", "excluded")

    def __init__(
        self,
        pool,
        num_pieces: int,
        excluded: frozenset[tuple[int, int]] = frozenset(),
    ) -> None:
        self.pool = pool
        self.num_pieces = int(num_pieces)
        self.excluded = excluded

    def without(self, vertex: int, piece: int) -> "CandidateSpace":
        """A child space with ``(vertex, piece)`` removed."""
        return CandidateSpace(
            self.pool, self.num_pieces, self.excluded | {(int(vertex), int(piece))}
        )

    def available(self, plan: AssignmentPlan) -> np.ndarray:
        """``(l, |pool|)`` mask of the selectable cells given ``plan``.

        Cell ``(j, p)`` is ``(pool[p], j)``; it is unavailable when the
        plan already assigns that vertex to piece ``j`` or the pair was
        excluded by branching.
        """
        pool = np.asarray(self.pool, dtype=np.int64)
        mask = np.ones((self.num_pieces, pool.size), dtype=bool)
        for j in range(self.num_pieces):
            for v in plan.seed_sets[j]:
                mask[j, pool == v] = False
        for v, j in self.excluded:
            mask[j, pool == v] = False
        return mask

    def pairs(self, plan: AssignmentPlan) -> list[tuple[int, int]]:
        """All selectable (vertex, piece) pairs, piece-major, pool order."""
        pool = np.asarray(self.pool, dtype=np.int64).tolist()
        pieces, positions = np.nonzero(self.available(plan))
        return [
            (pool[p], j) for j, p in zip(pieces.tolist(), positions.tolist())
        ]

    def __len__(self) -> int:
        return self.num_pieces * len(self.pool) - len(self.excluded)


@dataclass(frozen=True)
class BoundResult:
    """Output of one bound computation (Alg. 2 line 7 / Alg. 3 line 16).

    Attributes
    ----------
    plan:
        The completed candidate plan ``S-bar ∪ S-bar^a``.
    lower:
        Its actual AU estimate ``sigma(S-bar ∪ S-bar^a)`` — a valid
        global lower bound.
    upper:
        ``tau(S-bar | S-bar^a)`` — the subspace's upper bound used for
        pruning.
    first_pick:
        The first greedy-selected (vertex, piece), i.e. the next branch
        variable; ``None`` when nothing with positive gain remained.
    evaluations:
        Number of ``tau`` marginal-gain evaluations performed (the cost
        unit of Theorem 4).
    selected:
        How many assignments the greedy added on top of the partial plan.
    """

    plan: AssignmentPlan
    lower: float
    upper: float
    first_pick: tuple[int, int] | None
    evaluations: int
    selected: int


def compute_bound(
    mrr: MRRCollection,
    table: MajorantTable,
    adoption: AdoptionModel,
    partial_plan: AssignmentPlan,
    candidates: CandidateSpace,
    k: int,
    *,
    lazy: bool = True,
    base: CoverageState | None = None,
    index: PoolIndex | None = None,
) -> BoundResult:
    """Run Algorithm 2 for one search node.

    Parameters
    ----------
    mrr, table, adoption:
        The shared sampling collection, majorant table and adoption model.
    partial_plan:
        ``S-bar^a`` — the node's committed assignments.
    candidates:
        The remaining availability sets.
    k:
        The *total* budget; the greedy selects ``k - |partial_plan|``.
    lazy:
        Use CELF-style lazy evaluation (identical output, fewer
        evaluations).  ``False`` reproduces the literal rescanning loop.
    base:
        Optional pre-built coverage of ``partial_plan``.  The BAB driver
        derives each child's base from the parent node's via a
        copy-on-write clone plus one :meth:`CoverageState.add` — the
        final covered cells and counts are set-identical to a fresh
        ``from_plan`` rebuild, so bounds are unchanged; only the
        reconstruction cost disappears.  The state is consumed (anchored
        by the tau evaluation) and must not be reused by the caller.
    index:
        The pool's slab index (:class:`~repro.core.upper_bound.PoolIndex`
        over ``candidates.pool``).  The BAB driver builds one per solve;
        a standalone call builds its own.  Bounds are identical either
        way.
    """
    tau, available, budget = _open_bound(
        mrr, table, adoption, partial_plan, candidates, k, base, index
    )
    if lazy:
        picks = _greedy_lazy(tau, available, budget)
    else:
        picks = _greedy_plain(tau, available, budget)
    return _bound_result(tau, partial_plan, picks)


def _open_bound(mrr, table, adoption, partial_plan, candidates, k, base, index):
    """Shared prologue of both bounds: ``(tau, available, budget)``."""
    if partial_plan.size > k:
        raise SolverError(
            f"partial plan already uses {partial_plan.size} > k = {k}"
        )
    if index is None:
        index = PoolIndex(mrr, candidates.pool)
    elif not np.array_equal(index.pool, candidates.pool):
        raise SolverError("pool index and candidate space disagree on the pool")
    if base is None:
        base = CoverageState.from_plan(mrr, partial_plan)
    tau = TauState(mrr, table, base, adoption, index=index)
    return tau, candidates.available(partial_plan), k - partial_plan.size


def _bound_result(
    tau: TauState, partial_plan: AssignmentPlan, picks: list[tuple[int, int]]
) -> BoundResult:
    """Package a finished greedy: the plan is built once from ``picks``."""
    seed_sets = [set(s) for s in partial_plan.seed_sets]
    for v, j in picks:
        seed_sets[j].add(v)
    return BoundResult(
        plan=AssignmentPlan(seed_sets),
        lower=tau.utility(),
        upper=tau.value,
        first_pick=picks[0] if picks else None,
        evaluations=tau.evaluations,
        selected=len(picks),
    )


def _greedy_plain(
    tau: TauState, available: np.ndarray, budget: int
) -> list[tuple[int, int]]:
    """Algorithm 2's literal loop: rescan every candidate per iteration.

    The rescan is one vectorised pool scan per piece — same gains, same
    first-maximum tie-breaking (flat cell order), same evaluation count
    as the per-candidate reference loop.  Unavailable cells scan as
    zero, so a positive maximum is always an available cell.
    """
    pool = tau.index.pool
    vertices = pool.tolist()
    available = available.copy()
    picks: list[tuple[int, int]] = []
    for _ in range(budget):
        if not available.any():
            break
        gains = tau.pool_gains(available).ravel()
        best = int(np.argmax(gains))  # first maximum, like the scan loop
        if gains[best] <= 0.0:
            break
        j, pos = divmod(best, pool.size)
        v = vertices[pos]
        tau.add(v, j)
        available[j] &= pool != v
        picks.append((v, j))
    return picks


def _greedy_lazy(
    tau: TauState, available: np.ndarray, budget: int
) -> list[tuple[int, int]]:
    """CELF lazy greedy: stale upper bounds re-evaluated on demand.

    Sound because ``tau`` is submodular: a candidate's cached gain can
    only shrink as the set grows, so an entry re-evaluated at the current
    set size that still tops the heap is the true argmax.  The initial
    full scan — the dominant cost — is one vectorised pool scan per
    piece; on-demand re-evaluations use the one-slab case of the same
    kernel so cached and fresh gains round identically.  Heap ties break
    on the flat cell index, i.e. piece-major pool order.
    """
    vertices = tau.index.pool.tolist()
    size = len(vertices)
    initial = tau.pool_gains(available).ravel()
    cells = np.flatnonzero(initial > 0.0)
    heap = [
        (-gain, cell, 0)
        for gain, cell in zip(initial[cells].tolist(), cells.tolist())
    ]
    heapq.heapify(heap)
    picks: list[tuple[int, int]] = []
    while heap and len(picks) < budget:
        _, cell, evaluated_at = heapq.heappop(heap)
        j, pos = divmod(cell, size)
        pair = (vertices[pos], j)
        if evaluated_at == len(picks):
            tau.add(*pair)
            picks.append(pair)
            continue
        gain = tau.marginal_gain(*pair)
        if gain > 0.0:
            heapq.heappush(heap, (-gain, cell, len(picks)))
    return picks
