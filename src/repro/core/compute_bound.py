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
from collections.abc import Callable
from dataclasses import dataclass, field

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
    with :meth:`without`, sharing the pool array and its vertex →
    positions map (built once per family, on first use).
    """

    __slots__ = ("pool", "num_pieces", "excluded", "_positions")

    def __init__(
        self,
        pool,
        num_pieces: int,
        excluded: frozenset[tuple[int, int]] = frozenset(),
        _positions: dict[int, list[int]] | None = None,
    ) -> None:
        self.pool = pool
        self.num_pieces = int(num_pieces)
        self.excluded = excluded
        self._positions = _positions

    def without(self, vertex: int, piece: int) -> "CandidateSpace":
        """A child space with ``(vertex, piece)`` removed."""
        return CandidateSpace(
            self.pool,
            self.num_pieces,
            self.excluded | {(int(vertex), int(piece))},
            self._position_map(),
        )

    def _position_map(self) -> dict[int, list[int]]:
        """Every pool position of each pool vertex."""
        if self._positions is None:
            positions: dict[int, list[int]] = {}
            pool = np.asarray(self.pool, dtype=np.int64).tolist()
            for pos, v in enumerate(pool):
                positions.setdefault(v, []).append(pos)
            self._positions = positions
        return self._positions

    def available(self, plan: AssignmentPlan) -> np.ndarray:
        """``(l, |pool|)`` mask of the selectable cells given ``plan``.

        Cell ``(j, p)`` is ``(pool[p], j)``; it is unavailable when the
        plan already assigns that vertex to piece ``j`` or the pair was
        excluded by branching.  Each taken or excluded pair costs one
        lookup, not a pass over the pool, and every pool position of its
        vertex is masked in one scatter.
        """
        positions = self._position_map()
        taken = [(v, j) for j in range(self.num_pieces) for v in plan.seed_sets[j]]
        rows: list[int] = []
        cols: list[int] = []
        for v, j in (*taken, *self.excluded):
            for pos in positions.get(v, ()):
                rows.append(j)
                cols.append(pos)
        mask = np.ones((self.num_pieces, len(self.pool)), dtype=bool)
        mask[rows, cols] = False
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
        Number of ``tau`` marginal-gain evaluations of Algorithms 2/3
        (the cost unit of Theorem 4).  An inherited initial scan (see
        ``scan``) is charged as the evaluations it stands for, one per
        available cell, just as one batched scan dispatch counts one
        evaluation per candidate: the count measures the algorithm, not
        the NumPy dispatches, so reuse leaves it unchanged.
    selected:
        How many assignments the greedy added on top of the partial plan.
    scan:
        The raw ``(l, |pool|)`` initial pool scan (unavailable cells
        zero), or ``None`` when the bound never scanned.  The BAB driver
        hands it to the node's exclude child, whose scan it is up to one
        zeroed cell.
    """

    plan: AssignmentPlan
    lower: float
    upper: float
    first_pick: tuple[int, int] | None
    evaluations: int
    selected: int
    scan: np.ndarray | None = field(default=None, compare=False, repr=False)


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
    initial: np.ndarray | None = None,
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
    initial:
        Optional ``(l, |pool|)`` initial pool scan of this exact plan,
        base coverage and candidate space (unavailable cells zero), used
        in place of the bound's first scan.  The BAB driver passes the
        exclude child its parent's scan with the excluded cells zeroed;
        the bound, ``evaluations`` included, is identical to rescanning.
    """
    tau, available, budget, scan = _open_bound(
        mrr, table, adoption, partial_plan, candidates, k, base, index,
        initial,
    )
    if lazy:
        picks, scanned = _greedy_lazy(tau, available, budget, scan)
    else:
        picks, scanned = _greedy_plain(tau, available, budget, scan)
    return _bound_result(tau, partial_plan, picks, scanned)


def _open_bound(
    mrr, table, adoption, partial_plan, candidates, k, base, index, initial
):
    """Shared prologue of all bounds: ``(tau, available, budget, scan)``.

    ``scan()`` returns the initial ``(l, |pool|)`` pool scan: ``initial``
    when given, charged as one evaluation per available cell exactly as
    :meth:`TauState.pool_gains` charges, else a fresh scan.
    """
    if partial_plan.size > k:
        raise SolverError(
            f"partial plan already uses {partial_plan.size} > k = {k}"
        )
    if index is None:
        index = PoolIndex(mrr, candidates.pool)
    elif not np.array_equal(index.pool, candidates.pool):
        raise SolverError("pool index and candidate space disagree on the pool")
    available = candidates.available(partial_plan)
    if initial is not None and initial.shape != available.shape:
        raise SolverError(
            f"initial scan has shape {initial.shape}, the candidate space "
            f"{available.shape}"
        )
    if base is None:
        base = CoverageState.from_plan(mrr, partial_plan)
    tau = TauState(mrr, table, base, adoption, index=index)

    def scan() -> np.ndarray:
        if initial is None:
            return tau.pool_gains(available)
        tau.evaluations += int(np.count_nonzero(available))
        return initial

    return tau, available, k - partial_plan.size, scan


def _bound_result(
    tau: TauState,
    partial_plan: AssignmentPlan,
    picks: list[tuple[int, int]],
    scan: np.ndarray | None,
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
        scan=scan,
    )


def _greedy_plain(
    tau: TauState,
    available: np.ndarray,
    budget: int,
    scan: Callable[[], np.ndarray],
) -> tuple[list[tuple[int, int]], np.ndarray | None]:
    """Algorithm 2's literal loop: rescan every candidate per iteration.

    The rescan is one vectorised pool scan per piece — same gains, same
    first-maximum tie-breaking (flat cell order), same evaluation count
    as the per-candidate reference loop.  Unavailable cells scan as
    zero, so a positive maximum is always an available cell.  The first
    scan comes from ``scan()`` and is returned beside the picks.
    """
    pool = tau.index.pool
    vertices = pool.tolist()
    available = available.copy()
    picks: list[tuple[int, int]] = []
    scanned = None
    for _ in range(budget):
        if not available.any():
            break
        if scanned is None:
            scanned = scan()
            gains = scanned.ravel()
        else:
            gains = tau.pool_gains(available).ravel()
        best = int(np.argmax(gains))  # first maximum, like the scan loop
        if gains[best] <= 0.0:
            break
        j, pos = divmod(best, pool.size)
        v = vertices[pos]
        tau.add(v, j)
        available[j] &= pool != v
        picks.append((v, j))
    return picks, scanned


def _greedy_lazy(
    tau: TauState,
    available: np.ndarray,
    budget: int,
    scan: Callable[[], np.ndarray],
) -> tuple[list[tuple[int, int]], np.ndarray]:
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
    scanned = scan()
    flat = scanned.ravel()
    cells = np.flatnonzero(flat > 0.0)
    heap = [
        (-gain, cell, 0)
        for gain, cell in zip(flat[cells].tolist(), cells.tolist())
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
    return picks, scanned
