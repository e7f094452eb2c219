"""Exchange-based local search over assignment plans (an extension).

The paper's solvers stop at the branch-and-bound incumbent.  A natural
post-processing step — standard in the IM toolbox, and useful here
because BAB-P's progressive bound can leave budget unused — is
first-improvement *exchange* search over the plan space:

* **fill moves**: while the budget has slack, add the best
  (vertex, piece) assignment;
* **swap moves**: replace one existing assignment with a currently
  unused one (possibly for a different piece) whenever the estimated AU
  strictly improves.

The search only ever *increases* the MRR-estimated utility and
terminates at a plan that is 1-exchange-optimal.  The ablation
benchmark measures how much it recovers on top of BAB-P.

Moves are scored as coverage deltas, never by re-estimating a whole
plan.  Eq. 6 reads only the per-sample coverage counts, and adding
``(v, j)`` to a base plan raises by one exactly the samples of ``v``'s
piece-``j`` slab that the base leaves uncovered for ``j``.  So each base
plan (the current plan in a fill, the plan without ``v_out`` in a swap)
gets one :class:`~repro.core.coverage.CoverageState` and its
per-sample adoption probabilities, and a candidate is a copy of those
probabilities with its fresh samples moved up one count, summed.  The
slabs come from one per-solve :class:`~repro.core.upper_bound.PoolIndex`.
The candidate's array holds the same floats, in the same order, that
``mrr.estimate`` of the candidate plan sums, so every score — and with
it the move order, ties and the accumulated utility — is bit-equal to
the whole-plan evaluation (``tests/test_local_search.py`` keeps that
loop as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.core.upper_bound import PoolIndex
from repro.sampling.mrr import MRRCollection
from repro.utils.timer import Timer

__all__ = ["LocalSearchResult", "local_search"]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local-search pass."""

    plan: AssignmentPlan
    utility: float
    initial_utility: float
    fills: int
    swaps: int
    rounds: int
    elapsed_seconds: float

    @property
    def improvement(self) -> float:
        """Absolute AU gained over the starting plan."""
        return self.utility - self.initial_utility


class _MoveScorer:
    """Scores ``base + (v, j)`` for one base plan at a time (see module doc)."""

    __slots__ = (
        "mrr", "index", "table", "scale", "state", "counts", "probs", "base",
    )

    def __init__(self, problem: OIPAProblem, mrr: MRRCollection) -> None:
        self.mrr = mrr
        self.index = PoolIndex(mrr, problem.pool)
        # The per-count table and scale of MRRCollection.estimate_from_counts.
        self.table = problem.adoption.probability(np.arange(mrr.num_pieces + 1))
        self.scale = mrr.n / mrr.theta

    def rebase(self, plan: AssignmentPlan) -> float:
        """Make ``plan`` the base; return its estimate."""
        self.state = CoverageState.from_plan(self.mrr, plan)
        self.counts = self.state.counts
        self.probs = self.table.take(self.counts)
        self.base = float(self.scale * self.probs.sum())
        return self.base

    def score(self, vertex: int, piece: int) -> float:
        """Estimate of the base plus ``(vertex, piece)``."""
        samples = self.index.slab(piece, vertex)
        fresh = samples[~self.state.bits.test(piece, samples)]
        if not fresh.size:
            return self.base
        probs = self.probs.copy()
        probs[fresh] = self.table[self.counts[fresh] + 1]
        return float(self.scale * probs.sum())


def local_search(
    problem: OIPAProblem,
    mrr: MRRCollection,
    plan: AssignmentPlan,
    *,
    max_rounds: int = 10,
) -> LocalSearchResult:
    """Improve ``plan`` by greedy fill and first-improvement swaps.

    Parameters
    ----------
    problem, mrr:
        The instance and the sample collection scoring moves.
    plan:
        Starting plan (typically a solver incumbent).  Must be feasible.
    max_rounds:
        Upper bound on full passes.  A pass scores O(k * |V^p| * l)
        moves at O(theta) each (one slab test and one probability sum),
        plus one coverage rebuild per base plan, so keep this small on
        large pools.
    """
    problem.validate_plan(plan)
    timer = Timer().start()
    scorer = _MoveScorer(problem, mrr)
    initial = scorer.rebase(plan)
    current_plan = plan
    current = initial
    fills = swaps = rounds = 0
    pool = [int(v) for v in problem.pool]

    for _ in range(max_rounds):
        rounds += 1
        improved = False

        # Fill any remaining budget with the best single addition.
        while current_plan.size < problem.k:
            scorer.rebase(current_plan)
            best_gain, best_move = 0.0, None
            for j in range(problem.num_pieces):
                taken = current_plan.seed_sets[j]
                for v in pool:
                    if v in taken:
                        continue
                    gain = scorer.score(v, j) - current
                    if gain > best_gain:
                        best_gain, best_move = gain, (v, j)
            if best_move is None:
                break
            current_plan = current_plan.with_assignment(*best_move)
            current += best_gain
            fills += 1
            improved = True

        # First-improvement swap scan.
        swap_done = False
        for v_out, j_out in current_plan.assignments():
            reduced_sets = [set(s) for s in current_plan.seed_sets]
            reduced_sets[j_out].discard(v_out)
            reduced = AssignmentPlan(reduced_sets)
            scorer.rebase(reduced)
            for j_in in range(problem.num_pieces):
                taken = reduced.seed_sets[j_in]
                for v_in in pool:
                    if v_in in taken or (v_in, j_in) == (v_out, j_out):
                        continue
                    score = scorer.score(v_in, j_in)
                    if score > current + 1e-12:
                        current_plan = reduced.with_assignment(v_in, j_in)
                        current = score
                        swaps += 1
                        improved = swap_done = True
                        break
                if swap_done:
                    break
            if swap_done:
                break

        if not improved:
            break

    return LocalSearchResult(
        plan=current_plan,
        utility=current,
        initial_utility=initial,
        fills=fills,
        swaps=swaps,
        rounds=rounds,
        elapsed_seconds=timer.stop(),
    )
