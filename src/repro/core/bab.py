"""The branch-and-bound framework (Algorithm 1): ``BAB`` and ``BAB-P``.

A max-heap holds partial plans ordered by their upper-bound estimate; in
each iteration the most promising node is popped, a branch variable — the
first (vertex, piece) its greedy bound computation selected — is chosen,
and two children are created: *include* (commit the assignment) and
*exclude* (remove the pair from the piece's availability set, Alg. 1
lines 9-12).  Each child's ``ComputeBound`` (plain greedy, Alg. 2) or
``ComputeBoundPro`` (progressive, Alg. 3) returns both a complete
candidate plan (a global lower bound) and the subspace's ``tau`` upper
bound; children whose upper bound cannot beat the incumbent are pruned.

Termination: when the best remaining upper bound no longer exceeds the
incumbent (the ``L >= U`` loop condition) — or, as in the paper's
experiments (Sec. VI-A), as soon as the relative gap falls within
``gap_tolerance`` (they use 1 %).  With the greedy bound this yields the
(1 − 1/e) guarantee of Theorem 2; with the progressive bound,
(1 − 1/e − eps) per Theorem 3 — both with respect to the MRR-estimated
objective.

The heap is keyed on the bound with a monotone push counter as the
deterministic tie-break, and ``incumbent=`` seeds the lower bound.  The
promoter pool is fixed for the whole solve, so the solver builds one
:class:`~repro.core.upper_bound.PoolIndex` up front: each piece's
inverted-index slabs for the pool, gathered once, which every bound's
initial scan, threshold sweep and commits then read as zero-copy views.
It is resident only when the pool's slab bytes fit the store's gather
budget (always in RAM); over budget every read streams through the
collection as before.  Either way every ``SolverResult`` — plan,
utility, upper bound and each diagnostics counter, ``tau_evaluations``
included — is bit-identical to re-gathering per evaluation.

The exclude child of lines 9-12 keeps its parent's plan and base
coverage, so its initial pool scan is the parent's with ``v*``'s cells
of piece ``j*`` zeroed.  Each heap node therefore keeps the raw
``(l, |pool|)`` initial scan of its bound (``BoundResult.scan``) until
it is popped, and its exclude child starts from a zeroed copy instead
of rescanning.  The inherited scan is charged as one tau evaluation per
available cell, as the rescan would be, so ``tau_evaluations`` is
unchanged.  Extra memory is at most ``heap_peak * l * |pool| * 8``
bytes: about 100 KB for a 130-vertex pool, l=5 and a heap of 20.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.compute_bound import (
    BoundResult,
    CandidateSpace,
    compute_bound,
)
from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.core.progressive import compute_bound_progressive
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import PoolIndex
from repro.exceptions import BudgetExhaustedError, SolverError
from repro.sampling.mrr import MRRCollection
from repro.utils.timer import Timer
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "SolverDiagnostics",
    "SolverResult",
    "BranchAndBoundSolver",
    "solve_bab",
    "solve_bab_progressive",
]


@dataclass
class SolverDiagnostics:
    """Work counters for one solve — the ablation benchmarks' currency."""

    nodes_expanded: int = 0
    nodes_pruned: int = 0
    bounds_computed: int = 0
    tau_evaluations: int = 0
    incumbent_updates: int = 0
    heap_peak: int = 0
    elapsed_seconds: float = 0.0
    termination: str = "unknown"


@dataclass(frozen=True)
class SolverResult:
    """A solved OIPA instance."""

    plan: AssignmentPlan
    utility: float
    upper_bound: float
    diagnostics: SolverDiagnostics = field(compare=False)

    @property
    def gap(self) -> float:
        """Relative optimality gap ``(U - L) / L`` (inf when L = 0)."""
        if self.utility <= 0:
            return math.inf if self.upper_bound > 0 else 0.0
        return max(0.0, (self.upper_bound - self.utility) / self.utility)


class _Node:
    """One heap entry: a partial plan, its branch variable and the raw
    initial pool scan of its bound (inherited by its exclude child)."""

    __slots__ = ("plan", "candidates", "first_pick", "scan")

    def __init__(
        self, plan: AssignmentPlan, candidates: CandidateSpace, bound: BoundResult
    ) -> None:
        self.plan = plan
        self.candidates = candidates
        self.first_pick = bound.first_pick
        self.scan = bound.scan


class BranchAndBoundSolver:
    """Configurable Algorithm 1 driver.

    Parameters
    ----------
    problem:
        The OIPA instance.
    mrr:
        The MRR collection the objective is estimated on.
    bound:
        ``"greedy"`` (Algorithm 2 — the paper's BAB) or ``"progressive"``
        (Algorithm 3 — BAB-P).
    epsilon:
        Threshold-decay parameter for the progressive bound (Fig. 3's
        sweep; the paper settles on 0.5).
    gap_tolerance:
        Relative early-termination gap; the experiments use 0.01.  Zero
        runs the search until ``L >= U``.
    lazy:
        Use lazy (CELF) evaluation inside the greedy bound.  Identical
        selections, fewer tau evaluations.  Defaults to ``False`` — the
        paper's Algorithm 2 is the plain rescanning greedy, and the
        BAB-vs-BAB-P efficiency comparison (Fig. 4's time panels,
        Theorem 4) is stated against that plain loop.  Set ``True`` for
        the engineering-ablation benchmark.
    majorant:
        ``"tangent"`` (the paper's Fig. 2 construction) or ``"chord"``
        (tighter discrete envelope; ablation option).
    max_nodes:
        Safety cap on heap pops.  When hit, the incumbent is returned
        with ``termination = "node_budget"`` unless ``strict_budget``.
    strict_budget:
        Raise :class:`BudgetExhaustedError` instead of returning on a
        node-budget hit.
    incumbent:
        Optional warm-start plan (e.g. the previous solve's answer on
        an updated collection).  Validated against the problem, scored
        on ``mrr``, and adopted as the initial incumbent when it beats
        the root bound's candidate — its estimate is a sound lower
        bound wherever the plan came from, so the search only gains
        pruning power; the returned plan is unchanged unless the warm
        plan genuinely wins.
    """

    def __init__(
        self,
        problem: OIPAProblem,
        mrr: MRRCollection,
        *,
        bound: str = "greedy",
        epsilon: float = 0.5,
        gap_tolerance: float = 0.01,
        lazy: bool = False,
        majorant: str = "tangent",
        max_nodes: int = 100_000,
        strict_budget: bool = False,
        incumbent: AssignmentPlan | None = None,
    ) -> None:
        if bound not in ("greedy", "progressive"):
            raise SolverError(
                f"bound must be 'greedy' or 'progressive', got {bound!r}"
            )
        if mrr.num_pieces != problem.num_pieces:
            raise SolverError(
                f"MRR collection has {mrr.num_pieces} pieces, problem has "
                f"{problem.num_pieces}"
            )
        if mrr.n != problem.graph.n:
            raise SolverError("MRR collection and problem graph sizes differ")
        check_non_negative("gap_tolerance", gap_tolerance)
        if bound == "progressive":
            check_positive("epsilon", epsilon)
        self.problem = problem
        self.mrr = mrr
        self.bound_kind = bound
        self.epsilon = float(epsilon)
        self.gap_tolerance = float(gap_tolerance)
        self.lazy = bool(lazy)
        self.max_nodes = int(max_nodes)
        self.strict_budget = bool(strict_budget)
        if incumbent is not None:
            problem.validate_plan(incumbent)
        self.warm_incumbent = incumbent
        self.table = MajorantTable(
            problem.adoption, problem.num_pieces, method=majorant
        )
        self.index = PoolIndex(mrr, problem.pool)

    # ------------------------------------------------------------------

    def _compute_bound(
        self,
        plan: AssignmentPlan,
        candidates: CandidateSpace,
        base: CoverageState | None = None,
        initial: np.ndarray | None = None,
    ) -> BoundResult:
        if self.bound_kind == "greedy":
            return compute_bound(
                self.mrr,
                self.table,
                self.problem.adoption,
                plan,
                candidates,
                self.problem.k,
                lazy=self.lazy,
                base=base,
                index=self.index,
                initial=initial,
            )
        return compute_bound_progressive(
            self.mrr,
            self.table,
            self.problem.adoption,
            plan,
            candidates,
            self.problem.k,
            epsilon=self.epsilon,
            base=base,
            index=self.index,
            initial=initial,
        )

    def solve(self) -> SolverResult:
        """Run Algorithm 1 and return the incumbent plan."""
        problem = self.problem
        diag = SolverDiagnostics()
        timer = Timer().start()

        root_plan = problem.empty_plan()
        root_space = CandidateSpace(problem.pool, problem.num_pieces)
        root_bound = self._compute_bound(root_plan, root_space)
        diag.bounds_computed += 1
        diag.tau_evaluations += root_bound.evaluations

        incumbent = root_bound.plan
        lower = root_bound.lower
        diag.incumbent_updates += 1
        if self.warm_incumbent is not None:
            warm_lower = float(
                self.mrr.estimate(
                    self.warm_incumbent.seed_lists(), problem.adoption
                )
            )
            if warm_lower > lower:
                incumbent = self.warm_incumbent
                lower = warm_lower
                diag.incumbent_updates += 1
        upper_seen = root_bound.upper

        counter = 0
        heap: list[tuple[float, int, _Node]] = []
        heapq.heappush(
            heap, (-root_bound.upper, counter, _Node(root_plan, root_space, root_bound))
        )
        diag.heap_peak = 1
        termination = "exhausted"

        while heap:
            neg_upper, _, node = heapq.heappop(heap)
            upper = -neg_upper
            upper_seen = upper
            # Loop condition of Alg. 1 (L < U), relaxed by the
            # experiments' relative gap tolerance.
            if upper <= lower or upper <= lower * (1.0 + self.gap_tolerance):
                termination = "gap"
                upper_seen = max(lower, upper)
                break
            if diag.nodes_expanded >= self.max_nodes:
                termination = "node_budget"
                if self.strict_budget:
                    raise BudgetExhaustedError(
                        f"node budget {self.max_nodes} exhausted "
                        f"(gap {upper - lower:.4g})",
                        incumbent=incumbent,
                    )
                break
            diag.nodes_expanded += 1
            # Line 8: only branch while the plan can still grow.
            if node.plan.size >= problem.k or node.first_pick is None:
                continue
            v_star, j_star = node.first_pick

            # Lines 9-12: include / exclude v* for piece j*.  The node's
            # coverage is rebuilt once; the include child branches off it
            # with an O(dirty words) copy-on-write clone plus one `add`,
            # and the exclude child (same plan as the node) consumes the
            # base directly.  Covered cells and counts are set-identical
            # to per-child `from_plan` rebuilds, so bounds match exactly.
            # With the same plan and coverage, the exclude child's initial
            # scan is the node's with v*'s cells of piece j* zeroed.
            child_space = node.candidates.without(v_star, j_star)
            include_plan = node.plan.with_assignment(v_star, j_star)
            node_cov = CoverageState.from_plan(self.mrr, node.plan)
            include_cov = node_cov.copy()
            include_cov.add(v_star, j_star)
            exclude_scan = node.scan.copy()
            exclude_scan[j_star, self.index.pool == v_star] = 0.0
            for child_plan, child_cov, child_scan in (
                (include_plan, include_cov, None),
                (node.plan, node_cov, exclude_scan),
            ):
                child_bound = self._compute_bound(
                    child_plan, child_space, base=child_cov, initial=child_scan
                )
                diag.bounds_computed += 1
                diag.tau_evaluations += child_bound.evaluations
                # Lines 14-15: incumbent update.
                if child_bound.lower > lower:
                    lower = child_bound.lower
                    incumbent = child_bound.plan
                    diag.incumbent_updates += 1
                # Lines 16-17: push the subspace if it can still win.
                if child_bound.upper > lower * (1.0 + self.gap_tolerance):
                    counter += 1
                    heapq.heappush(
                        heap,
                        (
                            -child_bound.upper,
                            counter,
                            _Node(child_plan, child_space, child_bound),
                        ),
                    )
                else:
                    diag.nodes_pruned += 1
            diag.heap_peak = max(diag.heap_peak, len(heap))

        if not heap and termination == "exhausted":
            upper_seen = lower
        diag.elapsed_seconds = timer.stop()
        diag.termination = termination
        return SolverResult(
            plan=incumbent,
            utility=lower,
            upper_bound=max(lower, upper_seen),
            diagnostics=diag,
        )


def solve_bab(
    problem: OIPAProblem, mrr: MRRCollection, **kwargs
) -> SolverResult:
    """The paper's ``BAB``: branch-and-bound with the greedy bound."""
    return BranchAndBoundSolver(problem, mrr, bound="greedy", **kwargs).solve()


def solve_bab_progressive(
    problem: OIPAProblem,
    mrr: MRRCollection,
    *,
    epsilon: float = 0.5,
    **kwargs,
) -> SolverResult:
    """The paper's ``BAB-P``: branch-and-bound with the progressive bound."""
    return BranchAndBoundSolver(
        problem, mrr, bound="progressive", epsilon=epsilon, **kwargs
    ).solve()
