"""The paper's two intuitive baselines, ``IM`` and ``TIM`` (Sec. VI-A).

``IM``
    Runs a state-of-the-art single-message IM algorithm on ``G`` under
    the IC model — requiring a scalar probability per edge, obtained by
    flattening the topic vectors (we average ``p(t_j, e)`` over the
    campaign's pieces) — to pick ``k`` seeds ``S``.  Then
    every piece is tried with ``S`` as its (sole) seed set and the piece
    with the highest adoption utility wins.  The baseline is blind to
    topic-dependent spread, which is why the paper finds it weakest.

``TIM``
    Builds each piece's projected influence graph, runs the IM algorithm
    per piece to get ``S_i``, and keeps the single assignment
    ``(S_i -> t_i)`` with the best adoption utility.  Topic-aware but
    still spends the whole budget on one piece — so users rarely receive
    the multiple pieces the logistic model needs for meaningful adoption.

Both baselines reuse the same MRR collection as the solvers for seed
selection (``TIM`` selects on its piece's RR sets directly; ``IM``
samples its own RR sets on the flattened graph) and are scored with the
same AU estimator, so comparisons in the experiment harness are
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.diffusion.projection import PieceGraph
from repro.im.ris import _keyed_rr_collection, max_coverage_seeds
from repro.sampling.mrr import MRRCollection
from repro.utils.timer import Timer

__all__ = ["BaselineResult", "im_baseline", "tim_baseline"]


@dataclass(frozen=True)
class BaselineResult:
    """A baseline's plan plus bookkeeping.

    ``elapsed_seconds`` excludes RR sampling (``sample_seconds``), per
    the paper's protocol: "we exclude the sampling time ... since the
    time is the same for all compared approaches".
    """

    name: str
    plan: AssignmentPlan
    utility: float
    chosen_piece: int
    seeds: tuple[int, ...]
    elapsed_seconds: float
    sample_seconds: float = 0.0


def _best_single_piece_plan(
    problem: OIPAProblem,
    mrr: MRRCollection,
    per_piece_seeds: list[list[int]],
) -> tuple[AssignmentPlan, float, int]:
    """Try assigning each piece its seed set; keep the best-utility one."""
    best_plan = problem.empty_plan()
    best_utility = -1.0
    best_piece = 0
    for j, seeds in enumerate(per_piece_seeds):
        plan = problem.empty_plan().i_union(j, seeds)
        utility = mrr.estimate(plan.seed_lists(), problem.adoption)
        if utility > best_utility:
            best_plan, best_utility, best_piece = plan, utility, j
    return best_plan, best_utility, best_piece


def im_baseline(
    problem: OIPAProblem,
    mrr: MRRCollection,
    *,
    theta: int | None = None,
    seed=None,
    runtime=None,
) -> BaselineResult:
    """The ``IM`` baseline: topic-blind seed set, best single piece.

    ``theta`` controls the flattened-graph RR sample count for seed
    selection (defaults to ``mrr.theta``, the collection passed in —
    the optimisation collection in the experiment harness);
    ``runtime`` (a :class:`repro.runtime.Runtime`) selects the RR
    sampling engine and pool.  The flattened graph is sampled
    under IC from the same keyed stream as
    :func:`repro.im.ris.ris_influence_maximization`, so for one seed
    both pick the same seeds, at every worker count.
    """
    from repro.runtime import resolve_runtime

    rt = resolve_runtime(runtime, seed=seed)
    theta = mrr.theta if theta is None else theta
    # Flat-graph RR sampling is timed separately (the paper excludes
    # sampling time from every method's reported run time).
    with Timer() as sample_timer:
        flat_probs = problem.graph.mean_edge_probabilities(
            problem.campaign.vectors()
        )
        flat_graph = PieceGraph.from_edge_probabilities(
            problem.graph, flat_probs
        )
        # In RAM whatever the runtime's store: a caller's store instance
        # already holds the campaign's own collection, and its disk
        # settings would be rejected by the memory store.
        flat_mrr = _keyed_rr_collection(
            flat_graph,
            theta,
            rt.replace(store="memory", shard_dir=None, max_resident_bytes=None),
            "ic",
        )
    timer = Timer().start()
    seeds, _ = max_coverage_seeds(flat_mrr, 0, problem.pool, problem.k)
    # The same seed set S is tried on every piece; best one wins.
    plan, utility, piece = _best_single_piece_plan(
        problem, mrr, [list(seeds)] * problem.num_pieces
    )
    return BaselineResult(
        name="IM",
        plan=plan,
        utility=utility,
        chosen_piece=piece,
        seeds=tuple(seeds),
        elapsed_seconds=timer.stop(),
        sample_seconds=sample_timer.elapsed,
    )


def tim_baseline(
    problem: OIPAProblem,
    mrr: MRRCollection,
) -> BaselineResult:
    """The ``TIM`` baseline: per-piece topic-aware seeds, best single piece.

    Seed selection runs directly on each piece's RR sets inside ``mrr``
    (they *are* the piece's influence-graph samples), exactly matching
    "we run the IM algorithm on G_ti to obtain k seed nodes".
    """
    timer = Timer().start()
    per_piece_seeds: list[list[int]] = []
    for j in range(problem.num_pieces):
        seeds, _ = max_coverage_seeds(mrr, j, problem.pool, problem.k)
        per_piece_seeds.append(seeds)
    plan, utility, piece = _best_single_piece_plan(problem, mrr, per_piece_seeds)
    return BaselineResult(
        name="TIM",
        plan=plan,
        utility=utility,
        chosen_piece=piece,
        seeds=tuple(per_piece_seeds[piece]),
        elapsed_seconds=timer.stop(),
    )
