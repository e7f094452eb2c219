"""Option-matrix tests for the branch-and-bound solver.

The solver exposes four orthogonal knobs (bound kind, laziness,
majorant, gap tolerance).  These tests pin the interactions the other
test files do not already cover.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bab import BranchAndBoundSolver
from repro.core.brute_force import brute_force_oipa
from repro.core.problem import OIPAProblem
from repro.diffusion.adoption import AdoptionModel
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign


@pytest.fixture(scope="module")
def instance():
    src, dst = preferential_attachment_digraph(70, 2, seed=61)
    graph = build_topic_graph(
        70, src, dst, 3, topics_per_edge=1.5, prob_mean=0.25, seed=62
    )
    campaign = Campaign.sample_unit(2, 3, seed=63)
    adoption = AdoptionModel.from_ratio(0.3)
    pool = np.arange(0, 70, 9)
    problem = OIPAProblem(graph, campaign, adoption, k=3, pool=pool)
    mrr = MRRCollection.generate(graph, campaign, theta=1200, seed=64)
    return problem, mrr


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("majorant", ["tangent", "chord"])
def test_option_matrix_all_guaranteed(instance, lazy, majorant):
    """Every (lazy, majorant) combination keeps the (1-1/e) guarantee."""
    problem, mrr = instance
    _, optimum = brute_force_oipa(problem, mrr)
    solver = BranchAndBoundSolver(
        problem,
        mrr,
        gap_tolerance=0.0,
        lazy=lazy,
        majorant=majorant,
    )
    result = solver.solve()
    assert result.utility >= (1 - 1 / math.e) * optimum - 1e-9


def test_lazy_and_plain_same_incumbent(instance):
    """Laziness changes work, never the selected plans."""
    problem, mrr = instance
    plain = BranchAndBoundSolver(
        problem, mrr, gap_tolerance=0.0, lazy=False
    ).solve()
    lazy = BranchAndBoundSolver(
        problem, mrr, gap_tolerance=0.0, lazy=True
    ).solve()
    assert lazy.utility == pytest.approx(plain.utility)
    assert (
        lazy.diagnostics.tau_evaluations < plain.diagnostics.tau_evaluations
    )


def test_progressive_epsilon_affects_work():
    """Coarser threshold decay costs fewer tau evaluations per bound.

    A heuristic, not a theorem, per instance: one draw can make
    eps=0.9 dearer than eps=0.05 on a single pool.  So per-bound
    evaluations are averaged over several seeded instances, large
    enough (k=6) for the threshold sweep, not the initial scan, to
    carry the difference.
    """

    def per_bound(problem, mrr, epsilon):
        diag = BranchAndBoundSolver(
            problem,
            mrr,
            bound="progressive",
            epsilon=epsilon,
            gap_tolerance=0.0,
            max_nodes=40,
        ).solve().diagnostics
        return diag.tau_evaluations / max(diag.bounds_computed, 1)

    fine, coarse = [], []
    for s in range(0, 60, 10):
        src, dst = preferential_attachment_digraph(70, 2, seed=61 + s)
        graph = build_topic_graph(
            70, src, dst, 3, topics_per_edge=1.5, prob_mean=0.25, seed=62 + s
        )
        campaign = Campaign.sample_unit(2, 3, seed=63 + s)
        problem = OIPAProblem(
            graph,
            campaign,
            AdoptionModel.from_ratio(0.3),
            k=6,
            pool=np.arange(0, 70, 5),
        )
        mrr = MRRCollection.generate(graph, campaign, theta=1200, seed=64 + s)
        fine.append(per_bound(problem, mrr, 0.05))
        coarse.append(per_bound(problem, mrr, 0.9))
    assert np.mean(coarse) < np.mean(fine)


def test_gap_zero_explores_more_than_huge_gap(instance):
    problem, mrr = instance
    exact = BranchAndBoundSolver(problem, mrr, gap_tolerance=0.0).solve()
    loose = BranchAndBoundSolver(problem, mrr, gap_tolerance=10.0).solve()
    assert (
        loose.diagnostics.nodes_expanded <= exact.diagnostics.nodes_expanded
    )
    # The loose run returns the root greedy solution.
    assert loose.diagnostics.bounds_computed >= 1


def test_negative_gap_rejected(instance):
    from repro.exceptions import ParameterError

    problem, mrr = instance
    with pytest.raises(ParameterError):
        BranchAndBoundSolver(problem, mrr, gap_tolerance=-0.1)


def test_budget_larger_than_candidates(instance):
    """k above the candidate pair count must terminate cleanly."""
    problem, mrr = instance
    big = OIPAProblem(
        problem.graph,
        problem.campaign,
        problem.adoption,
        k=problem.pool_size * problem.num_pieces + 5,
        pool=problem.pool,
    )
    result = BranchAndBoundSolver(big, mrr, gap_tolerance=0.0).solve()
    assert result.plan.size <= big.k
    assert result.utility > 0


def test_k_equals_one(instance):
    problem, mrr = instance
    single = OIPAProblem(
        problem.graph, problem.campaign, problem.adoption, 1, problem.pool
    )
    result = BranchAndBoundSolver(single, mrr, gap_tolerance=0.0).solve()
    assert result.plan.size == 1
    _, optimum = brute_force_oipa(single, mrr)
    # k=1: greedy == optimal, so BAB must be exactly optimal.
    assert result.utility == pytest.approx(optimum)
