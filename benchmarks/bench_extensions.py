"""Extension benchmarks beyond the paper's evaluation.

Three studies:

1. **Local-search polish** — how much the exchange search recovers on
   top of BAB-P's (1 − 1/e − eps) incumbent (BAB-P can stop with unused
   budget; the fill moves reclaim it).
2. **Baseline spectrum** — where Random / MaxDegree / IM / TIM / BAB sit
   on one instance, confirming the paper's baselines are the *strong*
   end of the heuristic spectrum.
3. **LT substrate** — the whole OIPA stack (MRR + BAB) running on
   Linear Threshold influence instead of IC, demonstrating
   model-agnosticism of the RR-set layer.
"""

from __future__ import annotations

import pytest
from conftest import write_artifact

from repro.core.bab import solve_bab, solve_bab_progressive
from repro.core.local_search import local_search
from repro.diffusion.projection import project_campaign
from repro.diffusion.threshold import LinearThresholdSampler, normalize_lt_weights
from repro.experiments.runner import prepare_instance
from repro.im.baselines import im_baseline, tim_baseline
from repro.im.heuristics import max_degree_baseline, random_baseline
from repro.sampling.mrr import MRRCollection
from repro.utils.rng import as_generator
from repro.utils.tables import format_table


@pytest.fixture(scope="module")
def session(profile):
    return prepare_instance(
        "lastfm", profile, k=10, num_pieces=3, beta_over_alpha=0.3
    )


def test_local_search_polish(benchmark, session, artifact_dir):
    problem, mrr = session.problem, session.mrr
    incumbent = solve_bab_progressive(problem, mrr, max_nodes=50)

    polished = benchmark.pedantic(
        local_search,
        args=(problem, mrr, incumbent.plan),
        kwargs={"max_rounds": 2},
        rounds=1,
        iterations=1,
    )
    write_artifact(
        artifact_dir,
        "extension_local_search",
        format_table(
            ["stage", "utility", "plan size"],
            [
                ["BAB-P incumbent", incumbent.utility, incumbent.plan.size],
                ["after local search", polished.utility, polished.plan.size],
            ],
            title="Exchange local search on top of BAB-P",
        ),
    )
    assert polished.utility >= incumbent.utility - 1e-9
    assert polished.plan.size <= problem.k


def test_baseline_spectrum(benchmark, session, artifact_dir):
    problem, mrr = session.problem, session.mrr
    mrr_eval = session.mrr_eval

    def run_all():
        return {
            "Random": random_baseline(problem, mrr, seed=1).plan,
            "MaxDegree": max_degree_baseline(problem, mrr).plan,
            "IM": im_baseline(problem, mrr, seed=1).plan,
            "TIM": tim_baseline(problem, mrr).plan,
            "BAB": solve_bab(problem, mrr, max_nodes=50).plan,
        }

    plans = benchmark.pedantic(run_all, rounds=1, iterations=1)
    scores = {
        name: mrr_eval.estimate(plan.seed_lists(), problem.adoption)
        for name, plan in plans.items()
    }
    write_artifact(
        artifact_dir,
        "extension_baselines",
        format_table(
            ["method", "utility"],
            [[name, scores[name]] for name in scores],
            title="Heuristic spectrum (independent evaluation)",
        ),
    )
    # The informed methods dominate the uninformed ones.
    uninformed = max(scores["Random"], scores["MaxDegree"])
    assert scores["BAB"] > uninformed
    assert scores["TIM"] >= scores["Random"] - 1e-9


def test_oipa_on_linear_threshold(benchmark, session, artifact_dir):
    """Full OIPA solve with LT RR sets in place of IC ones."""
    problem = session.problem
    graph, campaign = problem.graph, problem.campaign
    rng = as_generator(77)

    def build_and_solve():
        piece_graphs = [
            normalize_lt_weights(pg)
            for pg in project_campaign(graph, campaign)
        ]
        roots = rng.integers(0, graph.n, size=2500)
        ptrs, node_arrays = [], []
        for pg in piece_graphs:
            sampler = LinearThresholdSampler(pg)
            ptr, nodes = sampler.sample_many(roots, rng)
            ptrs.append(ptr)
            node_arrays.append(nodes)
        mrr_lt = MRRCollection(graph.n, roots, ptrs, node_arrays)
        return solve_bab(problem, mrr_lt, max_nodes=40), mrr_lt

    result, mrr_lt = benchmark.pedantic(build_and_solve, rounds=1, iterations=1)
    write_artifact(
        artifact_dir,
        "extension_lt",
        format_table(
            ["quantity", "value"],
            [
                ["LT utility (estimate)", result.utility],
                ["plan size", result.plan.size],
                ["nodes expanded", result.diagnostics.nodes_expanded],
            ],
            title="OIPA under Linear Threshold influence",
        ),
    )
    assert result.plan.size <= problem.k
    assert result.utility > 0.0
    # The LT plan beats a random plan under the same LT estimator.
    random_plan = random_baseline(problem, mrr_lt, seed=5).plan
    assert result.utility >= mrr_lt.estimate(
        random_plan.seed_lists(), problem.adoption
    ) - 1e-9
