"""Tests for the exchange local search extension.

:func:`reference_local_search` is the test oracle: the same fill and
swap loops scoring every candidate with a whole-plan ``mrr.estimate``.
``local_search`` scores moves as coverage deltas instead, and must
match it byte for byte — plans, ``utility.hex()`` and every counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_search import _MoveScorer, local_search
from repro.core.plan import AssignmentPlan
from repro.core.brute_force import brute_force_oipa
from repro.core.problem import OIPAProblem
from repro.datasets.running_example import running_example_problem
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import ShardStore
from repro.topics.distributions import Campaign


def reference_local_search(problem, mrr, plan, *, max_rounds=10):
    """Whole-plan oracle: ``(plan, utility, initial, fills, swaps, rounds)``."""

    def estimate(candidate):
        return mrr.estimate(candidate.seed_lists(), problem.adoption)

    initial = estimate(plan)
    current_plan = plan
    current = initial
    fills = swaps = rounds = 0
    pool = [int(v) for v in problem.pool]

    for _ in range(max_rounds):
        rounds += 1
        improved = False

        while current_plan.size < problem.k:
            best_gain, best_move = 0.0, None
            for j in range(problem.num_pieces):
                taken = current_plan.seed_sets[j]
                for v in pool:
                    if v in taken:
                        continue
                    candidate = current_plan.with_assignment(v, j)
                    gain = estimate(candidate) - current
                    if gain > best_gain:
                        best_gain, best_move = gain, (v, j)
            if best_move is None:
                break
            current_plan = current_plan.with_assignment(*best_move)
            current += best_gain
            fills += 1
            improved = True

        swap_done = False
        for v_out, j_out in current_plan.assignments():
            reduced_sets = [set(s) for s in current_plan.seed_sets]
            reduced_sets[j_out].discard(v_out)
            reduced = AssignmentPlan(reduced_sets)
            for j_in in range(problem.num_pieces):
                taken = reduced.seed_sets[j_in]
                for v_in in pool:
                    if v_in in taken or (v_in, j_in) == (v_out, j_out):
                        continue
                    candidate = reduced.with_assignment(v_in, j_in)
                    score = estimate(candidate)
                    if score > current + 1e-12:
                        current_plan, current = candidate, score
                        swaps += 1
                        improved = swap_done = True
                        break
                if swap_done:
                    break
            if swap_done:
                break

        if not improved:
            break

    return current_plan, current, initial, fills, swaps, rounds


def _outcome(result):
    return (
        result.plan,
        result.utility.hex(),
        result.initial_utility.hex(),
        result.fills,
        result.swaps,
        result.rounds,
    )


def _reference_outcome(problem, mrr, plan, **options):
    plan, utility, initial, fills, swaps, rounds = reference_local_search(
        problem, mrr, plan, **options
    )
    return plan, utility.hex(), initial.hex(), fills, swaps, rounds


def _instance(seed, num_pieces, k, store, tmp_path):
    """A random instance and its collection on the requested store."""
    src, dst = preferential_attachment_digraph(120, 3, seed=seed)
    graph = build_topic_graph(
        120, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=seed + 1
    )
    campaign = Campaign.sample_unit(num_pieces, 4, seed=seed + 2)
    adoption = AdoptionModel.from_ratio(0.3 + 0.2 * (seed % 3))
    pool = np.random.default_rng(seed).choice(120, size=14, replace=False)
    problem = OIPAProblem(graph, campaign, adoption, k=k, pool=pool)
    runtime = (
        Runtime(store="disk", shard_dir=str(tmp_path / f"s{seed}"))
        if store == "disk" else Runtime(store="memory")
    )
    mrr = MRRCollection.generate(
        graph, campaign, theta=1000, seed=seed + 3, runtime=runtime
    )
    return problem, mrr


def _random_start(problem, seed):
    """A feasible full-budget plan of random pool assignments."""
    rng = np.random.default_rng(seed)
    cells = [(int(v), j) for v in problem.pool for j in range(problem.num_pieces)]
    picks = rng.choice(len(cells), size=problem.k, replace=False)
    seed_sets = [set() for _ in range(problem.num_pieces)]
    for i in picks:
        v, j = cells[i]
        seed_sets[j].add(v)
    return AssignmentPlan(seed_sets)


@pytest.fixture()
def example():
    problem = running_example_problem(k=2)
    mrr = MRRCollection.generate(
        problem.graph, problem.campaign, theta=2000, seed=51
    )
    return problem, mrr


class TestLocalSearch:
    def test_never_decreases_utility(self, example):
        problem, mrr = example
        start = AssignmentPlan([{1}, {2}])  # a weak plan
        result = local_search(problem, mrr, start)
        assert result.utility >= result.initial_utility - 1e-12
        assert result.improvement >= 0.0

    def test_fills_unused_budget(self, example):
        problem, mrr = example
        start = AssignmentPlan([{0}, set()])  # one slot unused
        result = local_search(problem, mrr, start)
        assert result.plan.size == problem.k
        assert result.fills >= 1

    def test_reaches_optimum_on_running_example(self, example):
        problem, mrr = example
        start = AssignmentPlan([{1}, {3}])  # clearly sub-optimal
        result = local_search(problem, mrr, start)
        best_plan, best_utility = brute_force_oipa(problem, mrr)
        assert result.utility == pytest.approx(best_utility, rel=1e-9)
        assert result.plan == best_plan

    def test_optimal_start_is_stable(self, example):
        problem, mrr = example
        best_plan, best_utility = brute_force_oipa(problem, mrr)
        result = local_search(problem, mrr, best_plan)
        assert result.plan == best_plan
        assert result.swaps == 0

    def test_result_plan_feasible(self, example):
        problem, mrr = example
        result = local_search(problem, mrr, problem.empty_plan())
        problem.validate_plan(result.plan)

    def test_infeasible_start_rejected(self, example):
        problem, mrr = example
        too_big = AssignmentPlan([{0, 1, 2}, {3, 4}])
        with pytest.raises(SolverError):
            local_search(problem, mrr, too_big)

    def test_rounds_bounded(self, example):
        problem, mrr = example
        result = local_search(
            problem, mrr, problem.empty_plan(), max_rounds=1
        )
        assert result.rounds == 1

    def test_improves_solver_incumbent_or_keeps_it(self):
        """On a random instance, polishing a BAB-P plan cannot hurt."""
        from repro.core.bab import solve_bab_progressive

        src, dst = preferential_attachment_digraph(100, 3, seed=52)
        graph = build_topic_graph(
            100, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=53
        )
        campaign = Campaign.sample_unit(3, 4, seed=54)
        adoption = AdoptionModel.from_ratio(0.3)
        pool = np.arange(0, 100, 8)
        problem = OIPAProblem(graph, campaign, adoption, k=5, pool=pool)
        mrr = MRRCollection.generate(graph, campaign, theta=1200, seed=55)
        incumbent = solve_bab_progressive(problem, mrr, max_nodes=30)
        polished = local_search(problem, mrr, incumbent.plan, max_rounds=3)
        assert polished.utility >= incumbent.utility - 1e-9


class TestMatchesReference:
    """Delta scoring is byte-equal to the whole-plan oracle."""

    @pytest.mark.parametrize("store", ["memory", "disk"])
    @pytest.mark.parametrize(
        "seed, num_pieces, k", [(61, 2, 4), (62, 3, 5), (63, 4, 6)]
    )
    def test_empty_and_random_starts(
        self, store, seed, num_pieces, k, tmp_path
    ):
        problem, mrr = _instance(seed, num_pieces, k, store, tmp_path)
        starts = [problem.empty_plan()] + [
            _random_start(problem, seed * 10 + i) for i in range(2)
        ]
        swaps = 0
        for start in starts:
            got = _outcome(local_search(problem, mrr, start))
            assert got == _reference_outcome(problem, mrr, start)
            swaps += got[4]
        assert swaps > 0  # the swap scan actually moved

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_every_move_score_is_the_plan_estimate(self, store, tmp_path):
        """Each scored move, not just the chosen ones, is bit-equal."""
        problem, mrr = _instance(66, 3, 5, store, tmp_path)
        scorer = _MoveScorer(problem, mrr)
        start = _random_start(problem, 660)
        # Bases from empty to full budget: the fuller the base, the
        # fewer fresh samples a move brings (down to none).
        for base in [problem.empty_plan(), start] + [
            AssignmentPlan([set(s) - {v} for s in start.seed_sets])
            for v, _ in start.assignments()
        ]:
            want = mrr.estimate(base.seed_lists(), problem.adoption)
            assert scorer.rebase(base).hex() == want.hex()
            for j in range(problem.num_pieces):
                for v in problem.pool.tolist():
                    plan = base.with_assignment(v, j)
                    want = mrr.estimate(plan.seed_lists(), problem.adoption)
                    assert scorer.score(v, j).hex() == want.hex(), (v, j)


def test_disk_solve_gathers_per_base_not_per_candidate(tmp_path, monkeypatch):
    """One disk-store solve reads the index O(pieces + moves) times:
    one pool gather per piece, then one coverage rebuild per base plan
    (the current plan per fill, the reduced plan per swap ``v_out``) —
    never one gather per scored candidate, as the oracle does."""
    problem, mrr = _instance(65, 3, 5, "disk", tmp_path)
    start = _random_start(problem, 650)
    calls = {"n": 0}
    original = ShardStore.gather_index

    def counting(self, piece, vertices):
        calls["n"] += 1
        return original(self, piece, vertices)

    monkeypatch.setattr(ShardStore, "gather_index", counting)
    result = local_search(problem, mrr, start)
    gathers, calls["n"] = calls["n"], 0
    reference_local_search(problem, mrr, start)
    oracle_gathers = calls["n"]

    l = problem.num_pieces
    bases = 1 + result.fills + result.rounds * (problem.k + 1)
    assert result.swaps > 0
    assert gathers <= l * (1 + bases)
    assert oracle_gathers > 10 * gathers
