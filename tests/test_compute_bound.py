"""Tests for ComputeBound (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compute_bound import CandidateSpace, compute_bound
from repro.core.plan import AssignmentPlan
from repro.core.tangent import MajorantTable
from repro.datasets.running_example import running_example_problem
from repro.exceptions import SolverError
from repro.sampling.mrr import MRRCollection


@pytest.fixture()
def ctx():
    problem = running_example_problem(k=2)
    mrr = MRRCollection.generate(
        problem.graph, problem.campaign, theta=2000, seed=4
    )
    table = MajorantTable(problem.adoption, problem.num_pieces)
    space = CandidateSpace(problem.pool, problem.num_pieces)
    return problem, mrr, table, space


class TestCandidateSpace:
    def test_all_pairs(self, ctx):
        problem, _, _, space = ctx
        pairs = space.pairs(problem.empty_plan())
        assert len(pairs) == 5 * 2

    def test_without_removes_pair(self, ctx):
        problem, _, _, space = ctx
        child = space.without(0, 1)
        pairs = child.pairs(problem.empty_plan())
        assert (0, 1) not in pairs
        assert (0, 0) in pairs

    def test_plan_members_not_selectable(self, ctx):
        problem, _, _, space = ctx
        plan = AssignmentPlan([{0}, set()])
        pairs = space.pairs(plan)
        assert (0, 0) not in pairs
        assert (0, 1) in pairs

    def test_len(self, ctx):
        _, _, _, space = ctx
        assert len(space.without(0, 0)) == len(space) - 1

    def test_available_matches_per_vertex_loop(self):
        """The position-map mask equals masking ``pool == v`` per seed
        and per excluded pair, duplicate pool entries included."""

        def reference(space, plan):
            pool = np.asarray(space.pool, dtype=np.int64)
            mask = np.ones((space.num_pieces, pool.size), dtype=bool)
            for j in range(space.num_pieces):
                for v in plan.seed_sets[j]:
                    mask[j, pool == v] = False
            for v, j in space.excluded:
                mask[j, pool == v] = False
            return mask

        rng = np.random.default_rng(9)
        for trial in range(200):
            pieces = int(rng.integers(1, 5))
            pool = rng.integers(0, 30, int(rng.integers(1, 25)))
            space = CandidateSpace(pool, pieces)
            for _ in range(int(rng.integers(0, 8))):
                space = space.without(
                    int(rng.integers(0, 32)), int(rng.integers(pieces))
                )
            plan = AssignmentPlan(
                [
                    set(rng.integers(0, 32, int(rng.integers(0, 4))).tolist())
                    for _ in range(pieces)
                ]
            )
            np.testing.assert_array_equal(
                space.available(plan), reference(space, plan)
            )


class TestComputeBound:
    def test_finds_the_paper_optimum(self, ctx):
        problem, mrr, table, space = ctx
        result = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), space, 2
        )
        assert result.plan == AssignmentPlan([{0}, {4}])
        assert result.selected == 2
        assert result.lower == pytest.approx(1.05, abs=0.05)

    def test_upper_dominates_lower(self, ctx):
        problem, mrr, table, space = ctx
        result = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), space, 2
        )
        assert result.upper >= result.lower - 1e-9

    def test_lazy_and_plain_select_identically(self, ctx):
        problem, mrr, table, space = ctx
        plain = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), space, 2,
            lazy=False,
        )
        lazy = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), space, 2,
            lazy=True,
        )
        assert plain.plan == lazy.plan
        assert plain.upper == pytest.approx(lazy.upper)
        assert lazy.evaluations <= plain.evaluations

    def test_respects_partial_plan(self, ctx):
        problem, mrr, table, space = ctx
        partial = AssignmentPlan([{0}, set()])
        result = compute_bound(
            mrr, table, problem.adoption, partial, space, 2
        )
        assert result.plan.contains(partial)
        assert result.plan.size == 2
        assert result.selected == 1

    def test_respects_exclusions(self, ctx):
        problem, mrr, table, space = ctx
        # Remove the optimal pair (a -> t1): greedy must avoid it.
        child = space.without(0, 0)
        result = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), child, 2
        )
        assert (0, 0) not in result.plan

    def test_first_pick_is_best_individual(self, ctx):
        problem, mrr, table, space = ctx
        result = compute_bound(
            mrr, table, problem.adoption, problem.empty_plan(), space, 2
        )
        assert result.first_pick is not None
        v, j = result.first_pick
        assert (v, j) in result.plan

    def test_oversized_partial_plan_rejected(self, ctx):
        problem, mrr, table, space = ctx
        partial = AssignmentPlan([{0, 1}, {2, 3}])
        with pytest.raises(SolverError):
            compute_bound(mrr, table, problem.adoption, partial, space, 2)

    def test_zero_budget_returns_partial(self, ctx):
        problem, mrr, table, space = ctx
        partial = AssignmentPlan([{0}, {4}])
        result = compute_bound(
            mrr, table, problem.adoption, partial, space, 2
        )
        assert result.plan == partial
        assert result.first_pick is None
        assert result.selected == 0

    def test_greedy_monotone_improvement(self, ctx):
        """Each extra budget unit can only help."""
        problem, mrr, table, space = ctx
        lowers = [
            compute_bound(
                mrr, table, problem.adoption, problem.empty_plan(), space, k
            ).lower
            for k in (1, 2, 3, 4)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
