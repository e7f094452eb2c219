"""Tests for the branch-and-bound framework (Algorithm 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bab import BranchAndBoundSolver, solve_bab, solve_bab_progressive
from repro.core.brute_force import brute_force_oipa
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.datasets.running_example import running_example_problem
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import BudgetExhaustedError, SolverError
from repro.graph.generators import build_topic_graph, preferential_attachment_digraph
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign


@pytest.fixture()
def example():
    problem = running_example_problem(k=2)
    mrr = MRRCollection.generate(
        problem.graph, problem.campaign, theta=2500, seed=11
    )
    return problem, mrr


@pytest.fixture(scope="module")
def random_instance():
    """A small but non-trivial instance in the non-concave regime."""
    src, dst = preferential_attachment_digraph(80, 2, seed=12)
    graph = build_topic_graph(
        80, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=13
    )
    campaign = Campaign.sample_unit(2, 4, seed=14)
    adoption = AdoptionModel.from_ratio(0.3)  # alpha = 10/3: hard regime
    pool = np.arange(0, 80, 10)  # 8 promoters
    problem = OIPAProblem(graph, campaign, adoption, k=3, pool=pool)
    mrr = MRRCollection.generate(graph, campaign, theta=1500, seed=15)
    return problem, mrr


class TestRunningExample:
    def test_bab_finds_paper_optimum(self, example):
        problem, mrr = example
        result = solve_bab(problem, mrr, gap_tolerance=0.0)
        assert result.plan == AssignmentPlan([{0}, {4}])
        assert result.utility == pytest.approx(1.05, abs=0.05)

    def test_bab_progressive_finds_paper_optimum(self, example):
        problem, mrr = example
        result = solve_bab_progressive(
            problem, mrr, epsilon=0.1, gap_tolerance=0.0
        )
        assert result.plan == AssignmentPlan([{0}, {4}])

    def test_gap_and_bounds_consistent(self, example):
        problem, mrr = example
        result = solve_bab(problem, mrr, gap_tolerance=0.0)
        assert result.upper_bound >= result.utility - 1e-9
        assert result.gap >= 0.0

    def test_plan_within_budget_and_pool(self, example):
        problem, mrr = example
        result = solve_bab(problem, mrr)
        problem.validate_plan(result.plan)


class TestApproximationGuarantee:
    def test_bab_vs_brute_force(self, random_instance):
        """Theorem 2: utility >= (1 - 1/e) * OPT on the same MRR sets."""
        problem, mrr = random_instance
        optimum_plan, optimum = brute_force_oipa(problem, mrr)
        result = solve_bab(problem, mrr, gap_tolerance=0.0)
        assert result.utility >= (1 - 1 / math.e) * optimum - 1e-9
        # And the B&B upper bound must dominate the true optimum's
        # guarantee-scaled value.
        assert result.upper_bound >= (1 - 1 / math.e) * optimum - 1e-9

    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_bab_progressive_vs_brute_force(self, random_instance, epsilon):
        """Theorem 3: utility >= (1 - 1/e - eps) * OPT."""
        problem, mrr = random_instance
        _, optimum = brute_force_oipa(problem, mrr)
        result = solve_bab_progressive(
            problem, mrr, epsilon=epsilon, gap_tolerance=0.0
        )
        assert result.utility >= (1 - 1 / math.e - epsilon) * optimum - 1e-9

    def test_chord_majorant_also_guaranteed(self, random_instance):
        problem, mrr = random_instance
        _, optimum = brute_force_oipa(problem, mrr)
        result = BranchAndBoundSolver(
            problem, mrr, gap_tolerance=0.0, majorant="chord"
        ).solve()
        assert result.utility >= (1 - 1 / math.e) * optimum - 1e-9


class TestDiagnosticsAndTermination:
    def test_diagnostics_populated(self, random_instance):
        problem, mrr = random_instance
        result = solve_bab(problem, mrr, gap_tolerance=0.0)
        d = result.diagnostics
        assert d.bounds_computed >= 1
        assert d.tau_evaluations > 0
        assert d.elapsed_seconds >= 0.0
        assert d.termination in {"gap", "exhausted", "node_budget"}

    def test_node_budget_returns_incumbent(self, random_instance):
        problem, mrr = random_instance
        result = solve_bab(problem, mrr, gap_tolerance=0.0, max_nodes=1)
        assert result.diagnostics.termination in {"node_budget", "gap", "exhausted"}
        assert result.plan.size <= problem.k

    def test_node_budget_counts_only_expanded_nodes(self, random_instance):
        problem, mrr = random_instance
        full = solve_bab(problem, mrr, gap_tolerance=0.0)
        needed = full.diagnostics.nodes_expanded
        assert needed > 1
        # Any smaller budget stops the same search after exactly that
        # many expansions; the node popped at the stop is not counted.
        for max_nodes in range(1, min(needed, 4)):
            result = solve_bab(
                problem, mrr, gap_tolerance=0.0, max_nodes=max_nodes
            )
            assert result.diagnostics.termination == "node_budget"
            assert result.diagnostics.nodes_expanded == max_nodes

    def test_strict_budget_raises(self, random_instance):
        problem, mrr = random_instance
        solver = BranchAndBoundSolver(
            problem, mrr, gap_tolerance=0.0, max_nodes=1, strict_budget=True
        )
        try:
            result = solver.solve()
            # Converging within one node is legal; then no raise.
            assert result.diagnostics.termination != "node_budget"
        except BudgetExhaustedError as err:
            assert err.incumbent is not None

    def test_loose_gap_terminates_faster(self, random_instance):
        problem, mrr = random_instance
        tight = solve_bab(problem, mrr, gap_tolerance=0.0)
        loose = solve_bab(problem, mrr, gap_tolerance=0.5)
        assert (
            loose.diagnostics.nodes_expanded
            <= tight.diagnostics.nodes_expanded
        )

    def test_progressive_fewer_evaluations(self, random_instance):
        problem, mrr = random_instance
        plain = solve_bab(problem, mrr, gap_tolerance=0.01)
        prog = solve_bab_progressive(problem, mrr, gap_tolerance=0.01)
        evals_per_bound_plain = (
            plain.diagnostics.tau_evaluations / plain.diagnostics.bounds_computed
        )
        evals_per_bound_prog = (
            prog.diagnostics.tau_evaluations / prog.diagnostics.bounds_computed
        )
        assert evals_per_bound_prog < evals_per_bound_plain


class TestValidation:
    def test_bad_bound_kind(self, example):
        problem, mrr = example
        with pytest.raises(SolverError):
            BranchAndBoundSolver(problem, mrr, bound="magic")

    def test_mrr_piece_mismatch(self, example):
        problem, _ = example
        other = MRRCollection.generate(
            problem.graph,
            Campaign.sample_unit(3, 2, seed=1),
            theta=50,
            seed=1,
        )
        with pytest.raises(SolverError):
            BranchAndBoundSolver(problem, other)

    def test_mrr_graph_mismatch(self, example, random_instance):
        problem, _ = example
        _, other_mrr = random_instance
        with pytest.raises(SolverError):
            BranchAndBoundSolver(problem, other_mrr)
