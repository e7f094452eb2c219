"""Tests for MRR collections and the AU estimator (Sec. V-A, Lemma 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.running_example import (
    running_example_adoption,
    running_example_campaign,
    running_example_graph,
)
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.simulate import simulate_adoption_utility
from repro.exceptions import SamplingError
from repro.graph.generators import build_topic_graph, preferential_attachment_digraph
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign, unit_piece


@pytest.fixture()
def example_mrr() -> MRRCollection:
    return MRRCollection.generate(
        running_example_graph(), running_example_campaign(), theta=3000, seed=1
    )


class TestGeneration:
    def test_shapes(self, example_mrr):
        assert example_mrr.theta == 3000
        assert example_mrr.num_pieces == 2
        assert example_mrr.n == 5
        assert example_mrr.roots.shape == (3000,)

    def test_rr_sets_contain_their_root(self, example_mrr):
        for i in range(0, 3000, 500):
            root = int(example_mrr.roots[i])
            for j in range(2):
                assert root in example_mrr.rr_set(j, i)

    def test_running_example_rr_semantics(self, example_mrr):
        """Deterministic graph: RR sets are exact reverse-reachability.

        Under t1 the predecessors are fixed: RR(c) = {c, a}, RR(b) =
        {b, a}, RR(a) = {a}; under t2: RR(c) = {c, d, e} (Table II).
        """
        expected_t1 = {0: {0}, 1: {1, 0}, 2: {2, 0}, 3: {3, 2, 0}, 4: {4}}
        expected_t2 = {0: {0}, 1: {1, 4}, 2: {2, 3, 4}, 3: {3, 4}, 4: {4}}
        for i in range(0, 3000, 100):
            root = int(example_mrr.roots[i])
            assert set(example_mrr.rr_set(0, i).tolist()) == expected_t1[root]
            assert set(example_mrr.rr_set(1, i).tolist()) == expected_t2[root]

    def test_invalid_piece_and_sample(self, example_mrr):
        with pytest.raises(SamplingError):
            example_mrr.rr_set(5, 0)
        with pytest.raises(SamplingError):
            example_mrr.rr_set(0, 10**6)
        with pytest.raises(SamplingError):
            example_mrr.samples_containing(0, 99)

    def test_piece_graph_count_validated(self):
        graph = running_example_graph()
        campaign = running_example_campaign()
        pgs = project_campaign(graph, campaign)
        with pytest.raises(SamplingError):
            MRRCollection.generate(
                graph, campaign, theta=10, piece_graphs=pgs[:1]
            )


class TestInvertedIndex:
    def test_index_consistent_with_rr_sets(self, example_mrr):
        for j in range(2):
            for v in range(5):
                via_index = set(example_mrr.samples_containing(j, v).tolist())
                brute = {
                    i
                    for i in range(example_mrr.theta)
                    if v in example_mrr.rr_set(j, i)
                }
                assert via_index == brute

    def test_vertex_frequencies(self, example_mrr):
        freq = example_mrr.vertex_frequencies(0)
        manual = np.array(
            [
                example_mrr.samples_containing(0, v).size
                for v in range(5)
            ]
        )
        np.testing.assert_array_equal(freq, manual)

    def test_rr_set_sizes(self, example_mrr):
        sizes = example_mrr.rr_set_sizes(1)
        assert sizes.shape == (3000,)
        assert sizes.min() >= 1


class TestEstimator:
    def test_running_example_utility(self, example_mrr):
        """sigma({{a},{e}}) = 1.05 exactly (deterministic graph)."""
        adoption = running_example_adoption()
        estimate = example_mrr.estimate([[0], [4]], adoption)
        assert estimate == pytest.approx(1.05, abs=0.03)

    def test_empty_plan_is_zero(self, example_mrr):
        adoption = running_example_adoption()
        assert example_mrr.estimate([[], []], adoption) == 0.0

    def test_coverage_counts_match_manual(self, example_mrr):
        counts = example_mrr.coverage_counts([[0], [4]])
        # root a: t1 covered only; roots b, c, d: both; root e: t2 only.
        roots = example_mrr.roots
        expected = np.where(np.isin(roots, [1, 2, 3]), 2, 1)
        np.testing.assert_array_equal(counts, expected)

    def test_plan_length_validated(self, example_mrr):
        with pytest.raises(SamplingError):
            example_mrr.coverage_counts([[0]])

    def test_counts_shape_validated(self, example_mrr):
        adoption = running_example_adoption()
        with pytest.raises(SamplingError):
            example_mrr.estimate_from_counts(np.zeros(5), adoption)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("zero_if_unreached", [True, False])
    def test_count_table_equals_formula(
        self, example_mrr, dtype, zero_if_unreached
    ):
        """Integer counts go through the per-count table; the estimate is
        bit-identical to the logistic evaluated per sample."""
        mrr = example_mrr
        rng = np.random.default_rng(5)
        for ratio in (0.1, 0.3, 1.0, 2.5):
            adoption = AdoptionModel.from_ratio(
                ratio, zero_if_unreached=zero_if_unreached
            )
            counts = rng.integers(
                0, mrr.num_pieces + 1, mrr.theta
            ).astype(dtype)
            formula = mrr.n / mrr.theta * adoption.probability(counts).sum()
            got = mrr.estimate_from_counts(counts, adoption)
            assert float(got).hex() == float(formula).hex()
            as_float = mrr.estimate_from_counts(
                counts.astype(np.float64), adoption
            )
            assert float(as_float).hex() == float(got).hex()

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_integer_counts_bounded_by_pieces(self, example_mrr, dtype):
        mrr = example_mrr
        adoption = running_example_adoption()
        counts = np.zeros(mrr.theta, dtype=dtype)
        assert mrr.estimate_from_counts(counts, adoption) == 0.0
        counts[0] = mrr.num_pieces  # both ends are legal
        assert mrr.estimate_from_counts(counts, adoption) > 0.0
        counts[0] = -1
        with pytest.raises(SamplingError, match="coverage counts"):
            mrr.estimate_from_counts(counts, adoption)
        counts[0] = mrr.num_pieces + 1
        with pytest.raises(SamplingError, match="coverage counts"):
            mrr.estimate_from_counts(counts, adoption)

    def test_unbiasedness_vs_forward_simulation(self):
        """Lemma 2 on a random graph: MRR and forward MC must agree."""
        src, dst = preferential_attachment_digraph(120, 3, seed=3)
        graph = build_topic_graph(
            120, src, dst, 4, topics_per_edge=2.0, prob_mean=0.25, seed=4
        )
        campaign = Campaign([unit_piece(z, 4) for z in range(3)])
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        plan = [[0, 5], [3], [7, 11]]
        mrr = MRRCollection.generate(graph, campaign, theta=60_000, seed=5)
        estimate = mrr.estimate(plan, adoption)
        pgs = project_campaign(graph, campaign)
        simulated, std = simulate_adoption_utility(
            pgs, plan, adoption, rounds=1500, seed=6, return_std=True
        )
        # Combine both standard errors; the MRR side dominates.
        mrr_se = graph.n * 0.5 / np.sqrt(mrr.theta)
        assert abs(estimate - simulated) < 4 * (std + mrr_se)

    def test_literal_eq6_mode_differs(self, example_mrr):
        strict = running_example_adoption()
        literal = AdoptionModel(alpha=3.0, beta=1.0, zero_if_unreached=False)
        # The empty plan separates the two conventions maximally.
        assert example_mrr.estimate([[], []], strict) == 0.0
        assert example_mrr.estimate([[], []], literal) == pytest.approx(
            5 / (1 + np.exp(3)), rel=1e-6
        )
