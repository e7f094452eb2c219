"""Tests for the Linear Threshold substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.projection import PieceGraph
from repro.diffusion.threshold import (
    normalize_lt_weights,
    simulate_lt_cascade,
)
from repro.exceptions import ParameterError, SamplingError
from repro.graph.digraph import TopicGraph
from repro.sampling.reference import lt_cascade, lt_rr_sets
from repro.topics.distributions import unit_piece
from repro.utils.rng import as_generator


def project(edges, n, topics=1):
    g = TopicGraph.from_edges(n, topics, edges)
    return PieceGraph.project(g, unit_piece(0, topics))


def walks(pg, roots, rng):
    """The reference LT RR sets of ``roots``, as a list of arrays."""
    ptr, nodes = lt_rr_sets(pg, roots, rng)
    return [nodes[ptr[i] : ptr[i + 1]] for i in range(len(roots))]


class TestNormalizeWeights:
    def test_oversubscribed_vertex_rescaled(self):
        # Vertex 2 receives 0.8 + 0.8 = 1.6 > 1.
        pg = project([(0, 2, {0: 0.8}), (1, 2, {0: 0.8})], 3)
        norm = normalize_lt_weights(pg)
        lo, hi = norm.in_ptr[2], norm.in_ptr[3]
        assert norm.in_prob[lo:hi].sum() == pytest.approx(1.0)
        # Forward view stays consistent with the reverse view.
        assert sorted(norm.out_prob.tolist()) == sorted(
            norm.in_prob.tolist()
        )

    def test_feasible_vertex_untouched(self):
        pg = project([(0, 1, {0: 0.3}), (2, 1, {0: 0.4})], 3)
        norm = normalize_lt_weights(pg)
        np.testing.assert_allclose(sorted(norm.in_prob), [0.3, 0.4])

    def test_original_not_mutated(self):
        pg = project([(0, 2, {0: 0.9}), (1, 2, {0: 0.9})], 3)
        before = pg.in_prob.copy()
        normalize_lt_weights(pg)
        np.testing.assert_array_equal(pg.in_prob, before)

    def test_negative_weight_rejected_not_normalized(self):
        """Negative mass fails loudly instead of being silently rescaled."""
        pg = project([(0, 2, {0: 0.9}), (1, 2, {0: 0.9})], 3)
        pg.in_prob[1] = -0.5
        with pytest.raises(ParameterError, match="negative"):
            normalize_lt_weights(pg)


class TestSimulateLT:
    def test_certain_chain_activates(self):
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        active = simulate_lt_cascade(pg, [0], as_generator(0))
        assert active.tolist() == [True, True, True]

    def test_zero_weights_stop(self):
        pg = project([(0, 1, {0: 0.0})], 2)
        active = simulate_lt_cascade(pg, [0], as_generator(0))
        assert active.tolist() == [True, False]

    def test_infeasible_weights_rejected(self):
        pg = project([(0, 2, {0: 0.9}), (1, 2, {0: 0.9})], 3)
        with pytest.raises(ParameterError, match="normalise"):
            simulate_lt_cascade(pg, [0], as_generator(0))

    def test_threshold_statistics_single_edge(self):
        """P(activate) equals the edge weight for a single in-edge."""
        pg = project([(0, 1, {0: 0.4})], 2)
        rng = as_generator(1)
        hits = sum(
            simulate_lt_cascade(pg, [0], rng)[1] for _ in range(4000)
        )
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_pressure_accumulates(self):
        """Two active in-neighbours jointly exceed most thresholds."""
        pg = project([(0, 2, {0: 0.5}), (1, 2, {0: 0.5})], 3)
        rng = as_generator(2)
        both = sum(
            simulate_lt_cascade(pg, [0, 1], rng)[2] for _ in range(3000)
        )
        one = sum(
            simulate_lt_cascade(pg, [0], rng)[2] for _ in range(3000)
        )
        assert both / 3000 == pytest.approx(1.0, abs=0.02)
        assert one / 3000 == pytest.approx(0.5, abs=0.04)

    def test_bad_seed_rejected(self):
        pg = project([(0, 1, {0: 0.4})], 2)
        with pytest.raises(ParameterError):
            simulate_lt_cascade(pg, [9], as_generator(0))


class TestLTSampler:
    def test_membership_matches_forward_activation(self):
        """The LT RR equivalence on a two-hop path."""
        pg = project([(0, 1, {0: 0.6}), (1, 2, {0: 0.5})], 3)
        rng = as_generator(3)
        trials = 6000
        rr_hits = sum(0 in rr for rr in walks(pg, [2] * trials, rng))
        fwd = sum(lt_cascade(pg, [0], rng)[2] for _ in range(trials))
        # Exact probability 0.6 * 0.5 = 0.3 under LT live-edge semantics.
        assert rr_hits / trials == pytest.approx(0.3, abs=0.03)
        assert fwd / trials == pytest.approx(0.3, abs=0.03)

    def test_walk_is_a_path(self):
        pg = project(
            [(0, 1, {0: 0.9}), (1, 2, {0: 0.9}), (2, 0, {0: 0.9})], 3
        )
        rr = walks(pg, [0], as_generator(4))[0]
        # Cycle is cut: no vertex repeats.
        assert len(set(rr.tolist())) == rr.size

    def test_root_always_first(self):
        pg = project([(0, 1, {0: 0.5})], 2)
        for _ in range(10):
            rr = walks(pg, [1], as_generator(5))[0]
            assert rr[0] == 1

    def test_root_validated(self):
        pg = project([], 2)
        with pytest.raises(SamplingError):
            lt_rr_sets(pg, [7], as_generator(0))

    def test_sample_many_layout(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        ptr, nodes = lt_rr_sets(pg, np.array([0, 1]), as_generator(6))
        assert ptr.tolist()[0] == 0
        assert ptr[-1] == nodes.size

    def test_mrr_pipeline_compatibility(self):
        """LT RR sets slot into MRRCollection and the estimator."""
        from repro.diffusion.adoption import AdoptionModel
        from repro.sampling.mrr import MRRCollection

        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        rng = as_generator(7)
        roots = rng.integers(0, 3, size=600)
        ptr, nodes = lt_rr_sets(pg, roots, rng)
        mrr = MRRCollection(3, roots, [ptr], [nodes])
        adoption = AdoptionModel(alpha=1.0, beta=1.0)
        est = mrr.estimate([[0]], adoption)
        # Seeding 0 reaches everyone (certain chain): utility = 3 * f(1).
        assert est == pytest.approx(3 * adoption.probability(1), rel=0.1)
