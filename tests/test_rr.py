"""Tests for the reference reverse-reachable sampler (the oracle).

The load-bearing property: P(u ∈ RR(x)) equals the probability that a
cascade seeded at {u} activates x.  We verify it both on deterministic
structures (exactly) and statistically on probabilistic edges, for the
lazy reverse BFS of :mod:`repro.sampling.reference` that the batch
engine's bit-equality tests compare against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.projection import PieceGraph
from repro.exceptions import SamplingError
from repro.graph.digraph import TopicGraph
from repro.sampling.reference import ic_cascade, ic_rr_sets
from repro.topics.distributions import unit_piece
from repro.utils.rng import as_generator


def project(edges, n, topics=1, piece=0):
    g = TopicGraph.from_edges(n, topics, edges)
    return PieceGraph.project(g, unit_piece(piece, topics))


def rr_sets(pg, roots, rng):
    """The reference RR sets of ``roots``, as a list of arrays."""
    ptr, nodes = ic_rr_sets(pg, roots, rng)
    return [nodes[ptr[i] : ptr[i + 1]] for i in range(len(roots))]


class TestDeterministicStructure:
    def test_certain_chain_rr_is_ancestry(self):
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        two, one, zero = rr_sets(pg, [2, 1, 0], as_generator(0))
        assert set(two.tolist()) == {0, 1, 2}
        assert set(one.tolist()) == {0, 1}
        assert set(zero.tolist()) == {0}

    def test_dead_edges_rr_is_root_only(self):
        pg = project([(0, 1, {0: 0.0})], 2)
        assert rr_sets(pg, [1], as_generator(0))[0].tolist() == [1]

    def test_root_always_included(self):
        pg = project([], 4)
        for root in range(4):
            rr = rr_sets(pg, [root], as_generator(root))[0]
            assert rr.tolist() == [root]

    def test_root_range_checked(self):
        pg = project([], 2)
        with pytest.raises(SamplingError):
            ic_rr_sets(pg, [5], as_generator(0))

    def test_no_duplicates_in_rr_set(self):
        # Diamond: two paths into 3; the RR set must contain 0 once.
        pg = project(
            [
                (0, 1, {0: 1.0}),
                (0, 2, {0: 1.0}),
                (1, 3, {0: 1.0}),
                (2, 3, {0: 1.0}),
            ],
            4,
        )
        rr = rr_sets(pg, [3], as_generator(0))[0]
        assert len(rr) == len(set(rr.tolist())) == 4


class TestStatisticalEquivalence:
    def test_membership_matches_forward_activation(self):
        """P(u in RR(x)) == P(cascade from u reaches x), within MC noise."""
        edges = [
            (0, 1, {0: 0.7}),
            (1, 2, {0: 0.5}),
            (0, 2, {0: 0.2}),
        ]
        pg = project(edges, 3)
        rng = as_generator(42)
        trials = 6000
        rr_hits = sum(0 in rr for rr in rr_sets(pg, [2] * trials, rng))
        fwd_hits = sum(
            ic_cascade(pg, [0], rng)[2] for _ in range(trials)
        )
        rr_rate, fwd_rate = rr_hits / trials, fwd_hits / trials
        # Exact probability: 0.2 + 0.8 * 0.7 * 0.5 = 0.48
        assert rr_rate == pytest.approx(0.48, abs=0.03)
        assert fwd_rate == pytest.approx(0.48, abs=0.03)

    def test_single_edge_probability(self):
        pg = project([(0, 1, {0: 0.3})], 2)
        rng = as_generator(7)
        hits = sum(0 in rr for rr in rr_sets(pg, [1] * 6000, rng))
        assert hits / 6000 == pytest.approx(0.3, abs=0.025)


class TestSampleMany:
    def test_csr_layout(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        roots = np.array([0, 1, 1])
        ptr, nodes = ic_rr_sets(pg, roots, as_generator(0))
        assert ptr.shape == (4,)
        assert ptr[-1] == nodes.size
        assert nodes[ptr[0] : ptr[1]].tolist() == [0]
        assert set(nodes[ptr[1] : ptr[2]].tolist()) == {0, 1}

    def test_empty_roots(self):
        pg = project([], 2)
        ptr, nodes = ic_rr_sets(
            pg, np.array([], dtype=np.int64), as_generator(0)
        )
        assert ptr.tolist() == [0]
        assert nodes.size == 0

    def test_scratch_reuse_is_safe(self):
        """Consecutive samples must not leak visited marks."""
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        first, second = (
            set(rr.tolist()) for rr in rr_sets(pg, [2, 0], as_generator(0))
        )
        assert first == {0, 1, 2}
        assert second == {0}
