"""The vectorized inverted-index coverage kernels vs their loop references.

The CSR inverted index (vertex -> RR-set ids) already powers per-vertex
lookups; this suite pins the *batched* kernels layered on it:

* :func:`repro.core.coverage.coverage_gains` must equal the per-vertex
  loop ``(~covered[samples_containing(piece, v)]).sum()`` on random MRR
  collections and random covered masks (property-tested);
* greedy max-coverage seed sets must be identical across the lazy
  (CELF) path, the dense vectorized path, and the historical
  per-candidate loop reimplemented here as the oracle;
* :meth:`TauState.marginal_gains` must equal the scalar
  :meth:`TauState.marginal_gain` bit for bit per candidate, with identical
  evaluation accounting, and ``compute_bound``'s lazy/plain variants
  must keep selecting the same assignments.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compute_bound import CandidateSpace, compute_bound
from repro.core.coverage import CoverageState, coverage_gains
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import TauState
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.ris import max_coverage_seeds
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

collection_params = st.fixed_dictionaries(
    {
        "n": st.integers(10, 60),
        "pieces": st.integers(1, 3),
        "theta": st.integers(20, 150),
        "seed": st.integers(0, 10_000),
    }
)


def build_collection(params) -> MRRCollection:
    src, dst = preferential_attachment_digraph(
        params["n"], 3, seed=params["seed"]
    )
    graph = build_topic_graph(
        params["n"], src, dst, 4,
        topics_per_edge=2.0, prob_mean=0.25, seed=params["seed"] + 1,
    )
    campaign = Campaign.sample_unit(params["pieces"], 4, seed=params["seed"] + 2)
    return MRRCollection.generate(
        graph, campaign, theta=params["theta"], seed=params["seed"] + 3
    )


def loop_gains(mrr, piece, pool, covered) -> np.ndarray:
    """The historical per-candidate marginal-gain loop (the oracle)."""
    return np.array(
        [
            int((~covered[mrr.samples_containing(piece, int(v))]).sum())
            for v in pool
        ],
        dtype=np.int64,
    )


def loop_greedy(mrr, piece, pool, k) -> list[int]:
    """The pre-kernel greedy max coverage, kept verbatim as the oracle."""
    covered = np.zeros(mrr.theta, dtype=bool)
    seeds: list[int] = []
    chosen: set[int] = set()
    for _ in range(k):
        best_gain, best_v = 0, None
        for v in pool:
            v = int(v)
            if v in chosen:
                continue
            gain = int((~covered[mrr.samples_containing(piece, v)]).sum())
            if gain > best_gain:
                best_gain, best_v = gain, v
        if best_v is None:
            break
        covered[mrr.samples_containing(piece, best_v)] = True
        chosen.add(best_v)
        seeds.append(best_v)
    return seeds


class TestCoverageGainsKernel:
    @given(params=collection_params)
    @SETTINGS
    def test_matches_loop_reference(self, params):
        mrr = build_collection(params)
        rng = np.random.default_rng(params["seed"])
        pool = np.arange(mrr.n, dtype=np.int64)
        for piece in range(mrr.num_pieces):
            covered = rng.random(mrr.theta) < 0.3
            assert np.array_equal(
                coverage_gains(mrr, piece, pool, covered),
                loop_gains(mrr, piece, pool, covered),
            )

    def test_empty_pool_and_empty_index(self, small_mrr):
        covered = np.zeros(small_mrr.theta, dtype=bool)
        empty = coverage_gains(
            small_mrr, 0, np.zeros(0, dtype=np.int64), covered
        )
        assert empty.size == 0

    def test_validation(self, small_mrr):
        covered = np.zeros(small_mrr.theta, dtype=bool)
        with pytest.raises(SolverError, match="vertex"):
            coverage_gains(small_mrr, 0, np.array([small_mrr.n]), covered)
        with pytest.raises(SolverError, match="covered"):
            coverage_gains(
                small_mrr, 0, np.array([0]), np.zeros(3, dtype=bool)
            )

    @given(params=collection_params)
    @SETTINGS
    def test_coverage_state_gains_and_add_many(self, params):
        """Batch state ops equal the per-call add/newly_covered path."""
        mrr = build_collection(params)
        rng = np.random.default_rng(params["seed"] + 9)
        scalar_state, batch_state = CoverageState(mrr), CoverageState(mrr)
        for piece in range(mrr.num_pieces):
            picks = rng.integers(0, mrr.n, size=4)
            for v in picks:
                scalar_state.add(int(v), piece)
            batch_state.add_many(picks, piece)
        assert np.array_equal(scalar_state.covered, batch_state.covered)
        assert np.array_equal(scalar_state.counts, batch_state.counts)
        pool = np.arange(mrr.n, dtype=np.int64)
        for piece in range(mrr.num_pieces):
            expected = np.array(
                [
                    scalar_state.newly_covered(int(v), piece).size
                    for v in pool
                ],
                dtype=np.int64,
            )
            kernel = coverage_gains(
                mrr, piece, pool, batch_state.covered[:, piece]
            )
            assert np.array_equal(kernel, expected)


class TestGreedyEquivalence:
    @given(params=collection_params)
    @SETTINGS
    def test_all_three_selections_identical(self, params):
        """Lazy CELF, dense vectorized, and the loop oracle agree."""
        mrr = build_collection(params)
        pool = np.arange(mrr.n, dtype=np.int64)
        k = 4
        lazy, s_lazy = max_coverage_seeds(mrr, 0, pool, k, lazy=True)
        dense, s_dense = max_coverage_seeds(mrr, 0, pool, k, lazy=False)
        oracle = loop_greedy(mrr, 0, pool, k)
        assert lazy == dense == oracle
        assert s_lazy == pytest.approx(s_dense)

    def test_pinned_instance_seeds(self):
        """A pinned seeded instance: the refactor must not move seeds."""
        mrr = build_collection(
            {"n": 50, "pieces": 2, "theta": 120, "seed": 2024}
        )
        pool = np.arange(0, 50, 2, dtype=np.int64)
        for piece in range(2):
            lazy, _ = max_coverage_seeds(mrr, piece, pool, 5, lazy=True)
            dense, _ = max_coverage_seeds(mrr, piece, pool, 5, lazy=False)
            assert lazy == dense == loop_greedy(mrr, piece, pool, 5)


class TestTauKernel:
    def _tau(self, mrr, adoption):
        table = MajorantTable(adoption, mrr.num_pieces)
        base = CoverageState(mrr)
        base.add(0, 0)
        return TauState(mrr, table, base, adoption)

    @given(params=collection_params)
    @SETTINGS
    def test_marginal_gains_match_scalar(self, params):
        mrr = build_collection(params)
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        tau_vec = self._tau(mrr, adoption)
        tau_ref = self._tau(mrr, adoption)
        pool = np.arange(mrr.n, dtype=np.int64)
        for piece in range(mrr.num_pieces):
            vec = tau_vec.marginal_gains(pool, piece)
            ref = np.array(
                [tau_ref.marginal_gain(int(v), piece) for v in pool]
            )
            # the scalar gain is the one-slab case of the same kernel
            np.testing.assert_array_equal(vec, ref)
        assert tau_vec.evaluations == tau_ref.evaluations

    def test_validation(self, small_mrr):
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        tau = self._tau(small_mrr, adoption)
        with pytest.raises(SolverError, match="piece"):
            tau.marginal_gains(np.array([0]), small_mrr.num_pieces)
        with pytest.raises(SolverError, match="vertex"):
            tau.marginal_gains(np.array([-2]), 0)

    @given(params=collection_params)
    @SETTINGS
    def test_compute_bound_lazy_matches_plain(self, params):
        """The kernel-backed greedies still select identical plans."""
        mrr = build_collection(params)
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        table = MajorantTable(adoption, mrr.num_pieces)
        pool = np.arange(0, mrr.n, 3, dtype=np.int64)
        space = CandidateSpace(pool, mrr.num_pieces)
        from repro.core.plan import AssignmentPlan

        empty = AssignmentPlan([set() for _ in range(mrr.num_pieces)])
        lazy = compute_bound(
            mrr, table, adoption, empty, space, k=3, lazy=True
        )
        plain = compute_bound(
            mrr, table, adoption, empty, space, k=3, lazy=False
        )
        assert lazy.plan.seed_sets == plain.plan.seed_sets
        assert lazy.upper == pytest.approx(plain.upper)
        assert lazy.lower == pytest.approx(plain.lower)
        assert lazy.evaluations <= plain.evaluations
