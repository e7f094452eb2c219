"""Tests for the tau upper-bound state (Def. 6)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import PoolIndex, TauState
from repro.datasets.running_example import (
    running_example_adoption,
    running_example_campaign,
    running_example_graph,
)
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign


@pytest.fixture()
def setup():
    mrr = MRRCollection.generate(
        running_example_graph(), running_example_campaign(), theta=1000, seed=3
    )
    adoption = running_example_adoption()
    table = MajorantTable(adoption, 2)
    return mrr, adoption, table


def fresh_tau(mrr, table, adoption, base_plan=None):
    base = CoverageState.from_plan(
        mrr, base_plan or AssignmentPlan.empty(mrr.num_pieces)
    )
    return TauState(mrr, table, base, adoption)


class TestTauState:
    def test_empty_base_value_is_zero(self, setup):
        mrr, adoption, table = setup
        tau = fresh_tau(mrr, table, adoption)
        assert tau.value == pytest.approx(0.0)

    def test_marginal_matches_add(self, setup):
        mrr, adoption, table = setup
        tau = fresh_tau(mrr, table, adoption)
        predicted = tau.marginal_gain(0, 0)
        realised = tau.add(0, 0)
        assert predicted == pytest.approx(realised)
        assert tau.value == pytest.approx(realised)

    def test_evaluation_counter(self, setup):
        mrr, adoption, table = setup
        tau = fresh_tau(mrr, table, adoption)
        tau.marginal_gain(0, 0)
        tau.marginal_gain(1, 1)
        assert tau.evaluations == 2

    def test_tau_dominates_sigma(self, setup):
        """tau(S-bar | empty) >= sigma(S-bar) for every small plan."""
        mrr, adoption, table = setup
        vertices = range(5)
        for v1, v2 in itertools.product(vertices, vertices):
            tau = fresh_tau(mrr, table, adoption)
            tau.add(v1, 0)
            tau.add(v2, 1)
            sigma = mrr.estimate([[v1], [v2]], adoption)
            assert tau.value >= sigma - 1e-9, (v1, v2)

    def test_tau_tight_at_base(self, setup):
        """After refinement the anchor equals the logistic at the base."""
        mrr, adoption, table = setup
        base_plan = AssignmentPlan([{0}, {4}])
        tau = fresh_tau(mrr, table, adoption, base_plan)
        base_cov = CoverageState.from_plan(mrr, base_plan)
        anchors = table.values[base_cov.counts, base_cov.counts]
        assert tau.value == pytest.approx(
            mrr.n / mrr.theta * anchors.sum()
        )

    def test_submodularity_of_marginals(self, setup):
        """delta(v | small context) >= delta(v | larger context)."""
        mrr, adoption, table = setup
        small = fresh_tau(mrr, table, adoption)
        gain_small = small.marginal_gain(4, 1)
        large = fresh_tau(mrr, table, adoption)
        large.add(0, 0)
        large.add(3, 1)
        gain_large = large.marginal_gain(4, 1)
        assert gain_small >= gain_large - 1e-9

    def test_monotonicity_adds_never_negative(self, setup):
        mrr, adoption, table = setup
        tau = fresh_tau(mrr, table, adoption)
        for v in range(5):
            for j in range(2):
                assert tau.add(v, j) >= -1e-12

    def test_utility_view_matches_mrr(self, setup):
        mrr, adoption, table = setup
        tau = fresh_tau(mrr, table, adoption)
        tau.add(0, 0)
        tau.add(4, 1)
        assert tau.utility() == pytest.approx(
            mrr.estimate([[0], [4]], adoption)
        )

    def test_piece_count_mismatch_rejected(self, setup):
        mrr, adoption, _ = setup
        wrong_table = MajorantTable(adoption, 5)
        base = CoverageState(mrr)
        with pytest.raises(SolverError):
            TauState(mrr, wrong_table, base, adoption)

    def test_base_refinement_shrinks_headroom(self, setup):
        """Fig. 2: refining on a covered piece steepens the local bound.

        The gain credited for the *second* piece from a refined base
        (count 1) must be at most the chord gain from the unrefined
        envelope continued at count 1 — refinement never loosens tau.
        """
        mrr, adoption, table = setup
        unrefined_gain = table.gains[0, 1]
        refined_gain = table.gains[1, 1]
        true_gain = adoption.probability(2) - adoption.probability(1)
        assert refined_gain >= true_gain - 1e-12
        # And the refined anchor is exact while the unrefined value at
        # count 1 was an over-estimate (or equal):
        assert table.values[1, 1] <= table.values[0, 1] + 1e-12


# ----------------------------------------------------------------------
# commits reuse the preceding evaluation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def memo_world():
    """A pool index plus five vertices to interleave operations on: four
    with a non-empty slab in every piece and one with an empty slab."""
    src, dst = preferential_attachment_digraph(120, 3, seed=41)
    graph = build_topic_graph(
        120, src, dst, 4, topics_per_edge=2.0, prob_mean=0.15, seed=42
    )
    campaign = Campaign.sample_unit(3, 4, seed=43)
    adoption = AdoptionModel.from_ratio(0.5)
    mrr = MRRCollection.generate(graph, campaign, theta=100, seed=44)
    pool = np.arange(0, 120, 5)
    sizes = [
        [mrr.samples_containing(j, int(v)).size for j in range(3)]
        for v in pool
    ]
    full = [int(v) for v, s in zip(pool, sizes) if min(s) > 0]
    empty = [int(v) for v, s in zip(pool, sizes) if 0 in s and max(s) > 0]
    table = MajorantTable(adoption, mrr.num_pieces)
    base = CoverageState(mrr)
    base.add_many(pool[:2], 0)
    return mrr, adoption, table, base, PoolIndex(mrr, pool), full[:4] + empty[:1]


_OP = st.tuples(
    st.sampled_from(["gain", "add", "scan"]),
    st.integers(0, 4),  # which of the five vertices
    st.integers(0, 2),  # piece
)


def _bits(x: float) -> str:
    return float(x).hex()


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(ops=[("gain", 0, 0), ("add", 1, 0), ("add", 0, 0)])
@example(ops=[("gain", 0, 0), ("add", 0, 0), ("add", 0, 0)])
@example(ops=[("gain", 0, 0), ("add", 0, 1)])
@example(ops=[("gain", 0, 2), ("scan", 0, 1), ("add", 0, 2)])
@example(ops=[("gain", 4, 0), ("gain", 4, 1), ("gain", 4, 2), ("add", 4, 0)])
@given(ops=st.lists(_OP, max_size=25))
def test_memoised_commits_equal_fresh_commits(memo_world, ops):
    """Any interleaving of gains, commits and pool scans: a state that
    reuses its last evaluation on commit equals one that never does
    (each returned gain, ``value`` and ``counts``, bit for bit)."""
    mrr, adoption, table, base, index, vertices = memo_world
    assert len(vertices) == 5
    reuse = TauState(mrr, table, base.copy(), adoption, index=index)
    fresh = TauState(mrr, table, base.copy(), adoption, index=index)
    for op, which, piece in ops:
        v = vertices[which]
        if op == "gain":
            assert _bits(reuse.marginal_gain(v, piece)) == _bits(
                fresh.marginal_gain(v, piece)
            )
        elif op == "add":
            fresh._memo = None  # the oracle always gathers afresh
            assert _bits(reuse.add(v, piece)) == _bits(fresh.add(v, piece))
        else:
            available = np.ones(
                (mrr.num_pieces, index.pool.size), dtype=bool
            )
            available[piece, which] = False
            assert (
                reuse.pool_gains(available).tobytes()
                == fresh.pool_gains(available).tobytes()
            )
        assert _bits(reuse.value) == _bits(fresh.value)
    np.testing.assert_array_equal(reuse.counts, fresh.counts)
    assert reuse.evaluations == fresh.evaluations
