"""Tests for the IM and TIM baselines (Sec. VI-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import OIPAProblem
from repro.diffusion.adoption import AdoptionModel
from repro.graph.digraph import TopicGraph
from repro.im.baselines import im_baseline, tim_baseline
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import MemoryStore
from repro.topics.distributions import Campaign, unit_piece


@pytest.fixture()
def topic_split_world():
    """Two disjoint influence communities keyed by topic.

    Hub 0 spreads topic 0 to vertices 1-4; hub 5 spreads topic 1 to
    6-9.  A topic-aware selector must send piece t_z to its own hub.
    """
    edges = [(0, i, {0: 1.0}) for i in range(1, 5)]
    edges += [(5, i, {1: 1.0}) for i in range(6, 10)]
    graph = TopicGraph.from_edges(10, 2, edges)
    campaign = Campaign([unit_piece(0, 2), unit_piece(1, 2)])
    adoption = AdoptionModel(alpha=1.0, beta=1.0)
    problem = OIPAProblem(
        graph, campaign, adoption, k=1, pool=np.arange(10)
    )
    mrr = MRRCollection.generate(graph, campaign, theta=2000, seed=21)
    return problem, mrr


class TestSinglePieceSemantics:
    def test_im_uses_one_piece_only(self, topic_split_world):
        problem, mrr = topic_split_world
        result = im_baseline(problem, mrr, seed=1)
        non_empty = [s for s in result.plan.seed_sets if s]
        assert len(non_empty) == 1
        assert result.plan.size <= problem.k

    def test_tim_uses_one_piece_only(self, topic_split_world):
        problem, mrr = topic_split_world
        result = tim_baseline(problem, mrr)
        non_empty = [s for s in result.plan.seed_sets if s]
        assert len(non_empty) == 1

    def test_tim_selects_matching_hub(self, topic_split_world):
        """TIM's piece-aware selection must pair a hub with its topic."""
        problem, mrr = topic_split_world
        result = tim_baseline(problem, mrr)
        hub = next(iter(result.plan.seed_sets[result.chosen_piece]))
        assert (result.chosen_piece, hub) in {(0, 0), (1, 5)}

    def test_utilities_match_mrr_estimates(self, topic_split_world):
        problem, mrr = topic_split_world
        for result in (im_baseline(problem, mrr, seed=2), tim_baseline(problem, mrr)):
            assert result.utility == pytest.approx(
                mrr.estimate(result.plan.seed_lists(), problem.adoption)
            )

    def test_seeds_within_pool(self):
        edges = [(0, i, {0: 1.0}) for i in range(1, 5)]
        graph = TopicGraph.from_edges(5, 1, edges)
        campaign = Campaign([unit_piece(0, 1)])
        adoption = AdoptionModel(alpha=1.0, beta=1.0)
        pool = np.array([1, 2])  # the hub is NOT eligible
        problem = OIPAProblem(graph, campaign, adoption, k=2, pool=pool)
        mrr = MRRCollection.generate(graph, campaign, theta=500, seed=22)
        for result in (im_baseline(problem, mrr, seed=3), tim_baseline(problem, mrr)):
            for v, _ in result.plan.assignments():
                assert v in (1, 2)

    def test_tim_beats_im_on_topic_split(self, topic_split_world):
        """The paper's motivating gap: IM flattens topics and suffers.

        With k=1 on the split world, IM's flat-graph seed is one of the
        two hubs but its piece choice is then forced; TIM gets the
        pairing right by construction.  TIM must be at least as good.
        """
        problem, mrr = topic_split_world
        im = im_baseline(problem, mrr, seed=4)
        tim = tim_baseline(problem, mrr)
        assert tim.utility >= im.utility - 1e-9

    def test_elapsed_time_recorded(self, topic_split_world):
        problem, mrr = topic_split_world
        result = tim_baseline(problem, mrr)
        assert result.elapsed_seconds >= 0.0
        assert result.name == "TIM"

    def test_im_samples_in_ram_beside_a_store_instance(
        self, topic_split_world
    ):
        """A runtime's store instance holds the campaign's collection;
        the flattened graph's RR sets never go into it."""
        problem, mrr = topic_split_world
        runtime = Runtime(store=MemoryStore())
        MRRCollection.generate(
            problem.graph, problem.campaign, theta=300, seed=5,
            runtime=runtime,
        )
        result = im_baseline(problem, mrr, seed=6, runtime=runtime)
        assert result.seeds == im_baseline(problem, mrr, seed=6).seeds
