"""Tests for the interdependent-pieces extension (paper future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.running_example import (
    running_example_adoption,
    running_example_campaign,
    running_example_graph,
)
from repro.diffusion.interdependent import (
    InteractionMatrix,
    simulate_interdependent_utility,
)
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.simulate import simulate_adoption_utility
from repro.exceptions import ParameterError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.topics.distributions import Campaign


@pytest.fixture(scope="module")
def world():
    graph = running_example_graph()
    campaign = running_example_campaign()
    adoption = running_example_adoption()
    return project_campaign(graph, campaign), adoption


class TestInteractionMatrix:
    def test_independent_factory(self):
        m = InteractionMatrix.independent(3)
        assert m.is_independent()
        assert m.num_pieces == 3

    def test_uniform_factory(self):
        m = InteractionMatrix.uniform(3, 0.4)
        assert m.values[0, 1] == 0.4
        assert m.values[1, 1] == 0.0
        assert not m.is_independent()

    def test_validation(self):
        with pytest.raises(ParameterError):
            InteractionMatrix(np.ones((2, 3)))
        with pytest.raises(ParameterError):
            InteractionMatrix(np.full((2, 2), 2.0))
        with pytest.raises(ParameterError):
            InteractionMatrix(np.eye(2))  # self-interaction

    def test_values_read_only(self):
        m = InteractionMatrix.independent(2)
        with pytest.raises(ValueError):
            m.values[0, 1] = 0.5


class TestSimulation:
    PLAN = [[0], [4]]

    def test_zero_interaction_matches_independent_model(self, world):
        pgs, adoption = world
        independent = simulate_adoption_utility(
            pgs, self.PLAN, adoption, rounds=200, seed=1
        )
        zero = simulate_interdependent_utility(
            pgs,
            self.PLAN,
            adoption,
            InteractionMatrix.independent(2),
            rounds=200,
            seed=1,
        )
        # The running example is deterministic: both are exact.
        assert zero == pytest.approx(independent, abs=1e-9)
        assert zero == pytest.approx(1.05, abs=0.01)

    def test_complementary_interaction_raises_utility(self, world):
        pgs, adoption = world
        base = simulate_interdependent_utility(
            pgs, self.PLAN, adoption,
            InteractionMatrix.independent(2), rounds=300, seed=2,
        )
        boosted = simulate_interdependent_utility(
            pgs, self.PLAN, adoption,
            InteractionMatrix.uniform(2, 0.8), rounds=300, seed=2,
        )
        assert boosted > base

    def test_competitive_interaction_lowers_utility(self, world):
        pgs, adoption = world
        base = simulate_interdependent_utility(
            pgs, self.PLAN, adoption,
            InteractionMatrix.independent(2), rounds=300, seed=3,
        )
        suppressed = simulate_interdependent_utility(
            pgs, self.PLAN, adoption,
            InteractionMatrix.uniform(2, -0.8), rounds=300, seed=3,
        )
        assert suppressed < base

    def test_effect_monotone_in_rho(self, world):
        pgs, adoption = world
        values = [
            simulate_interdependent_utility(
                pgs, self.PLAN, adoption,
                InteractionMatrix.uniform(2, rho), rounds=400, seed=4,
            )
            for rho in (-0.9, 0.0, 0.9)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_shape_validation(self, world):
        pgs, adoption = world
        with pytest.raises(ParameterError):
            simulate_interdependent_utility(
                pgs, [[0]], adoption, InteractionMatrix.independent(2)
            )
        with pytest.raises(ParameterError):
            simulate_interdependent_utility(
                pgs, self.PLAN, adoption, InteractionMatrix.independent(3)
            )

    def test_empty_campaign_rejected(self, world):
        _, adoption = world
        with pytest.raises(ParameterError, match="at least one piece"):
            simulate_interdependent_utility(
                [], [], adoption, InteractionMatrix.independent(0)
            )

    def test_zero_interaction_draws_the_adoption_stream(self):
        """With no interaction the per-round draws are the independent
        model's own keyed chunks, so the estimates are equal exactly."""
        src, dst = preferential_attachment_digraph(60, 2, seed=21)
        graph = build_topic_graph(
            60, src, dst, 3, topics_per_edge=1.5, prob_mean=0.3, seed=22
        )
        pgs = project_campaign(graph, Campaign.sample_unit(2, 3, seed=23))
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        plan = [[0, 9], [4]]
        for seed in (5, 6):
            assert simulate_interdependent_utility(
                pgs, plan, adoption, InteractionMatrix.independent(2),
                rounds=50, seed=seed,
            ) == simulate_adoption_utility(
                pgs, plan, adoption, rounds=50, seed=seed
            )
