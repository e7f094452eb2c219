"""Diffusion substrate: adoption model, piece projection, forward simulation."""

from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.diffusion.interdependent import (
    InteractionMatrix,
    simulate_interdependent_utility,
)
from repro.diffusion.threshold import (
    normalize_lt_weights,
    simulate_lt_cascade,
)
from repro.diffusion.simulate import (
    simulate_adoption_utility,
    simulate_cascade,
    simulate_model_cascade,
    simulate_piece_spread,
)

__all__ = [
    "AdoptionModel",
    "PieceGraph",
    "project_campaign",
    "simulate_cascade",
    "simulate_model_cascade",
    "simulate_piece_spread",
    "simulate_adoption_utility",
    "InteractionMatrix",
    "simulate_interdependent_utility",
    "normalize_lt_weights",
    "simulate_lt_cascade",
]
