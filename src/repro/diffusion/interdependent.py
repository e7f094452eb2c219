"""Interdependent piece propagation — the paper's future-work extension.

Sec. VII: "In this work, the viral pieces are spread in the network
independently.  It would be interesting to study the interdependence of
different viral pieces while still optimizing the adoption utility."

This module implements a controlled relaxation of the independence
assumption for *evaluation* (the optimisation problem stays as in the
paper; Theorem 1 makes the general interdependent case hopeless anyway):

Each ordered pair of pieces gets an interaction weight ``rho[j, j']``:

* ``rho > 0`` (complementary): having received piece ``j`` makes a user
  receptive to piece ``j'`` — each cascade of ``j'`` gets a second
  chance to cross an edge into such a user, with the failed edge
  re-tried at probability ``rho * p``;
* ``rho < 0`` (competitive): a user who received ``j`` ignores ``j'``
  with probability ``|rho|`` (the received-piece count drops).

``rho = 0`` recovers the paper's independent model exactly, which the
test suite asserts, along with the monotone directional effects.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph
from repro.diffusion.simulate import _keyed_rounds, simulate_cascade
from repro.exceptions import ParameterError
from repro.utils.validation import (
    check_piece_graphs_aligned,
    check_positive_int,
)

__all__ = ["InteractionMatrix", "simulate_interdependent_utility"]


class InteractionMatrix:
    """Pairwise piece-interaction weights ``rho[j, j'] in [-1, 1]``."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError(
                f"interaction matrix must be square, got {values.shape}"
            )
        if np.any(np.abs(values) > 1.0):
            raise ParameterError("interaction weights must lie in [-1, 1]")
        if np.any(np.diag(values) != 0.0):
            raise ParameterError("self-interaction must be zero")
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def independent(cls, num_pieces: int) -> "InteractionMatrix":
        """The paper's model: no interaction."""
        return cls(np.zeros((num_pieces, num_pieces)))

    @classmethod
    def uniform(cls, num_pieces: int, rho: float) -> "InteractionMatrix":
        """All distinct pairs share one interaction weight ``rho``."""
        values = np.full((num_pieces, num_pieces), float(rho))
        np.fill_diagonal(values, 0.0)
        return cls(values)

    @property
    def num_pieces(self) -> int:
        return int(self.values.shape[0])

    def is_independent(self) -> bool:
        return bool(np.all(self.values == 0.0))


def simulate_interdependent_utility(
    piece_graphs: Sequence[PieceGraph],
    plan_seed_sets: Sequence,
    adoption: AdoptionModel,
    interactions: InteractionMatrix,
    *,
    rounds: int = 200,
    seed=None,
) -> float:
    """Monte-Carlo AU under pairwise piece interactions.

    Pieces are simulated in index order each round.  After piece ``j``'s
    independent cascade, complementary interactions give users already
    holding earlier pieces a re-exposure chance, and competitive ones
    may make them drop piece ``j`` (see module docstring).  With an
    all-zero matrix this reduces exactly to
    :func:`repro.diffusion.simulate.simulate_adoption_utility`'s model
    (same per-round cascade draws in distribution).  Rounds come from
    the keyed chunks of :func:`repro.diffusion.simulate._keyed_rounds`,
    so the estimate depends on ``seed`` alone, never on
    ``REPRO_WORKERS``.
    """
    from repro.runtime import resolve_runtime

    rt = resolve_runtime(None, seed=seed)
    if len(piece_graphs) != len(plan_seed_sets):
        raise ParameterError(
            f"{len(plan_seed_sets)} seed sets for {len(piece_graphs)} pieces"
        )
    if not piece_graphs:
        raise ParameterError("need at least one piece")
    if interactions.num_pieces != len(piece_graphs):
        raise ParameterError(
            f"interaction matrix is {interactions.num_pieces}x"
            f"{interactions.num_pieces} but there are {len(piece_graphs)} pieces"
        )
    rounds = check_positive_int("rounds", rounds)
    n = piece_graphs[0].n
    check_piece_graphs_aligned(piece_graphs, n)
    l = len(piece_graphs)
    seed_lists = [list(s) for s in plan_seed_sets]
    rho = interactions.values

    def trial(rng):
        received = np.zeros((n, l), dtype=bool)
        for j, (pg, seeds) in enumerate(zip(piece_graphs, seed_lists)):
            if seeds:
                received[:, j] = simulate_cascade(
                    pg, seeds, rng, backend=rt.backend
                )
            # Complementary boosts from earlier pieces: users holding
            # piece j' get an extra adoption-side exposure chance.
            for j_prev in range(j):
                r = rho[j_prev, j]
                if r > 0:
                    holders = received[:, j_prev] & ~received[:, j]
                    if np.any(holders):
                        # A re-exposure succeeds with probability r *
                        # (fraction of the network the piece reached) —
                        # a mean-field second chance.
                        reach = received[:, j].mean()
                        boost = rng.random(int(holders.sum())) < r * reach
                        idx = np.flatnonzero(holders)
                        received[idx[boost], j] = True
                elif r < 0:
                    clash = received[:, j_prev] & received[:, j]
                    if np.any(clash):
                        dropped = rng.random(int(clash.sum())) < -r
                        idx = np.flatnonzero(clash)
                        received[idx[dropped], j] = False
        counts = received.sum(axis=1)
        return float(adoption.probability(counts).sum())

    return float(_keyed_rounds(trial, rounds, rt).mean())
