"""The Linear Threshold (LT) diffusion model.

The paper's problem statement evaluates under the independent cascade
model, but notes (Sec. II) that classical IM is NP-hard "under the
popular independent cascade (IC) and linear threshold (LT) influence
models" with the same RIS machinery applying to both.  This module
supplies the LT substrate so OIPA instances can be built and solved on
LT semantics as well:

* :func:`normalize_lt_weights` — rescales a piece graph's incoming edge
  probabilities so each vertex's total incoming weight is at most 1
  (the LT feasibility condition);
* :func:`simulate_lt_cascade` — forward LT simulation with uniform
  random thresholds;

RR-set sampling under LT is the classic single-in-neighbour random walk
(Mossel-Roch equivalence: in the live-edge view of LT, each vertex
keeps at most one incoming edge, chosen with probability equal to its
weight), run by :class:`repro.sampling.batch.BatchLTSampler`.  Because
it emits plain RR sets, the whole OIPA stack — MRR collections, tau
bounds, BAB/BAB-P — runs unchanged on LT influence.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.projection import PieceGraph
from repro.exceptions import ParameterError
from repro.utils.frontier import segment_sums

__all__ = [
    "normalize_lt_weights",
    "simulate_lt_cascade",
]


def normalize_lt_weights(piece_graph: PieceGraph) -> PieceGraph:
    """Rescale incoming weights so every vertex's in-sum is <= 1.

    Vertices whose incoming probability mass exceeds 1 have all their
    incoming weights divided by that mass; others are untouched.  The
    result is a new :class:`PieceGraph` sharing the adjacency arrays.
    Negative weights are rejected (:class:`ParameterError`): silently
    rescaling them would flip the LT semantics, and every downstream
    kernel assumes nonnegative mass.

    The per-vertex scale factor depends only on the *destination*
    vertex, so the forward view is rebuilt in one vectorized division
    (``out_prob / scale[out_dst]``) instead of an edge-by-edge slot scan.
    """
    in_ptr, in_prob = piece_graph.in_ptr, piece_graph.in_prob
    if in_prob.size and float(in_prob.min()) < 0.0:
        bad = int(np.argmin(in_prob))
        raise ParameterError(
            f"negative LT edge weight {in_prob[bad]!r} at reverse slot "
            f"{bad}; weights must be nonnegative"
        )
    totals = segment_sums(in_prob, np.diff(in_ptr))
    scale = np.where(totals > 1.0, totals, 1.0)
    new_in = in_prob / np.repeat(scale, np.diff(in_ptr))
    new_out = piece_graph.out_prob / scale[piece_graph.out_dst]
    return PieceGraph(
        piece_graph.n,
        piece_graph.out_ptr,
        piece_graph.out_dst,
        new_out,
        in_ptr,
        piece_graph.in_src,
        new_in,
    )


def simulate_lt_cascade(
    piece_graph: PieceGraph,
    seeds,
    rng,
    *,
    check_weights: bool = True,
) -> np.ndarray:
    """One LT trial: uniform thresholds, weighted in-neighbour sums.

    A vertex activates when the weight of its active in-neighbours
    reaches its threshold.  Requires per-vertex incoming weight sums of
    at most 1 (use :func:`normalize_lt_weights` first); raises otherwise.
    ``check_weights=False`` skips that O(E) validation — Monte-Carlo
    callers validate the immutable graph once and hoist the check out
    of their trial loops.

    Runs the frontier-at-a-time kernel
    :func:`repro.sampling.batch.simulate_lt_cascade_batch`; the
    per-vertex loop it replaced is kept as the test oracle
    :func:`repro.sampling.reference.lt_cascade`.
    """
    # Imported lazily: repro.sampling pulls in this module through the
    # diffusion package, so a module-level import would be circular.
    from repro.sampling.batch import simulate_lt_cascade_batch

    return simulate_lt_cascade_batch(
        piece_graph, seeds, rng, check_weights=check_weights
    )
