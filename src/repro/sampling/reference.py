"""Reference per-vertex loops: the test oracle for the sampling engines.

An RR set for root ``x`` under a homogeneous influence graph (Sec. V-A,
following Borgs et al. [7] and Tang et al. [33], [32]) is the set of
vertices that reach ``x`` in a graph sampled by keeping each edge ``e``
independently with probability ``p(e)``.  The standard equivalence: a
vertex ``u`` lands in the RR set of ``x`` with exactly the probability
that a cascade seeded at ``u`` activates ``x`` — which is what makes
``n/theta * sum_i I[R_i ∩ S ≠ ∅]`` an unbiased spread estimator.

The engines in :mod:`repro.sampling.batch` (and the compiled tier that
is bit-identical to them) are what every entry point runs.  This module
keeps the plain loops they replaced, one vertex or one walk step per
Python iteration, so tests and benchmarks have an independent baseline:

* :func:`ic_rr_sets` — the lazy reverse BFS of Borgs et al.: edges are
  coin-flipped only when the traversal first considers them, which is
  distributionally identical to sampling the whole graph up front (each
  edge is examined at most once per trial because the BFS visits each
  vertex at most once);
* :func:`lt_rr_sets` — the LT single-predecessor walk (in LT's
  live-edge view each vertex keeps at most one incoming edge, chosen
  with probability equal to its weight);
* :func:`ic_cascade` / :func:`lt_cascade` — one forward IC / LT trial.

Draw-order contract, which is what makes the loops an oracle: a
``block_size=1`` :class:`~repro.sampling.batch.BatchRRSampler` or
:class:`~repro.sampling.batch.BatchLTSampler` consumes the rng stream
exactly like :func:`ic_rr_sets` / :func:`lt_rr_sets` (bit-for-bit equal
CSR output), and :func:`~repro.sampling.batch.simulate_cascade_batch`
exactly like :func:`ic_cascade` (bit-for-bit equal masks).  Multi-root
blocks interleave their roots' draws and agree in distribution only;
the LT forward kernel draws the same thresholds and agrees up to
last-ulp pressure rounding.

Nothing in the library imports this module, and no runtime setting
reaches it.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.projection import PieceGraph
from repro.exceptions import ParameterError, SamplingError
from repro.sampling.batch import check_lt_feasible
from repro.utils.frontier import Int64Buffer

__all__ = ["ic_cascade", "ic_rr_sets", "lt_cascade", "lt_rr_sets"]


def _csr(piece_graph: PieceGraph, roots, rng, sample_one):
    """Draw ``sample_one(root, rng, mark, stamp)`` per root, CSR-flattened.

    One stamp array serves every root of the call: root ``i`` marks its
    visited vertices with stamp ``i + 1``, so no per-root reset.
    """
    n = piece_graph.n
    roots = np.asarray(roots, dtype=np.int64)
    mark = np.zeros(n, dtype=np.int64)
    ptr = np.zeros(len(roots) + 1, dtype=np.int64)
    nodes = Int64Buffer(2 * len(roots) + 16)
    for i, root in enumerate(roots):
        root = int(root)
        if not (0 <= root < n):
            raise SamplingError(f"root {root} outside [0, {n})")
        rr = sample_one(root, rng, mark, i + 1)
        nodes.extend(rr)
        ptr[i + 1] = ptr[i] + rr.size
    return ptr, nodes.to_array()


def ic_rr_sets(
    piece_graph: PieceGraph, roots, rng
) -> tuple[np.ndarray, np.ndarray]:
    """IC RR sets for every root by lazy reverse BFS, CSR-flattened.

    Returns ``(ptr, nodes)``: the ``i``-th set is
    ``nodes[ptr[i]:ptr[i + 1]]``, root first, then members in BFS
    discovery order.
    """
    in_ptr = piece_graph.in_ptr
    in_src = piece_graph.in_src
    in_prob = piece_graph.in_prob
    queue = np.empty(max(piece_graph.n, 1), dtype=np.int64)

    def sample_one(root, rng, mark, stamp):
        mark[root] = stamp
        queue[0] = root
        head, tail = 0, 1
        while head < tail:
            x = queue[head]
            head += 1
            lo, hi = in_ptr[x], in_ptr[x + 1]
            if lo == hi:
                continue
            draws = rng.random(hi - lo)
            hits = np.flatnonzero(draws < in_prob[lo:hi])
            for k in hits:
                u = in_src[lo + k]
                if mark[u] != stamp:
                    mark[u] = stamp
                    queue[tail] = u
                    tail += 1
        return queue[:tail].copy()

    return _csr(piece_graph, roots, rng, sample_one)


def lt_rr_sets(
    piece_graph: PieceGraph, roots, rng, *, check_weights: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """LT RR sets for every root by weighted walk, CSR-flattened.

    Each step draws one uniform and picks the in-neighbour whose
    cumulative weight first passes it; the walk stops at a vertex with
    no in-edges (without drawing), on the "no live incoming edge" mass,
    or when it walks into a cycle.  Raises on un-normalised weights
    unless ``check_weights=False``.
    """
    if check_weights:
        check_lt_feasible(piece_graph)
    in_ptr, in_src, in_prob = (
        piece_graph.in_ptr,
        piece_graph.in_src,
        piece_graph.in_prob,
    )

    def sample_one(root, rng, mark, stamp):
        path = [root]
        mark[root] = stamp
        current = root
        while True:
            lo, hi = in_ptr[current], in_ptr[current + 1]
            if lo == hi:
                break
            weights = in_prob[lo:hi]
            draw = rng.random()
            cumulative = 0.0
            chosen = -1
            for idx in range(weights.size):
                cumulative += weights[idx]
                if draw < cumulative:
                    chosen = idx
                    break
            if chosen < 0:
                break  # the "no live incoming edge" mass
            nxt = int(in_src[lo + chosen])
            if mark[nxt] == stamp:
                break  # walked into a cycle: stop
            mark[nxt] = stamp
            path.append(nxt)
            current = nxt
        return np.asarray(path, dtype=np.int64)

    return _csr(piece_graph, roots, rng, sample_one)


def ic_cascade(piece_graph: PieceGraph, seeds, rng) -> np.ndarray:
    """One forward independent-cascade trial; the activation mask."""
    n = piece_graph.n
    active = np.zeros(n, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        s = int(s)
        if not (0 <= s < n):
            raise ParameterError(f"seed {s} outside [0, {n})")
        if not active[s]:
            active[s] = True
            frontier.append(s)
    out_ptr, out_dst, out_prob = (
        piece_graph.out_ptr,
        piece_graph.out_dst,
        piece_graph.out_prob,
    )
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            lo, hi = out_ptr[u], out_ptr[u + 1]
            if lo == hi:
                continue
            draws = rng.random(hi - lo)
            hits = np.flatnonzero(draws < out_prob[lo:hi])
            for k in hits:
                v = int(out_dst[lo + k])
                if not active[v]:
                    active[v] = True
                    next_frontier.append(v)
        frontier = next_frontier
    return active


def lt_cascade(
    piece_graph: PieceGraph, seeds, rng, *, check_weights: bool = True
) -> np.ndarray:
    """One forward LT trial (uniform thresholds); the activation mask."""
    n = piece_graph.n
    if check_weights:
        check_lt_feasible(piece_graph)
    thresholds = rng.random(n)
    active = np.zeros(n, dtype=bool)
    pressure = np.zeros(n, dtype=np.float64)
    frontier = []
    for s in seeds:
        s = int(s)
        if not (0 <= s < n):
            raise ParameterError(f"seed {s} outside [0, {n})")
        if not active[s]:
            active[s] = True
            frontier.append(s)
    out_ptr, out_dst, out_prob = (
        piece_graph.out_ptr,
        piece_graph.out_dst,
        piece_graph.out_prob,
    )
    while frontier:
        next_frontier = []
        for u in frontier:
            lo, hi = out_ptr[u], out_ptr[u + 1]
            for s in range(lo, hi):
                v = int(out_dst[s])
                if active[v]:
                    continue
                pressure[v] += out_prob[s]
                if pressure[v] >= thresholds[v]:
                    active[v] = True
                    next_frontier.append(v)
        frontier = next_frontier
    return active
