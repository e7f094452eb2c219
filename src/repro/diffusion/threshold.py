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
* :class:`LinearThresholdSampler` — RR-set sampling under LT via the
  classic single-in-neighbour random walk (Mossel-Roch equivalence: in
  the live-edge view of LT, each vertex keeps at most one incoming edge,
  chosen with probability equal to its weight).

Because both samplers emit plain RR sets, the whole OIPA stack — MRR
collections, tau bounds, BAB/BAB-P — runs unchanged on LT influence.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.projection import PieceGraph
from repro.exceptions import ParameterError, SamplingError
from repro.utils.frontier import Int64Buffer, segment_sums

__all__ = [
    "normalize_lt_weights",
    "simulate_lt_cascade",
    "LinearThresholdSampler",
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
    backend: str | None = None,
    check_weights: bool = True,
) -> np.ndarray:
    """One LT trial: uniform thresholds, weighted in-neighbour sums.

    A vertex activates when the weight of its active in-neighbours
    reaches its threshold.  Requires per-vertex incoming weight sums of
    at most 1 (use :func:`normalize_lt_weights` first); raises otherwise.
    ``check_weights=False`` skips that O(E) validation — Monte-Carlo
    callers validate the immutable graph once and hoist the check out
    of their trial loops.

    ``backend="batch"`` (the default) and ``backend="native"`` route
    through the vectorized frontier-at-a-time kernel of
    :mod:`repro.sampling.batch` (the forward cascade has no separate
    compiled form — RR sampling is the hot loop, not single trials);
    ``backend="python"`` runs the per-vertex reference loop below.  Both
    consume the rng stream identically (one ``rng.random(n)`` threshold
    draw), but internal pressure bookkeeping differs in two harmless
    ways (frontier ordering, and accumulation past activation), so the
    activation masks agree up to last-ulp float rounding rather than by
    construction — see
    :func:`repro.sampling.batch.simulate_lt_cascade_batch` for the
    precise contract.
    """
    # Imported lazily: repro.sampling pulls in this module through the
    # diffusion package, so a module-level import would be circular.
    from repro.sampling.batch import (
        check_backend,
        check_lt_feasible,
        simulate_lt_cascade_batch,
    )

    if check_backend(backend) != "python":
        return simulate_lt_cascade_batch(
            piece_graph, seeds, rng, check_weights=check_weights
        )
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


class LinearThresholdSampler:
    """RR-set sampler under LT: a weighted single-predecessor walk.

    In LT's live-edge formulation each vertex keeps exactly one incoming
    edge ``(u, v)`` with probability ``w(u, v)`` (and none with the
    remaining mass), so a reverse-reachable set is the path followed by
    repeatedly sampling one predecessor until the walk stops or cycles.
    Drop-in compatible with :class:`repro.sampling.rr.
    ReverseReachableSampler` (same ``sample`` / ``sample_many`` API,
    including the ``backend`` knob: ``"batch"`` routes ``sample_many``
    through :class:`repro.sampling.batch.BatchLTSampler`, ``"native"``
    through the compiled :class:`repro.sampling.batch.NativeLTSampler`
    (bit-identical to batch), ``"python"`` keeps the per-walk reference
    loop below).
    """

    __slots__ = ("_graph", "_mark", "_stamp", "_backend", "_batch")

    def __init__(
        self,
        piece_graph: PieceGraph,
        *,
        backend: str | None = None,
        check_weights: bool = True,
    ) -> None:
        # Lazy import — see simulate_lt_cascade for the cycle note.
        from repro.sampling.batch import check_backend, check_lt_feasible

        # Fail loudly on un-normalised weights: with excess incoming
        # mass the walk always finds a predecessor and every RR-based
        # estimate silently inflates.  ``check_weights=False`` is for
        # callers that validated the graph once for many samplers (a
        # generation builds one per task); the engines built below
        # never repeat the check.
        if check_weights:
            check_lt_feasible(piece_graph)
        self._graph = piece_graph
        self._backend = check_backend(backend)
        # Engine cache keyed by engine class — see ReverseReachableSampler.
        self._batch = {}
        self._mark = np.zeros(piece_graph.n, dtype=np.int64)
        self._stamp = 0

    @property
    def graph(self) -> PieceGraph:
        """The underlying (weight-normalised) piece graph."""
        return self._graph

    @property
    def backend(self) -> str:
        """Which sampling engine ``sample_many`` routes through."""
        return self._backend

    def _batch_engine(self, backend: str):
        from repro.sampling.batch import BatchLTSampler, NativeLTSampler

        cls = NativeLTSampler if backend == "native" else BatchLTSampler
        engine = self._batch.get(cls)
        if engine is None:
            engine = self._batch[cls] = cls(self._graph, check_weights=False)
        return engine

    def sample(self, root: int, rng) -> np.ndarray:
        n = self._graph.n
        if not (0 <= root < n):
            raise SamplingError(f"root {root} outside [0, {n})")
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        in_ptr, in_src, in_prob = (
            self._graph.in_ptr,
            self._graph.in_src,
            self._graph.in_prob,
        )
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

    def sample_many(
        self, roots, rng, *, backend: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR-flattened batch form, mirroring the IC sampler.

        ``backend`` overrides the sampler's configured engine for this
        call (``"batch"``/``"native"``/``"python"``).
        """
        from repro.sampling.batch import check_backend

        backend = self._backend if backend is None else check_backend(backend)
        roots = np.asarray(roots, dtype=np.int64)
        if backend != "python":
            return self._batch_engine(backend).sample_many(roots, rng)
        ptr = np.zeros(len(roots) + 1, dtype=np.int64)
        nodes = Int64Buffer(2 * len(roots) + 16)
        for i, root in enumerate(roots):
            rr = self.sample(int(root), rng)
            nodes.extend(rr)
            ptr[i + 1] = ptr[i] + rr.size
        return ptr, nodes.to_array()

    def sample_group(self, tasks):
        """One ``(ptr, nodes)`` per ``(roots, rng)`` task, mirroring
        :meth:`repro.sampling.rr.ReverseReachableSampler.sample_group`."""
        if self._backend == "python":
            return [self.sample_many(roots, rng) for roots, rng in tasks]
        return self._batch_engine(self._backend).sample_group(tasks)
