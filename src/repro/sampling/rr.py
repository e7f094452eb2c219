"""Random reverse-reachable (RR) set sampling.

An RR set for root ``x`` under a homogeneous influence graph (Sec. V-A,
following Borgs et al. [7] and Tang et al. [33], [32]) is the set of
vertices that reach ``x`` in a graph sampled by keeping each edge ``e``
independently with probability ``p(e)``.  The standard equivalence: a
vertex ``u`` lands in the RR set of ``x`` with exactly the probability
that a cascade seeded at ``u`` activates ``x`` — which is what makes
``n/theta * sum_i I[R_i ∩ S ≠ ∅]`` an unbiased spread estimator.

Three backends implement the sampling (sampling is the hot loop of the
whole reproduction):

``"batch"`` (default)
    The frontier-at-a-time NumPy engine of
    :class:`repro.sampling.batch.BatchRRSampler` — whole blocks of
    roots expanded per kernel pass.
``"native"``
    The compiled tier
    (:class:`repro.sampling.batch.NativeRRSampler`): same block driver
    and draw stream as ``"batch"``, with each level's expansion fused
    into one Numba-compiled loop.  Bit-identical to ``"batch"``; falls
    back to it (with one warning) when Numba is not importable.
``"python"``
    The reference lazy reverse BFS: edges are coin-flipped only when
    the traversal first considers them, which is distributionally
    identical to sampling the whole graph up front (each edge is
    examined at most once per trial because the BFS visits each vertex
    at most once).  A stamp array replaces per-trial ``visited``
    re-allocation, and the BFS queue is a preallocated vertex buffer.

Both backends flip the same coins and agree in distribution; the batch
backend interleaves the draws of the roots sharing a block, so
realisations for a fixed seed differ (except at ``block_size=1``, where
they are bit-for-bit identical — see :mod:`repro.sampling.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.projection import PieceGraph
from repro.exceptions import SamplingError
from repro.sampling.batch import (
    BatchRRSampler,
    NativeRRSampler,
    check_backend,
)
from repro.utils.frontier import Int64Buffer

__all__ = ["ReverseReachableSampler"]


class ReverseReachableSampler:
    """Reusable RR-set sampler bound to one projected piece graph."""

    __slots__ = ("_graph", "_mark", "_stamp", "_queue", "_backend", "_batch")

    def __init__(
        self, piece_graph: PieceGraph, *, backend: str | None = None
    ) -> None:
        self._graph = piece_graph
        self._backend = check_backend(backend)
        # Engine cache keyed by engine class: per-call backend overrides
        # can alternate batch/native without rebuilding engines.
        self._batch: dict[type, BatchRRSampler] = {}
        # Scalar-path scratch is allocated on first use: a batch-backend
        # sampler that only ever calls sample_many never pays the
        # 16n-byte mark/queue arrays on top of the engines' stamps.
        self._mark: np.ndarray | None = None
        self._stamp = 0
        self._queue: np.ndarray | None = None

    @property
    def graph(self) -> PieceGraph:
        """The projected influence graph this sampler draws from."""
        return self._graph

    @property
    def backend(self) -> str:
        """Which sampling engine ``sample_many`` routes through."""
        return self._backend

    def _batch_engine(self, backend: str) -> BatchRRSampler:
        cls = NativeRRSampler if backend == "native" else BatchRRSampler
        engine = self._batch.get(cls)
        if engine is None:
            engine = self._batch[cls] = cls(self._graph)
        return engine

    def sample(self, root: int, rng) -> np.ndarray:
        """Draw one random RR set for ``root``.

        Returns the member vertices as an array; the root is always
        included (a seed containing the root trivially activates it).
        Single roots always use the reference BFS — a one-root block
        consumes the rng stream identically, so the two backends cannot
        diverge here, and the scalar loop is faster for one root.
        """
        n = self._graph.n
        if not (0 <= root < n):
            raise SamplingError(f"root {root} outside [0, {n})")
        if self._mark is None:
            self._mark = np.zeros(n, dtype=np.int64)
            self._queue = np.empty(max(n, 1), dtype=np.int64)
        self._stamp += 1
        stamp = self._stamp
        mark, queue = self._mark, self._queue
        in_ptr = self._graph.in_ptr
        in_src = self._graph.in_src
        in_prob = self._graph.in_prob
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

    def sample_many(
        self, roots: np.ndarray, rng, *, backend: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw RR sets for every root; return them CSR-flattened.

        Returns ``(ptr, nodes)`` with ``ptr`` of length ``len(roots)+1``;
        the ``i``-th RR set is ``nodes[ptr[i]:ptr[i+1]]``.  ``backend``
        overrides the sampler's configured engine for this call.
        """
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

    def sample_group(self, tasks) -> list[tuple[np.ndarray, np.ndarray]]:
        """Draw each ``(roots, rng)`` task; one ``(ptr, nodes)`` per task.

        Each result equals ``sample_many(roots, rng)`` alone.  The batch
        engines advance the tasks' BFS levels together
        (:meth:`repro.sampling.batch.BatchRRSampler.sample_group`); the
        ``"python"`` backend samples them one by one.
        """
        if self._backend == "python":
            return [self.sample_many(roots, rng) for roots, rng in tasks]
        return self._batch_engine(self._backend).sample_group(tasks)
