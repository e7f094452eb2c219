"""Batched sampling engine: frontier-at-a-time NumPy kernels.

The reference kernels in :mod:`repro.sampling.rr` and
:mod:`repro.diffusion.simulate` walk adjacency slabs in per-hit Python
loops — the hot loop of the whole reproduction, and the reason the
paper's ``theta = 1e6`` is out of reach at pure-Python speed.  This
module replaces those loops with slab-level vectorized kernels:

* :class:`BatchRRSampler` draws RR sets for a whole block of roots at
  once.  Each BFS level gathers every frontier vertex's reverse
  adjacency slab into one flat array
  (:func:`~repro.utils.frontier.frontier_edge_slots` over ``in_ptr``),
  coin-flips the entire slab with a single ``rng.random`` draw, and
  deduplicates survivors per root with an ``(root slot, vertex)``
  stamp array — one NumPy dispatch per level instead of one Python
  iteration per vertex.
* :func:`simulate_cascade_batch` is the matching forward-cascade
  kernel over ``out_ptr``, shared with
  :func:`repro.diffusion.simulate.simulate_cascade`.

Levels are many and tiny, so the cost is per-level fixed work and
the hot path is sort-free: O(f) first-occurrence dedup over the stamp
array, radix-keyed grouping by root slot, and one never-re-zeroed
stamp array per thread (:class:`_StampScratch`).

Seed-stability contract: both kernels flip exactly the same coins as
their reference counterparts, just in a different order, so estimates
agree *in distribution* for any block size.  Where the draw order can
be preserved the agreement is exact: ``simulate_cascade_batch`` keeps
frontiers in discovery order and therefore consumes the rng stream
bit-for-bit identically to the Python loop, and a
``BatchRRSampler(block_size=1)`` does the same relative to
``ReverseReachableSampler.sample`` (multi-root blocks interleave the
roots' draws, which is where the speed comes from).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import native as _native
from repro.diffusion.projection import PieceGraph
from repro.exceptions import ConfigError, ParameterError, SamplingError
from repro.native import kernels as _nk
from repro.runtime import BACKENDS, DEFAULT_BACKEND, DEFAULT_MODEL, MODELS
from repro.utils.frontier import (
    Int64Buffer,
    first_occurrence,
    frontier_edge_slots,
    segment_sums,
    stable_key_order,
)
from repro.utils.validation import check_index_array

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "MODELS",
    "DEFAULT_MODEL",
    "BatchLTSampler",
    "BatchRRSampler",
    "NativeLTSampler",
    "NativeRRSampler",
    "adaptive_block_size",
    "canonical_backend",
    "check_backend",
    "check_lt_feasible",
    "check_model",
    "simulate_cascade_batch",
    "simulate_lt_cascade_batch",
]

# BACKENDS / MODELS and the REPRO_BACKEND-aware DEFAULT_BACKEND are
# owned by repro.runtime (the single env-resolution site) and
# re-exported here; this module's globals are the layer check_backend /
# check_model consult, keeping the historical monkeypatch points.

# Scratch budgets for the (block x n) stamp array.  The baseline
# budget (2^21 int64 cells = 16 MB) is what a sampler gets when the
# batch size is unknown; when `sample_many` sees the actual root
# count the budget adapts — enough cells for every root at once when
# that is cheap, up to a hard ceiling (2^23 cells = 64 MB) so huge
# graphs fall back to narrow blocks instead of exhausting memory.
_SCRATCH_CELLS = 1 << 21
_MAX_SCRATCH_CELLS = 1 << 23
_MAX_BLOCK = 4096

# Shared "level produced nothing" sentinel (never written to).
_EMPTY = np.zeros(0, dtype=np.int64)


def adaptive_block_size(n: int, num_roots: int) -> int:
    """Roots per kernel pass, adapted to the batch actually requested.

    Derived from the vertex count (stamp cells per block root) and the
    available roots (no point sizing blocks past the batch): the scratch
    budget grows from the 16 MB baseline toward whatever covers the
    whole batch in one pass, hard-ceilinged at 64 MB of stamp cells, and
    the resulting block is clamped to ``[1, min(num_roots, 4096)]``.
    The ceiling also bounds each thread's shared stamp array.  Replaces
    the flat 16 MB cap that left theta-scale batches crawling through
    2-root blocks on large graphs.
    """
    n = max(int(n), 1)
    num_roots = max(int(num_roots), 1)
    cells = min(_MAX_SCRATCH_CELLS, max(_SCRATCH_CELLS, num_roots * n))
    block = max(1, cells // n)
    return int(min(block, num_roots, _MAX_BLOCK))


def check_backend(backend: str | None) -> str:
    """Normalise a backend choice; ``None`` means the default.

    ``"native"`` resolves to itself only when the compiled tier is
    actually available (:func:`repro.native.compiled`); otherwise it
    degrades to ``"batch"`` — bit-identical by the tier contract —
    with one :class:`RuntimeWarning` per process.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ConfigError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "native" and not _native.compiled():
        _native.warn_fallback_once()
        return "batch"
    return backend


def canonical_backend(backend: str | None) -> str:
    """The backend name as recorded in cache keys and fingerprints.

    ``"native"`` canonicalises to ``"batch"``: the two engines are
    bit-identical by contract (see :mod:`repro.native`), so sample
    artifacts and shard directories written under either are
    interchangeable.  ``"python"`` stays distinct — its multi-root
    block realisations legitimately differ from the batch engine's.
    """
    backend = check_backend(backend)
    return "batch" if backend == "native" else backend


def check_model(model: str | None) -> str:
    """Normalise a diffusion-model choice; ``None`` means the default."""
    if model is None:
        model = DEFAULT_MODEL
    if model not in MODELS:
        raise ConfigError(
            f"model must be one of {MODELS}, got {model!r}"
        )
    return model


def check_lt_feasible(piece_graph: PieceGraph) -> None:
    """Require every vertex's incoming LT weight sum to be at most 1.

    The LT live-edge equivalence (and with it every RR-based estimate)
    only holds under this feasibility condition — with excess mass the
    single-predecessor walk always finds a live edge and RR sets are
    systematically too large.  Samplers and forward kernels share this
    one vectorized check so an un-normalised graph fails loudly instead
    of silently inflating estimates;
    :func:`repro.diffusion.threshold.normalize_lt_weights` repairs it.
    """
    in_sums = segment_sums(piece_graph.in_prob, np.diff(piece_graph.in_ptr))
    if in_sums.size and (in_sums > 1.0 + 1e-9).any():
        bad = int(np.argmax(in_sums > 1.0 + 1e-9))
        raise ParameterError(
            f"vertex {bad} has incoming LT weight > 1; normalise first"
        )


class _StampScratch(threading.local):
    """One thread's ``(root slot, vertex)`` stamp array and its stamp.

    Shared by every batch sampler the thread runs; it only grows and is
    never re-zeroed, since stamps only increase.
    """

    def __init__(self) -> None:
        self.mark = np.zeros(0, dtype=np.int64)
        self.stamp = 0

    def cells(self, size: int) -> np.ndarray:
        """The stamp array, grown to at least ``size`` cells."""
        if size > self.mark.size:
            self.mark = np.zeros(size, dtype=np.int64)
        return self.mark


_SCRATCH = _StampScratch()


class _BlockedSampler:
    """Block sizing and the block driver shared by the batch engines.

    ``block_size=None`` (the default) sizes blocks adaptively per
    ``sample_many`` call via :func:`adaptive_block_size`.  An explicit
    ``block_size`` pins the block (the stream-equality tests rely on
    ``block_size=1`` staying bit-compatible with the reference loops).
    The stamp array is the calling thread's :class:`_StampScratch`, so
    a sampler owns no scratch and costs nothing to build.
    """

    __slots__ = ("_graph", "_block", "_auto")

    def __init__(
        self, piece_graph: PieceGraph, *, block_size: int | None = None
    ) -> None:
        self._graph = piece_graph
        self._auto = block_size is None
        self._block = 0 if self._auto else int(block_size)
        if not self._auto and self._block < 1:
            raise ParameterError(f"block_size must be >= 1, got {block_size}")

    @property
    def graph(self) -> PieceGraph:
        """The projected influence graph this sampler draws from."""
        return self._graph

    @property
    def block_size(self) -> int:
        """Roots sharing one kernel pass (0 = adaptive, not yet sized)."""
        return self._block

    # -- the engine hooks ------------------------------------------------
    #
    # The block driver below owns everything draw-stream-relevant: block
    # slicing, stamp lifecycle, *when* uniforms are drawn and how many.
    # Engines only say how a level advances, which is what lets the
    # native tier swap in fused typed loops while provably consuming the
    # exact same rng stream as the NumPy engines.

    def _prepare_level(self, level_v, level_r):
        """Size the level: return ``(draw_count, ctx)``.

        ``draw_count`` uniforms are drawn by the driver (0 ends the
        block before any draw); ``ctx`` is handed to
        :meth:`_advance_level` unchanged.
        """
        raise NotImplementedError

    def _advance_level(self, ctx, draws, mark, stamp):
        """Consume the level's ``draws``; return ``(next_v, next_r)``.

        Newly reached (vertex, root slot) pairs, already stamped into
        ``mark``; empty arrays end the block.
        """
        raise NotImplementedError

    def _assemble_block(self, found_v, found_r, b, total):
        """Group a block's finds by root slot, discovery order kept.

        ``found_v``/``found_r`` are the per-level arrays (``total``
        entries overall); returns ``(block_v, block_sizes)`` with
        ``block_v`` holding root 0's set, then root 1's, … and
        ``block_sizes`` the ``b`` per-root counts.
        """
        if len(found_v) > 1:
            block_v = np.concatenate(found_v)
            block_r = np.concatenate(found_r)
            block_v = block_v[stable_key_order(block_r, b)]
        else:
            block_v, block_r = found_v[0], found_r[0]
        return block_v, np.bincount(block_r, minlength=b)

    def sample(self, root: int, rng) -> np.ndarray:
        """Draw one RR set for ``root`` (a single-root block)."""
        return self.sample_many(np.asarray([root], dtype=np.int64), rng)[1]

    def sample_many(self, roots, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw RR sets for every root; return them CSR-flattened.

        Returns ``(ptr, nodes)`` with ``ptr`` of length ``len(roots)+1``;
        the ``i``-th RR set is ``nodes[ptr[i]:ptr[i+1]]``, root first,
        then members in discovery order (BFS levels for the IC engines,
        walk order for LT).
        """
        n = self._graph.n
        roots = np.ascontiguousarray(np.asarray(roots, dtype=np.int64))
        if roots.ndim != 1:
            raise SamplingError(
                f"roots must be one-dimensional, got shape {roots.shape}"
            )
        check_index_array("root", roots, n, exc=SamplingError)
        if self._auto:
            self._block = adaptive_block_size(n, roots.size)
        block, scratch = self._block, _SCRATCH
        mark = scratch.cells(block * max(n, 1))
        sizes = np.zeros(roots.size, dtype=np.int64)
        out = Int64Buffer(2 * roots.size + 16)
        for start in range(0, roots.size, block):
            block_roots = roots[start : start + block]
            b = block_roots.size
            scratch.stamp += 1
            stamp = scratch.stamp
            slots = np.arange(b, dtype=np.int64)
            mark[slots * n + block_roots] = stamp
            level_v, level_r = block_roots, slots
            found_v = [block_roots]
            found_r = [slots]
            total = b
            while level_v.size:
                count, ctx = self._prepare_level(level_v, level_r)
                if count == 0:
                    break
                draws = rng.random(count)
                level_v, level_r = self._advance_level(
                    ctx, draws, mark, stamp
                )
                if level_v.size == 0:
                    break
                found_v.append(level_v)
                found_r.append(level_r)
                total += level_v.size
            block_v, block_sizes = self._assemble_block(
                found_v, found_r, b, total
            )
            sizes[start : start + b] = block_sizes
            out.extend(block_v)
        ptr = np.zeros(roots.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        return ptr, out.to_array()


class BatchRRSampler(_BlockedSampler):
    """RR-set sampler drawing a whole block of roots per kernel pass.

    Drop-in compatible with
    :class:`~repro.sampling.rr.ReverseReachableSampler` (same ``sample``
    / ``sample_many`` contract, CSR-flattened output); the difference is
    purely mechanical: a block of roots shares each frontier expansion,
    so the per-vertex Python overhead is amortized away.  Blocks are
    sized adaptively from the batch at hand unless ``block_size`` pins
    them (see :class:`_BlockedSampler`).
    """

    __slots__ = ()

    def _prepare_level(self, level_v, level_r):
        edge_idx, deg = frontier_edge_slots(self._graph.in_ptr, level_v)
        return edge_idx.size, (edge_idx, deg, level_r)

    def _advance_level(self, ctx, draws, mark, stamp):
        edge_idx, deg, level_r = ctx
        n = self._graph.n
        hit = draws < self._graph.in_prob[edge_idx]
        if not hit.any():
            return _EMPTY, _EMPTY
        cand_v = self._graph.in_src[edge_idx[hit]]
        cand_r = np.repeat(level_r, deg)[hit]
        key = cand_r * n + cand_v
        fresh = mark[key] != stamp
        if not fresh.any():
            return _EMPTY, _EMPTY
        key = first_occurrence(key[fresh], mark)
        mark[key] = stamp
        next_r = key // n
        next_v = key - next_r * n
        return next_v, next_r


def simulate_cascade_batch(
    piece_graph: PieceGraph, seeds, rng
) -> np.ndarray:
    """One independent-cascade trial, frontier-at-a-time (Sec. III-A).

    Vectorized counterpart of
    :func:`repro.diffusion.simulate.simulate_cascade`: the whole
    frontier's out-slabs are coin-flipped in one draw per level.
    Frontiers are kept in discovery order, so for the same seeded ``rng``
    the activation mask is bit-for-bit identical to the Python loop.
    """
    n = piece_graph.n
    active = np.zeros(n, dtype=bool)
    position = np.empty(n, dtype=np.int64)  # first_occurrence scratch
    frontier = np.fromiter(map(int, seeds), dtype=np.int64)
    check_index_array("seed", frontier, n, exc=ParameterError)
    frontier = first_occurrence(frontier, position)
    active[frontier] = True
    out_ptr = piece_graph.out_ptr
    out_dst = piece_graph.out_dst
    out_prob = piece_graph.out_prob
    while frontier.size:
        edge_idx, _ = frontier_edge_slots(out_ptr, frontier)
        if edge_idx.size == 0:
            break
        draws = rng.random(edge_idx.size)
        hit = draws < out_prob[edge_idx]
        targets = out_dst[edge_idx[hit]]
        fresh = first_occurrence(targets[~active[targets]], position)
        active[fresh] = True
        frontier = fresh
    return active


class BatchLTSampler(_BlockedSampler):
    """Batched LT RR-set sampler: weighted walks, a block per kernel pass.

    Under LT's live-edge view each vertex keeps at most one incoming
    edge, so an RR set is the path of a weighted single-predecessor walk
    (see :class:`repro.diffusion.threshold.LinearThresholdSampler`, the
    per-vertex reference).  This engine advances a whole block of walks
    per step: every live walk's reverse slab is gathered into one flat
    array, the inverse-CDF predecessor choice is resolved with one
    segment-local cumulative sum, and cycles are cut with the same
    ``(root slot, vertex)`` stamp array as :class:`BatchRRSampler`.

    Stream contract, mirroring the IC engine: each walk step consumes
    exactly one uniform draw per live walk — a walk at a vertex with no
    incoming edges terminates *without* drawing, matching the reference
    loop.  A ``block_size=1`` sampler therefore consumes the rng stream
    bit-for-bit like the reference (``np.cumsum`` accumulates
    sequentially, so even the inverse-CDF comparisons round
    identically); multi-root blocks interleave the walks' draws and
    agree in distribution.  Blocks are sized adaptively from the batch
    at hand unless ``block_size`` pins them (see
    :class:`_BlockedSampler`).
    """

    __slots__ = ()

    def __init__(
        self,
        piece_graph: PieceGraph,
        *,
        block_size: int | None = None,
        check_weights: bool = True,
    ) -> None:
        if check_weights:
            check_lt_feasible(piece_graph)
        super().__init__(piece_graph, block_size=block_size)

    def _prepare_level(self, cur_v, cur_r):
        in_ptr = self._graph.in_ptr
        deg = in_ptr[cur_v + 1] - in_ptr[cur_v]
        alive = deg > 0
        if not alive.all():
            # Walks at in-degree-0 vertices stop without a draw,
            # exactly like the reference loop's early break.
            cur_v, cur_r, deg = cur_v[alive], cur_r[alive], deg[alive]
        return cur_v.size, (cur_v, cur_r, deg)

    def _advance_level(self, ctx, draws, mark, stamp):
        cur_v, cur_r, deg = ctx
        n = self._graph.n
        edge_idx, _ = frontier_edge_slots(self._graph.in_ptr, cur_v)
        cum = np.cumsum(self._graph.in_prob[edge_idx])
        starts = np.cumsum(deg) - deg
        base = np.where(starts > 0, cum[starts - 1], 0.0)
        local = cum - np.repeat(base, deg)
        # local is nondecreasing per segment, so {local > draw}
        # is a suffix: its size gives the chosen slot directly.
        above = (local > np.repeat(draws, deg)).astype(np.int64)
        counts = np.add.reduceat(above, starts)
        live = counts > 0  # else the "no live incoming edge" mass
        if not live.any():
            return _EMPTY, _EMPTY
        chosen = starts[live] + (deg[live] - counts[live])
        nxt = self._graph.in_src[edge_idx[chosen]]
        nxt_r = cur_r[live]
        key = nxt_r * n + nxt
        fresh = mark[key] != stamp  # walked into a cycle: stop
        if not fresh.all():
            nxt, nxt_r, key = nxt[fresh], nxt_r[fresh], key[fresh]
        mark[key] = stamp
        return nxt, nxt_r


class _NativeScatter:
    """Kernel-backed block assembly shared by the native engines."""

    __slots__ = ()

    def _assemble_block(self, found_v, found_r, b, total):
        if len(found_v) == 1:
            # Roots only: one entry per slot, already in slot order.
            return found_v[0], np.ones(b, dtype=np.int64)
        block_v = np.concatenate(found_v)
        block_r = np.concatenate(found_r)
        sizes = np.zeros(b, dtype=np.int64)
        out = np.empty(total, dtype=np.int64)
        _nk.scatter_by_root(block_v, block_r, b, sizes, out)
        return out, sizes


class NativeRRSampler(_NativeScatter, BatchRRSampler):
    """The compiled IC engine: one typed loop per frontier expansion.

    Same block driver, stamp scratch, and — crucially — draw stream as
    :class:`BatchRRSampler`: the driver still draws one uniform per
    reverse-slab edge of the frontier, in the same order.  The per-level
    mask/gather/dedupe NumPy chain and the per-block stable sort are
    replaced by :func:`repro.native.kernels.rr_expand_level` and
    :func:`~repro.native.kernels.scatter_by_root`, which replicate them
    exactly (sequential first-stamp dedupe == ``first_occurrence``;
    counting scatter == stable key order), so output is bit-for-bit the
    batch engine's whether or not Numba actually compiled the loops.
    """

    __slots__ = ()

    def _prepare_level(self, level_v, level_r):
        in_ptr = self._graph.in_ptr
        count = int(np.sum(in_ptr[level_v + 1] - in_ptr[level_v]))
        return count, (level_v, level_r)

    def _advance_level(self, ctx, draws, mark, stamp):
        level_v, level_r = ctx
        g = self._graph
        next_v = np.empty(draws.size, dtype=np.int64)
        next_r = np.empty(draws.size, dtype=np.int64)
        k = _nk.rr_expand_level(
            g.in_ptr, g.in_src, g.in_prob, level_v, level_r,
            draws, mark, stamp, g.n, next_v, next_r,
        )
        return next_v[:k], next_r[:k]


class NativeLTSampler(_NativeScatter, BatchLTSampler):
    """The compiled LT engine: one typed loop per walk step.

    Inherits :class:`BatchLTSampler`'s live-walk filter (so the draw
    stream is identical — dead walks never draw) and replaces the
    global-cumsum inverse-CDF chain with
    :func:`repro.native.kernels.lt_walk_step`, whose running accumulator
    reproduces ``np.cumsum``'s sequential rounding bit-for-bit.
    """

    __slots__ = ()

    def _advance_level(self, ctx, draws, mark, stamp):
        cur_v, cur_r, _deg = ctx
        g = self._graph
        next_v = np.empty(cur_v.size, dtype=np.int64)
        next_r = np.empty(cur_v.size, dtype=np.int64)
        k = _nk.lt_walk_step(
            g.in_ptr, g.in_src, g.in_prob, cur_v, cur_r,
            draws, mark, stamp, g.n, next_v, next_r,
        )
        return next_v[:k], next_r[:k]


def simulate_lt_cascade_batch(
    piece_graph: PieceGraph, seeds, rng, *, check_weights: bool = True
) -> np.ndarray:
    """One Linear Threshold trial, frontier-at-a-time.

    Vectorized counterpart of
    :func:`repro.diffusion.threshold.simulate_lt_cascade`: thresholds
    are drawn with the same single ``rng.random(n)`` call (identical
    stream consumption), and each level accumulates the whole frontier's
    out-slab weights onto inactive targets with one unbuffered
    ``np.add.at`` (sequential, like the reference's scalar ``+=``).

    Equivalence caveats: (1) within a level this kernel orders the next
    frontier by *first contribution* while the reference loop orders it
    by *threshold crossing*, so the edge streams of later levels can be
    permutations of each other and a still-inactive target's pressure
    sum may differ from the reference's in its last ulp; (2) a target
    that activates mid-level stops accumulating pressure in the
    reference (its ``active`` flag is re-checked per edge) but receives
    the whole level's contributions here.  Neither affects the mask:
    an active vertex's pressure is never consulted again, and for
    inactive vertices the *set* of additions is identical, so masks are
    equal up to last-ulp rounding of the pressure sums — exactly equal
    whenever the sums are order-independent (e.g. dyadic weights), and
    in practice indistinguishable: a mask flip needs a threshold to
    land inside a ~1e-16 rounding gap.

    ``check_weights=False`` skips the O(E) feasibility validation —
    Monte-Carlo callers validate the immutable graph once and hoist the
    check out of their trial loops (~30% of per-trial time at n=2000).
    """
    n = piece_graph.n
    if check_weights:
        check_lt_feasible(piece_graph)
    thresholds = rng.random(n)
    active = np.zeros(n, dtype=bool)
    position = np.empty(n, dtype=np.int64)  # first_occurrence scratch
    pressure = np.zeros(n, dtype=np.float64)
    frontier = np.fromiter(map(int, seeds), dtype=np.int64)
    check_index_array("seed", frontier, n, exc=ParameterError)
    frontier = first_occurrence(frontier, position)
    active[frontier] = True
    out_ptr = piece_graph.out_ptr
    out_dst = piece_graph.out_dst
    out_prob = piece_graph.out_prob
    while frontier.size:
        edge_idx, _ = frontier_edge_slots(out_ptr, frontier)
        if edge_idx.size == 0:
            break
        targets = out_dst[edge_idx]
        inactive = ~active[targets]
        hit = targets[inactive]
        np.add.at(pressure, hit, out_prob[edge_idx[inactive]])
        candidates = first_occurrence(hit, position)
        fresh = candidates[pressure[candidates] >= thresholds[candidates]]
        active[fresh] = True
        frontier = fresh
    return active
