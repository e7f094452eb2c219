"""RIS-style influence maximisation (the [32]/[33] substrate).

State-of-the-art IM algorithms (TIM+/IMM, the paper's baselines' engine)
reduce seed selection to *maximum coverage over RR sets*: after drawing
``theta`` random RR sets, the seed set maximising the number of covered
sets maximises (up to sampling error) the expected spread, and greedy max
coverage carries the (1 − 1/e) guarantee.  This module implements that
selection step — both against a single piece of an
:class:`~repro.sampling.mrr.MRRCollection` and as a standalone pipeline
(sample + select) for homogeneous influence graphs.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.bitset import SampleBitset
from repro.core.coverage import coverage_gains
from repro.diffusion.projection import PieceGraph
from repro.exceptions import SolverError
from repro.sampling.mrr import MRRCollection, generate_keyed
from repro.utils.validation import check_positive_int

__all__ = ["max_coverage_seeds", "ris_influence_maximization"]


def max_coverage_seeds(
    mrr: MRRCollection,
    piece: int,
    pool: np.ndarray,
    k: int,
    *,
    lazy: bool = True,
) -> tuple[list[int], float]:
    """Greedy max coverage of one piece's RR sets, seeds from ``pool``.

    Both variants drive their marginal gains through the batched
    inverted-index kernel (:func:`repro.core.coverage.coverage_gains`):
    the lazy (CELF) path batches the initial full scan — its dominant
    cost — and re-evaluates stale entries on demand; ``lazy=False``
    rescans the whole pool per iteration with one kernel call each.
    The working covered set is a word-packed
    :class:`~repro.core.bitset.SampleBitset` (theta/8 bytes instead of
    theta bools; the final spread is one popcount).  Gains are integer
    counts, so both variants (and the historical per-candidate loop)
    break ties identically — on the first pool position — and select
    the same seed set.

    Returns ``(seeds, spread_estimate)`` where the spread estimate is the
    standard ``n/theta * |covered sets|``.
    """
    check_positive_int("k", k)
    pool = np.asarray(pool, dtype=np.int64)
    if pool.size == 0:
        raise SolverError("empty candidate pool")
    covered = SampleBitset(mrr.theta)

    def commit(v: int) -> None:
        covered.set_many(mrr.samples_containing(piece, int(v)))

    seeds: list[int] = []
    if lazy:
        initial = coverage_gains(mrr, piece, pool, covered)
        heap: list[tuple[int, int, int, int]] = [
            (-int(gain), idx, int(v), 0)
            for idx, (v, gain) in enumerate(zip(pool, initial))
            if gain > 0
        ]
        heapq.heapify(heap)
        while heap and len(seeds) < k:
            neg_gain, idx, v, evaluated_at = heapq.heappop(heap)
            if evaluated_at == len(seeds):
                commit(v)
                seeds.append(v)
                continue
            samples = mrr.samples_containing(piece, v)
            gain = int((~covered.test(samples)).sum()) if samples.size else 0
            if gain > 0:
                heapq.heappush(heap, (-gain, idx, v, len(seeds)))
    else:
        chosen = np.zeros(pool.size, dtype=bool)
        for _ in range(k):
            gains = coverage_gains(mrr, piece, pool, covered)
            gains[chosen] = 0
            best = int(np.argmax(gains))  # ties: first pool position
            if gains[best] <= 0:
                break
            commit(int(pool[best]))
            chosen[best] = True
            seeds.append(int(pool[best]))
    spread = mrr.n / mrr.theta * float(covered.count())
    return seeds, spread


def ris_influence_maximization(
    piece_graph: PieceGraph,
    k: int,
    theta: int,
    *,
    pool: np.ndarray | None = None,
    seed=None,
    runtime=None,
) -> tuple[list[int], float]:
    """End-to-end RIS IM on a homogeneous influence graph.

    Draws ``theta`` RR sets with uniform roots, then selects ``k`` seeds
    by greedy max coverage.  This is the engine behind the paper's ``IM``
    baseline (run on the flattened graph) and a reference implementation
    for the classical problem.

    Execution policy (sampling backend, diffusion model, parallel
    runtime, sample store) lives on one :class:`repro.runtime.Runtime`
    passed as ``runtime=`` and resolved with the centralized order
    (Runtime field > ``REPRO_*`` env > default; a per-call ``seed``
    beats ``Runtime.seed``).  Under LT the graph should be
    weight-normalised first
    (:func:`repro.diffusion.threshold.normalize_lt_weights`).  The RR
    sets come from the same coordinate-keyed stream as every MRR
    collection, so seed sets are identical for every worker count,
    executor and store.

    Returns ``(seeds, spread_estimate)``.
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.parallel import (
        keyed_roots,
        resolve_entropy,
        task_block_size,
    )

    rt = resolve_runtime(runtime, seed=seed)
    check_positive_int("k", k)
    check_positive_int("theta", theta)
    if pool is None:
        pool = np.arange(piece_graph.n, dtype=np.int64)
    model = rt.single_model()
    entropy = resolve_entropy(rt.seed)
    block_size = task_block_size(theta)
    collection = generate_keyed(
        piece_graph.n,
        [piece_graph],
        (model,),
        keyed_roots(entropy, piece_graph.n, theta, block_size),
        entropy,
        backend=rt.backend,
        workers=rt.pool_width or 1,
        executor=rt.executor,
        store=rt.store_for_generate(),
        block_size=block_size,
    )
    return max_coverage_seeds(collection, 0, pool, k)
