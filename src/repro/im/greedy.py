"""Classical Monte-Carlo greedy IM (Kempe et al. [16]) with CELF [19].

The original greedy influence maximisation evaluates marginal spread by
forward cascade simulation.  It is far slower than RIS selection and
exists here as (a) the historically faithful baseline substrate and
(b) a cross-validation oracle: on small graphs the RIS pipeline and this
simulation-based greedy must pick seed sets of near-identical quality,
which the integration tests assert.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.diffusion.projection import PieceGraph
from repro.diffusion.simulate import simulate_piece_spread
from repro.exceptions import SolverError
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["celf_greedy_im"]


def celf_greedy_im(
    piece_graph: PieceGraph,
    k: int,
    *,
    pool: np.ndarray | None = None,
    rounds: int = 200,
    seed=None,
    runtime=None,
) -> tuple[list[int], float]:
    """Select ``k`` seeds by CELF lazy greedy over simulated spread.

    ``rounds`` cascades are averaged per marginal-spread evaluation, each
    through :func:`repro.diffusion.simulate.simulate_piece_spread` with
    fresh entropy drawn from the one generator of ``seed``: evaluations
    draw independent numbers, not common random numbers.  Execution
    policy (diffusion model, the parallel Monte-Carlo runtime) lives on
    one :class:`repro.runtime.Runtime` passed as ``runtime=`` and
    resolved with the centralized order (Runtime field > ``REPRO_*`` env
    > default; a per-call ``seed`` beats ``Runtime.seed``).  LT graphs
    must be weight-normalised first.  Every evaluation draws the
    keyed round chunks of the Monte-Carlo stream, so selections are
    identical for every worker count, inline included.

    Returns ``(seeds, spread_estimate)``.

    Note: CELF's laziness is exact only for submodular objectives; the
    *estimated* spread is submodular up to Monte-Carlo noise, so (as in
    the original CELF paper) results can differ from plain greedy by a
    noise-sized margin.
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.parallel import make_pool

    # Entry validation: every execution knob must fail here (ConfigError)
    # instead of being silently ignored on whichever path is taken.
    rt = resolve_runtime(runtime, seed=seed)
    check_positive_int("k", k)
    check_positive_int("rounds", rounds)
    rt.single_model()  # one graph, one model: fail here, not mid-run
    rng = as_generator(rt.seed)
    if pool is None:
        pool = np.arange(piece_graph.n, dtype=np.int64)
    pool = np.asarray(pool, dtype=np.int64)
    if pool.size == 0:
        raise SolverError("empty candidate pool")
    # One pool for the whole CELF run: spread() is called O(|pool| + k)
    # times, so per-evaluation pool construction would dwarf the gain.
    eval_pool = make_pool(rt.pool_width)

    def spread(seeds: list[int]) -> float:
        if not seeds:
            return 0.0
        return simulate_piece_spread(
            piece_graph,
            seeds,
            rounds=rounds,
            seed=int(rng.integers(0, 2**63 - 1)),
            runtime=rt,
            pool=eval_pool,
        )

    try:
        seeds: list[int] = []
        current = 0.0
        heap: list[tuple[float, int, int, int]] = []
        for idx, v in enumerate(pool):
            gain = spread([int(v)])
            heap.append((-gain, idx, int(v), 0))
        heapq.heapify(heap)
        while heap and len(seeds) < k:
            neg_gain, idx, v, evaluated_at = heapq.heappop(heap)
            if evaluated_at == len(seeds):
                seeds.append(v)
                current = current + (-neg_gain)
                continue
            gain = spread(seeds + [v]) - current
            heapq.heappush(heap, (-gain, idx, v, len(seeds)))
        return seeds, current
    finally:
        if eval_pool is not None:
            eval_pool.shutdown(wait=True, cancel_futures=True)
