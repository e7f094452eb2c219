"""Forward Monte-Carlo simulation of piece spread and campaign adoption.

This is the ground-truth side of the reproduction: the influence process
of Sec. III-A simulated directly (independent cascade per piece), with
user adoption drawn from the logistic model of Eq. 1.  The MRR estimator
(Sec. V-A) must agree with these simulations in expectation — the test
suite checks exactly that (Lemma 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph
from repro.exceptions import ParameterError, SamplingError
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_piece_graphs_aligned,
    check_positive_int,
)

__all__ = [
    "simulate_cascade",
    "simulate_model_cascade",
    "simulate_piece_spread",
    "simulate_adoption_utility",
]


def simulate_cascade(
    piece_graph: PieceGraph,
    seeds: Iterable[int],
    rng,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """Run one independent-cascade trial; return the activation mask.

    Seeds start active; every newly activated user gets exactly one chance
    to activate each out-neighbour, succeeding with the edge's projected
    probability (Sec. III-A).  Returns a boolean array of length ``n``.

    ``backend="batch"`` (the default) and ``backend="native"`` route
    through the vectorized frontier-at-a-time kernel of
    :mod:`repro.sampling.batch` (single forward trials are not a
    compiled hot loop); ``backend="python"`` runs the per-vertex
    reference loop below.  The variants consume the rng stream
    identically, so for the same seeded ``rng`` the activation masks
    are bit-for-bit equal.
    """
    # Imported lazily: repro.sampling pulls in this module through the
    # diffusion package, so a module-level import would be circular.
    from repro.sampling.batch import check_backend, simulate_cascade_batch

    if check_backend(backend) != "python":
        return simulate_cascade_batch(piece_graph, seeds, rng)
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


def simulate_model_cascade(
    piece_graph: PieceGraph,
    seeds,
    rng,
    *,
    model: str | None = None,
    backend: str | None = None,
    check_weights: bool = True,
) -> np.ndarray:
    """One forward trial under the named diffusion model.

    Dispatches to :func:`simulate_cascade` (``model="ic"``, the default)
    or :func:`repro.diffusion.threshold.simulate_lt_cascade`
    (``model="lt"``); ``backend`` is forwarded to the chosen kernel.
    ``check_weights=False`` skips the per-trial LT feasibility check —
    the Monte-Carlo loops below validate each immutable graph once
    instead of once per trial.
    """
    from repro.sampling.batch import check_model

    if check_model(model) == "lt":
        # Lazy import — threshold pulls in repro.sampling at call time.
        from repro.diffusion.threshold import simulate_lt_cascade

        return simulate_lt_cascade(
            piece_graph,
            seeds,
            rng,
            backend=backend,
            check_weights=check_weights,
        )
    return simulate_cascade(piece_graph, seeds, rng, backend=backend)


def _spread_chunk_task(args):
    """One rounds-chunk of :func:`simulate_piece_spread` (picklable)."""
    piece_graph, seeds, model, backend, count, seed = args
    rng = as_generator(seed)
    total = 0
    for _ in range(count):
        total += int(
            simulate_model_cascade(
                piece_graph,
                seeds,
                rng,
                model=model,
                backend=backend,
                check_weights=False,
            ).sum()
        )
    return total


def simulate_piece_spread(
    piece_graph: PieceGraph,
    seeds: Iterable[int],
    *,
    rounds: int = 100,
    seed=None,
    runtime=None,
    pool=None,
) -> float:
    """Monte-Carlo estimate of the classical influence spread sigma_im(S).

    Averages the number of activated users over ``rounds`` independent
    cascade trials.  Execution policy (cascade backend, diffusion model,
    the parallel Monte-Carlo runtime) lives on one
    :class:`repro.runtime.Runtime` passed as ``runtime=`` and resolved
    with the centralized order (Runtime field > ``REPRO_*`` env >
    default; a per-call ``seed`` beats ``Runtime.seed``).  LT graphs
    should be weight-normalised first.  Estimates are identical for
    every worker count; serial is the default.  Callers evaluating many
    spreads may pass a pre-built ``pool``
    (:func:`repro.sampling.parallel.make_pool`) to reuse across calls;
    they keep ownership of its shutdown.
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.batch import check_lt_feasible
    from repro.sampling.parallel import (
        parallel_map,
        round_chunks,
        spawn_task_seeds,
    )

    rt = resolve_runtime(runtime, seed=seed)
    rounds = check_positive_int("rounds", rounds)
    model = rt.single_model()
    if model == "lt":
        check_lt_feasible(piece_graph)  # once, not once per trial
    rng = as_generator(rt.seed)
    seeds = list(seeds)
    pool_width = rt.pool_width
    if pool_width is not None:
        chunks = round_chunks(rounds)
        task_seeds = spawn_task_seeds(rng, len(chunks))
        totals = parallel_map(
            _spread_chunk_task,
            [
                (piece_graph, seeds, model, rt.backend, stop - start, s)
                for (start, stop), s in zip(chunks, task_seeds)
            ],
            pool_width,
            executor=rt.executor,
            pool=pool,
        )
        return sum(totals) / rounds
    total = 0
    for _ in range(rounds):
        total += int(
            simulate_model_cascade(
                piece_graph,
                seeds,
                rng,
                model=model,
                backend=rt.backend,
                check_weights=False,
            ).sum()
        )
    return total / rounds


def _utility_chunk_task(args):
    """One rounds-chunk of :func:`simulate_adoption_utility` (picklable)."""
    piece_graphs, seed_lists, models, adoption, backend, count, seed = args
    rng = as_generator(seed)
    n = piece_graphs[0].n
    per_round = np.empty(count, dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    for r in range(count):
        counts[:] = 0
        for pg, seeds, piece_model in zip(piece_graphs, seed_lists, models):
            if not seeds:
                continue
            counts += simulate_model_cascade(
                pg,
                seeds,
                rng,
                model=piece_model,
                backend=backend,
                check_weights=False,
            )
        per_round[r] = float(adoption.probability(counts).sum())
    return per_round


def simulate_adoption_utility(
    piece_graphs: Sequence[PieceGraph],
    plan_seed_sets: Sequence[Iterable[int]],
    adoption: AdoptionModel,
    *,
    rounds: int = 100,
    seed=None,
    return_std: bool = False,
    runtime=None,
):
    """Monte-Carlo estimate of the adoption utility sigma(S-bar) (Eq. 2).

    Each round simulates every piece's cascade independently from its
    assigned seed set, counts how many distinct pieces reached each user,
    and sums the logistic adoption probabilities.  (Summing probabilities
    rather than drawing the final Bernoulli adds no bias and removes one
    layer of variance — Rao-Blackwellisation over the adoption draw.)

    Parameters
    ----------
    piece_graphs:
        One projected graph per campaign piece.
    plan_seed_sets:
        One iterable of seed vertices per piece (the assignment plan);
        must align with ``piece_graphs``.
    adoption:
        Logistic adoption parameters.
    rounds:
        Independent simulation rounds.
    return_std:
        Also return the standard error of the estimate.
    runtime:
        One :class:`repro.runtime.Runtime` carrying the execution policy
        — cascade backend, per-piece diffusion model(s) (``"ic"`` /
        ``"lt"``, scalar or a per-piece sequence for heterogeneous
        multiplex campaigns), and the parallel Monte-Carlo runtime
        (fixed-size chunks of rounds on a thread/process pool with
        spawned child streams, merged in chunk order — estimates are
        identical for every worker count; serial is the default).
        Resolved with the centralized order (Runtime field >
        ``REPRO_*`` env > default; a per-call ``seed`` beats
        ``Runtime.seed``).
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.batch import check_lt_feasible
    from repro.sampling.mrr import resolve_models
    from repro.sampling.parallel import (
        parallel_map,
        round_chunks,
        spawn_task_seeds,
    )

    rt = resolve_runtime(runtime, seed=seed)
    if len(piece_graphs) != len(plan_seed_sets):
        raise ParameterError(
            f"{len(plan_seed_sets)} seed sets for {len(piece_graphs)} pieces"
        )
    if not piece_graphs:
        raise ParameterError("need at least one piece")
    rounds = check_positive_int("rounds", rounds)
    try:
        models = resolve_models(rt.model, len(piece_graphs))
    except SamplingError as exc:
        raise ParameterError(str(exc)) from None
    rng = as_generator(rt.seed)
    n = piece_graphs[0].n
    check_piece_graphs_aligned(piece_graphs, n)
    for pg, piece_model in zip(piece_graphs, models):
        if piece_model == "lt":
            check_lt_feasible(pg)  # once per piece, not once per round
    seed_lists = [list(s) for s in plan_seed_sets]
    pool_width = rt.pool_width
    if pool_width is not None:
        chunks = round_chunks(rounds)
        task_seeds = spawn_task_seeds(rng, len(chunks))
        pieces = list(piece_graphs)
        slices = parallel_map(
            _utility_chunk_task,
            [
                (pieces, seed_lists, models, adoption, rt.backend,
                 stop - start, s)
                for (start, stop), s in zip(chunks, task_seeds)
            ],
            pool_width,
            executor=rt.executor,
        )
        per_round = np.concatenate(slices)
    else:
        per_round = np.empty(rounds, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        for r in range(rounds):
            counts[:] = 0
            for pg, seeds, piece_model in zip(
                piece_graphs, seed_lists, models
            ):
                if not seeds:
                    continue
                counts += simulate_model_cascade(
                    pg,
                    seeds,
                    rng,
                    model=piece_model,
                    backend=rt.backend,
                    check_weights=False,
                )
            per_round[r] = float(adoption.probability(counts).sum())
    mean = float(per_round.mean())
    if return_std:
        std_err = float(per_round.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0
        return mean, std_err
    return mean
