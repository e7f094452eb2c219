"""Forward Monte-Carlo simulation of piece spread and campaign adoption.

This is the ground-truth side of the reproduction: the influence process
of Sec. III-A simulated directly (independent cascade per piece), with
user adoption drawn from the logistic model of Eq. 1.  The MRR estimator
(Sec. V-A) must agree with these simulations in expectation — the test
suite checks exactly that (Lemma 2).

Every estimator here (and :mod:`repro.diffusion.interdependent`) draws
its trials from one keyed stream, :func:`_keyed_rounds`: fixed chunks of
rounds, each seeded by its chunk index, so an estimate is a function of
the seed alone and never of the worker count.
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
) -> np.ndarray:
    """Run one independent-cascade trial; return the activation mask.

    Seeds start active; every newly activated user gets exactly one chance
    to activate each out-neighbour, succeeding with the edge's projected
    probability (Sec. III-A).  Returns a boolean array of length ``n``.

    Runs the frontier-at-a-time kernel
    :func:`repro.sampling.batch.simulate_cascade_batch`, which consumes
    the rng stream exactly like the per-vertex oracle
    :func:`repro.sampling.reference.ic_cascade`: for the same seeded
    ``rng`` the two masks are bit-for-bit equal.
    """
    # Imported lazily: repro.sampling pulls in this module through the
    # diffusion package, so a module-level import would be circular.
    from repro.sampling.batch import simulate_cascade_batch

    return simulate_cascade_batch(piece_graph, seeds, rng)


def simulate_model_cascade(
    piece_graph: PieceGraph,
    seeds,
    rng,
    *,
    model: str | None = None,
    check_weights: bool = True,
) -> np.ndarray:
    """One forward trial under the named diffusion model.

    Dispatches to :func:`simulate_cascade` (``model="ic"``, the default)
    or :func:`repro.diffusion.threshold.simulate_lt_cascade`
    (``model="lt"``).  ``check_weights=False`` skips the per-trial LT
    feasibility check — the Monte-Carlo loops below validate each
    immutable graph once instead of once per trial.
    """
    from repro.sampling.batch import check_model

    if check_model(model) == "lt":
        # Lazy import — threshold pulls in repro.sampling at call time.
        from repro.diffusion.threshold import simulate_lt_cascade

        return simulate_lt_cascade(
            piece_graph, seeds, rng, check_weights=check_weights
        )
    return simulate_cascade(piece_graph, seeds, rng)


def _keyed_rounds(trial, rounds: int, rt, *, pool=None) -> np.ndarray:
    """Per-round values of ``rounds`` Monte-Carlo trials, in round order.

    The one forward-simulation stream: ``rounds`` splits into the fixed
    :func:`~repro.sampling.parallel.round_chunks`, and chunk ``c`` calls
    ``trial(rng)`` once per round on a generator keyed by
    ``SeedSequence((entropy, KEYED_ROUND_TAG, c))``, where
    ``entropy = resolve_entropy(rt.seed)``.  Chunks run through
    :func:`~repro.sampling.parallel.parallel_map` at width
    ``rt.pool_width or 1`` (width 1 runs inline; a caller's ``pool`` is
    used as given) and merge in chunk order, so the values never depend
    on the worker count.
    """
    from repro.sampling.parallel import (
        KEYED_ROUND_TAG,
        parallel_map,
        resolve_entropy,
        round_chunks,
    )

    entropy = resolve_entropy(rt.seed)

    def run_chunk(chunk):
        c, count = chunk
        rng = as_generator(
            np.random.SeedSequence((entropy, KEYED_ROUND_TAG, c))
        )
        return [trial(rng) for _ in range(count)]

    chunks = [
        (c, stop - start)
        for c, (start, stop) in enumerate(round_chunks(rounds))
    ]
    parts = parallel_map(run_chunk, chunks, rt.pool_width or 1, pool=pool)
    return np.array([v for part in parts for v in part], dtype=np.float64)


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
    cascade trials.  Execution policy (diffusion model, the parallel
    Monte-Carlo runtime) lives on one
    :class:`repro.runtime.Runtime` passed as ``runtime=`` and resolved
    with the centralized order (Runtime field > ``REPRO_*`` env >
    default; a per-call ``seed`` beats ``Runtime.seed``).  LT graphs
    should be weight-normalised first.  The trials come from the keyed
    round chunks of :func:`_keyed_rounds`, so estimates are identical
    for every worker count, inline included.  Callers evaluating many
    spreads may pass a pre-built ``pool``
    (:func:`repro.sampling.parallel.make_pool`) to reuse across calls;
    they keep ownership of its shutdown.
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.batch import check_lt_feasible

    rt = resolve_runtime(runtime, seed=seed)
    rounds = check_positive_int("rounds", rounds)
    model = rt.single_model()
    if model == "lt":
        check_lt_feasible(piece_graph)  # once, not once per trial
    seeds = list(seeds)

    def trial(rng):
        return simulate_model_cascade(
            piece_graph,
            seeds,
            rng,
            model=model,
            check_weights=False,
        ).sum()

    return float(_keyed_rounds(trial, rounds, rt, pool=pool).mean())


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
        — per-piece diffusion model(s) (``"ic"`` /
        ``"lt"``, scalar or a per-piece sequence for heterogeneous
        multiplex campaigns), and the parallel Monte-Carlo runtime
        (fixed-size chunks of rounds, each on its own keyed stream — see
        :func:`_keyed_rounds` — merged in chunk order, so estimates are
        identical for every worker count, inline included).
        Resolved with the centralized order (Runtime field >
        ``REPRO_*`` env > default; a per-call ``seed`` beats
        ``Runtime.seed``).
    """
    from repro.runtime import resolve_runtime
    from repro.sampling.batch import check_lt_feasible
    from repro.sampling.mrr import resolve_models

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
    n = piece_graphs[0].n
    check_piece_graphs_aligned(piece_graphs, n)
    for pg, piece_model in zip(piece_graphs, models):
        if piece_model == "lt":
            check_lt_feasible(pg)  # once per piece, not once per round
    seed_lists = [list(s) for s in plan_seed_sets]

    def trial(rng):
        counts = np.zeros(n, dtype=np.int64)
        for pg, seeds, piece_model in zip(piece_graphs, seed_lists, models):
            if seeds:
                counts += simulate_model_cascade(
                    pg,
                    seeds,
                    rng,
                    model=piece_model,
                    check_weights=False,
                )
        return float(adoption.probability(counts).sum())

    per_round = _keyed_rounds(trial, rounds, rt)
    mean = float(per_round.mean())
    if return_std:
        std_err = float(per_round.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0
        return mean, std_err
    return mean
