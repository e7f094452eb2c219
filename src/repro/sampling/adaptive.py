"""Adaptive MRR sample sizing.

The paper fixes ``theta = 1e6`` and remarks that "a large theta ensures
the estimated AU score for any S-bar is accurate with a high
probability".  This module makes the choice principled instead of
fixed:

* :func:`theta_for_error_target` converts an (epsilon, delta) accuracy
  target into a sample count via the Hoeffding bound of
  :mod:`repro.sampling.theta`;
* :func:`generate_adaptive` grows a collection geometrically until two
  successive halves of the samples agree on a *probe plan*'s utility
  within the target — an OPIM-style empirical stopping rule that often
  stops far below the worst-case Hoeffding count.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SamplingError
from repro.graph.digraph import TopicGraph
from repro.sampling.mrr import MRRCollection
from repro.sampling.theta import hoeffding_theta
from repro.topics.distributions import Campaign
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["theta_for_error_target", "generate_adaptive"]


def theta_for_error_target(
    epsilon: float, delta: float, *, minimum: int = 1_000
) -> int:
    """Sample count for AU error <= epsilon*n with confidence 1-delta."""
    return max(minimum, hoeffding_theta(epsilon, delta))


def generate_adaptive(
    graph: TopicGraph,
    campaign: Campaign,
    adoption: AdoptionModel,
    probe_plan: list[list[int]],
    *,
    epsilon: float = 0.02,
    delta: float = 0.05,
    initial_theta: int = 1_000,
    max_theta: int | None = None,
    seed=None,
    runtime=None,
) -> tuple[MRRCollection, dict]:
    """Grow an MRR collection until the probe estimate stabilises.

    Starting from ``initial_theta`` samples, the collection doubles until
    either (a) two independent halves of the current samples estimate the
    ``probe_plan``'s utility within ``epsilon * n`` of each other, or
    (b) the Hoeffding worst-case count (or ``max_theta``) is reached.
    ``runtime`` (a :class:`repro.runtime.Runtime`) carries the execution
    policy — models, workers, store — for every generated collection.
    A configured ``shard_dir`` is split into per-attempt subdirectories
    so the doubling collections never collide.

    Returns the final collection and a diagnostics dict with the
    doubling trace — the empirical analogue of the paper's fixed-theta
    accuracy remark, testable and tunable.
    """
    from repro.runtime import resolve_runtime

    rt = resolve_runtime(runtime, seed=seed)
    seed = rt.seed  # per-call seed > Runtime seeding policy
    if not isinstance(seed, int):
        # The doubling loop keys its per-attempt child streams by an
        # integer entropy; an unseeded run draws one fresh int here
        # (and records it in the trace) instead of failing later.
        seed = int(np.random.default_rng().integers(0, 2**63 - 1))
    # Shard subdirectories are keyed by the entropy, so runs with
    # different seeds never collide in a shared shard_dir while a
    # repeated identical run resumes/reloads its own shards.
    rt = rt.with_shard_subdir(f"seed{seed}")
    check_fraction("epsilon", epsilon)
    check_fraction("delta", delta)
    check_positive_int("initial_theta", initial_theta)
    if len(probe_plan) != campaign.num_pieces:
        raise SamplingError(
            f"probe plan has {len(probe_plan)} seed sets for "
            f"{campaign.num_pieces} pieces"
        )
    ceiling = theta_for_error_target(epsilon, delta)
    if max_theta is not None:
        ceiling = min(ceiling, int(max_theta))
    theta = min(initial_theta, ceiling)
    trace: list[dict] = []
    attempt = 0
    while True:
        rng_a, rng_b = spawn_generators((seed, attempt), 2)
        half = max(theta // 2, 1)
        first = MRRCollection.generate(
            graph, campaign, half, seed=rng_a,
            runtime=rt.with_shard_subdir(f"adaptive-{attempt}-a"),
        )
        second = MRRCollection.generate(
            graph, campaign, half, seed=rng_b,
            runtime=rt.with_shard_subdir(f"adaptive-{attempt}-b"),
        )
        est_a = first.estimate(probe_plan, adoption)
        est_b = second.estimate(probe_plan, adoption)
        gap = abs(est_a - est_b)
        converged = gap <= epsilon * graph.n
        trace.append(
            {
                "theta": theta,
                "estimate_a": est_a,
                "estimate_b": est_b,
                "gap": gap,
                "converged": converged,
            }
        )
        if converged or theta >= ceiling:
            # Merge the two halves into the returned collection.
            rng_final = spawn_generators((seed, attempt, 1), 1)[0]
            final = MRRCollection.generate(
                graph, campaign, theta, seed=rng_final,
                runtime=rt.with_shard_subdir("adaptive-final"),
            )
            info = {
                "trace": trace,
                "converged": converged,
                "hoeffding_ceiling": ceiling,
                "seed": seed,
            }
            return final, info
        theta = min(theta * 2, ceiling)
        attempt += 1
