"""The three synthetic dataset pipelines (Table III stand-ins).

Each builder reproduces the *pipeline* the paper describes for its real
counterpart, not just the final graph:

``lastfm``-like
    Power-law social graph of the real dataset's size (1.3 K vertices,
    ~15 K edges, 20 topics).  A hidden ground-truth TIC model generates a
    synthetic action log (users voting items), and the shipped graph's
    ``p(e|z)`` are *re-learned from that log* with
    :func:`repro.topics.tic.learn_tic_probabilities` — the TIC-learning
    stage the paper applies to the real last.fm log.

``dblp``-like
    Preferential-attachment co-author graph (bidirectional edges), nine
    research-field topics; per-author venue profiles determine
    ``p(e|z)`` via :func:`repro.topics.fields.assign_field_topics`,
    mirroring "use research fields as topics and compute p(e|z) ... by
    categorizing their related conferences".

``tweet``-like
    Very sparse directed graph (average degree ~1.2) over 50 topics.
    Synthetic hashtag documents are generated per user; LDA is fitted on
    a sample of the corpus (collapsed Gibbs) and the remaining users are
    folded in; edge probabilities come from endpoint topic affinity with
    an aggressive sparsity floor, reproducing the paper's observation of
    ~1.5 non-zero topic entries per edge.

Every builder accepts a ``scale`` multiplier on the vertex count so the
experiment harness can trade fidelity for wall-clock (see
:mod:`repro.experiments.config` for the scaling substitution rationale).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.graph.digraph import TopicGraph
from repro.graph.generators import (
    directed_configuration_model,
    power_law_degree_sequence,
    preferential_attachment_digraph,
    random_edge_topic_profiles,
)
from repro.topics.action_log import generate_action_log
from repro.topics.fields import assign_field_topics, venue_topic_profiles
from repro.topics.lda import fit_lda, infer_document_topics
from repro.topics.tic import learn_tic_probabilities
from repro.utils.rng import spawn_generators

__all__ = ["build_lastfm_like", "build_dblp_like", "build_tweet_like"]


def _scaled(base: int, scale: float, minimum: int = 50) -> int:
    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    return max(minimum, int(round(base * scale)))


def build_lastfm_like(
    *, scale: float = 1.0, seed: int = 7, num_items: int = 250
) -> tuple[TopicGraph, dict]:
    """lastfm-like: social graph + action log + TIC re-learning."""
    n = _scaled(1300, scale)
    num_topics = 20
    rng_graph, rng_truth, rng_items, rng_log = spawn_generators(seed, 4)
    src, dst = preferential_attachment_digraph(
        n, edges_per_node=6, seed=rng_graph, bidirectional=True
    )
    tp_ptr, tp_topics, tp_probs = random_edge_topic_profiles(
        src.size,
        num_topics,
        topics_per_edge=2.5,
        prob_mean=0.30,
        seed=rng_truth,
    )
    truth = TopicGraph.from_arrays(
        n, num_topics, src, dst, tp_ptr, tp_topics, tp_probs
    )
    # Items live in sparse topic mixtures (a song touches 1-3 genres).
    item_topics = rng_items.dirichlet(
        np.full(num_topics, 0.08), size=num_items
    )
    log = generate_action_log(
        truth, item_topics, seeds_per_item=6, seed=rng_log
    )
    edge_list = list(zip(truth.edge_sources().tolist(), truth.out_dst.tolist()))
    learned = learn_tic_probabilities(
        n,
        edge_list,
        log,
        num_topics,
        item_topics=item_topics,
        min_probability=5e-3,
    )
    meta = {
        "pipeline": "tic-log",
        "actions": len(log),
        "items": num_items,
        "hidden_truth_edges": truth.num_edges,
    }
    return learned, meta


def build_dblp_like(*, scale: float = 1.0, seed: int = 11) -> tuple[TopicGraph, dict]:
    """dblp-like: co-author graph + research-field topic assignment."""
    n = _scaled(20_000, scale)
    num_fields = 9
    rng_graph, rng_fields = spawn_generators(seed, 2)
    src, dst = preferential_attachment_digraph(
        n, edges_per_node=6, seed=rng_graph, bidirectional=True
    )
    profiles = venue_topic_profiles(
        n, num_fields, concentration=0.25, seed=rng_fields
    )
    in_degrees = np.bincount(dst, minlength=n).astype(np.float64)
    # scale=4: strong enough cascades that adoption utilities sit at a
    # few percent of n, keeping the MRR estimator's relative error sane
    # at reproduction-scale theta (the paper's theta=1e6
    # tolerates far thinner adoption densities than we can).
    tp_ptr, tp_topics, tp_probs = assign_field_topics(
        src, dst, profiles, in_degrees, scale=6.0, sparsity_floor=0.06
    )
    graph = TopicGraph.from_arrays(
        n, num_fields, src, dst, tp_ptr, tp_topics, tp_probs
    )
    meta = {"pipeline": "fields", "fields": num_fields}
    return graph, meta


def build_tweet_like(
    *,
    scale: float = 1.0,
    seed: int = 13,
    vocab_size: int = 200,
    lda_sample_docs: int = 800,
) -> tuple[TopicGraph, dict]:
    """tweet-like: sparse retweet graph + LDA-derived user topics."""
    n = _scaled(50_000, scale)
    num_topics = 50
    (
        rng_deg,
        rng_wire,
        rng_docs,
        rng_lda,
        rng_pick,
    ) = spawn_generators(seed, 5)

    # Average degree ~1.2: power-law degrees with a large inactive mass.
    out_deg = power_law_degree_sequence(
        n, 2.4, min_degree=1, max_degree=max(10, int(np.sqrt(n))), seed=rng_deg
    )
    out_deg[rng_deg.random(n) < 0.30] = 0
    in_deg = power_law_degree_sequence(
        n, 2.4, min_degree=1, max_degree=max(10, int(np.sqrt(n))), seed=rng_deg
    )
    in_deg[rng_deg.random(n) < 0.30] = 0
    src, dst = directed_configuration_model(out_deg, in_deg, seed=rng_wire)

    # Synthetic hashtag corpus: each user's hashtags cluster around a
    # latent community; LDA has genuine structure to recover.
    true_communities = rng_docs.integers(0, num_topics, size=n)
    words_per_topic = vocab_size // num_topics
    documents: list[list[int]] = []
    for u in range(n):
        length = 3 + int(rng_docs.poisson(3))
        base = (true_communities[u] * words_per_topic) % vocab_size
        doc = []
        for _ in range(length):
            if rng_docs.random() < 0.8:
                doc.append(int(base + rng_docs.integers(0, max(words_per_topic, 1))))
            else:
                doc.append(int(rng_docs.integers(0, vocab_size)))
        documents.append(doc)

    sample_ids = rng_pick.choice(
        n, size=min(lda_sample_docs, n), replace=False
    )
    model = fit_lda(
        [documents[i] for i in sample_ids],
        num_topics,
        vocab_size,
        sweeps=40,
        burn_in=20,
        seed=rng_lda,
    )
    user_topics = np.empty((n, num_topics), dtype=np.float64)
    for u in range(n):
        user_topics[u] = infer_document_topics(model, documents[u], iterations=8)

    # Edge probabilities from endpoint affinity; the aggressive floor
    # reproduces tweet's ~1.5 non-zero topic entries per edge, and the
    # large scale keeps cascades alive on this deliberately subcritical
    # (avg degree ~1.2) graph.
    in_degrees = np.bincount(dst, minlength=n).astype(np.float64)
    tp_ptr, tp_topics, tp_probs = assign_field_topics(
        src, dst, user_topics, in_degrees, scale=6.0, sparsity_floor=0.10
    )
    graph = TopicGraph.from_arrays(
        n, num_topics, src, dst, tp_ptr, tp_topics, tp_probs
    )
    meta = {
        "pipeline": "lda-hashtags",
        "vocab": vocab_size,
        "lda_sample_docs": int(sample_ids.size),
    }
    return graph, meta
