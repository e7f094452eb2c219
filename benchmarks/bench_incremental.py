"""Incremental update vs full resample: the reuse pay-off gate.

The incremental subsystem's reason to exist is that a small graph delta
should not cost a full theta-scale resample.  This benchmark builds a
sparse preferential-attachment world, samples a theta=200k lineage on
the keyed incremental tier, applies a one-edge delta onto a rarely-
sampled head, and times

    Session.update(delta)          — regenerate touched shards, warm solve
    cold resample on the new graph — full generate + cold solve

on the same disk-store runtime, with the default sampling engine.  Bit-identity of the
two collections is asserted *before* any timing is trusted (a fast
wrong answer is not a speedup), the trace must show real shard reuse,
and the wall-clock gate is

    update >= 5x faster than the full resample

Results land in ``benchmarks/out/BENCH_incremental.json`` (plus a
rendered text artifact) for the perf trajectory.

Run:
    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import write_artifact
from repro.api import Session
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.incremental import EdgeOp, GraphDelta
from repro.runtime import Runtime
from repro.topics.distributions import Campaign, unit_piece

THETA = 200_000
PIECES = 2
N = 20_000
K = 4
GATE = 5.0


@pytest.fixture(scope="module")
def world():
    # Sparse and weakly contagious: RR sets stay small, so most
    # vertices are rare in the index and a one-edge delta touches a
    # small fraction of the shards — the regime updates are built for.
    src, dst = preferential_attachment_digraph(N, 2, seed=71)
    graph = build_topic_graph(
        N, src, dst, 3, topics_per_edge=1.5, prob_mean=0.05, seed=72
    )
    campaign = Campaign([unit_piece(z, 3) for z in range(PIECES)])
    return graph, campaign


def _runtime(tmp_path, tag) -> Runtime:
    return Runtime(store="disk", workers=1, shard_dir=str(tmp_path / tag))


def _digest(collection) -> str:
    h = hashlib.sha256(np.ascontiguousarray(collection.roots).tobytes())
    for piece in range(collection.num_pieces):
        ptr, nodes = collection.store.rr_arrays(piece)
        h.update(ptr.tobytes())
        h.update(nodes.tobytes())
    return h.hexdigest()


def _rare_head_delta(session) -> GraphDelta:
    """Add one edge onto the rarest vertex that occurs in the index."""
    freq = sum(
        session.mrr.vertex_frequencies(j).astype(np.int64)
        for j in range(session.num_pieces)
    )
    occurring = np.flatnonzero(freq > 0)
    head = int(occurring[np.argmin(freq[occurring])])
    src = (head + 1) % session.graph.n
    while session.graph.has_edge(src, head) or src == head:
        src = (src + 1) % session.graph.n
    return GraphDelta((EdgeOp("add", src, head, topics={0: 0.5}),))


def test_small_delta_update_beats_full_resample(world, tmp_path, artifact_dir):
    graph, campaign = world

    # Lineage: keyed sample + a cold solve to seed the warm gains.
    session = Session(
        graph, campaign, k=K, seed=7, runtime=_runtime(tmp_path, "lineage")
    )
    t0 = time.perf_counter()
    session.sample(THETA)
    session.solve("celf-mrr")
    t_lineage = time.perf_counter() - t0

    delta = _rare_head_delta(session)

    t0 = time.perf_counter()
    update = session.update(delta)
    t_update = time.perf_counter() - t0
    trace = update.trace

    # The competing path: full resample + cold solve on the new graph.
    cold = Session(
        session.graph, campaign, k=K, seed=7,
        runtime=_runtime(tmp_path, "cold"),
    )
    t0 = time.perf_counter()
    cold_mrr = cold.sample(THETA)
    cold_result = cold.solve("celf-mrr")
    t_cold = time.perf_counter() - t0

    # Bit-identity and plan agreement first — then the clock counts.
    assert _digest(session.mrr) == _digest(cold_mrr)
    assert update.plan == cold_result.plan

    # The delta must have produced genuine reuse, not a full regen.
    assert trace.shards_invalidated > 0
    assert trace.kept_fraction >= 0.5, (
        f"only {trace.kept_fraction:.0%} of shards kept — the delta head "
        "is not rare enough for a reuse benchmark"
    )

    speedup = t_cold / t_update
    payload = {
        "n": N,
        "theta": THETA,
        "pieces": PIECES,
        "shards_total": trace.shards_total,
        "shards_kept": trace.shards_kept,
        "kept_fraction": round(trace.kept_fraction, 4),
        "lineage_seconds": round(t_lineage, 3),
        "update_seconds": round(t_update, 3),
        "full_resample_seconds": round(t_cold, 3),
        "speedup": round(speedup, 3),
        "gate": GATE,
    }
    (artifact_dir / "BENCH_incremental.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_artifact(
        artifact_dir,
        "incremental_update",
        "Incremental update vs full resample (one-edge delta)\n"
        f"n={N}, theta={THETA}, pieces={PIECES}\n"
        f"shards kept    {trace.shards_kept}/{trace.shards_total} "
        f"({trace.kept_fraction:.0%})\n"
        f"full resample  {t_cold:8.2f} s\n"
        f"update         {t_update:8.2f} s\n"
        f"speedup        {speedup:8.2f} x (gate >= {GATE}x)",
    )
    assert speedup >= GATE, (
        f"update speedup {speedup:.2f}x < {GATE}x "
        f"(full {t_cold:.2f}s, update {t_update:.2f}s, "
        f"kept {trace.kept_fraction:.0%})"
    )
