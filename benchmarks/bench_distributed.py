"""Distributed sampling throughput: spawned worker group vs serial.

The ``executor="spawned"`` topology's reason to exist is wall-clock:
N independent worker processes filling one shard directory must beat
one process doing the same generation.  This benchmark runs the same
theta=200k disk-store generation twice — ``workers=1`` serial and a
4-process spawned group — with the default sampling engine, asserts
the collections are bit-identical, gates

    spawned(4) >= 2.5x serial wall-clock

and records both timings in ``benchmarks/out/BENCH_distributed.json``
(plus a rendered text artifact) for the perf trajectory.

Run:
    PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from conftest import write_artifact
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign

THETA = 200_000
PIECES = 3
WORKERS = 4
GATE = 2.5


@pytest.fixture(scope="module")
def world():
    n = 2000
    src, dst = preferential_attachment_digraph(n, 5, seed=41)
    graph = build_topic_graph(
        n, src, dst, 8, topics_per_edge=2.0, prob_mean=0.1, seed=42
    )
    campaign = Campaign.sample_unit(PIECES, 8, seed=43)
    return graph, campaign


def _digest(collection) -> str:
    """Order-insensitive content digest over roots + per-piece CSR."""
    h = hashlib.sha256()
    h.update(collection.roots.tobytes())
    for piece in range(collection.num_pieces):
        ptr, nodes = collection.store.rr_arrays(piece)
        h.update(ptr.tobytes())
        h.update(nodes.tobytes())
    return h.hexdigest()


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@pytest.mark.skipif(
    _cores() < WORKERS,
    reason=f"needs >= {WORKERS} CPU cores for a {WORKERS}-worker group "
    f"(have {_cores()}) — a wall-clock gate on an oversubscribed box "
    "measures the scheduler, not the topology",
)
def test_spawned_group_beats_serial(world, tmp_path, artifact_dir):
    graph, campaign = world

    def generate(label, runtime):
        start = time.perf_counter()
        collection = MRRCollection.generate(
            graph, campaign, THETA, seed=7, runtime=runtime
        )
        return collection, time.perf_counter() - start

    serial, t_serial = generate(
        "serial",
        Runtime(workers=1, store="disk", shard_dir=str(tmp_path / "serial")),
    )
    spawned, t_spawned = generate(
        "spawned",
        Runtime(
            workers=WORKERS, executor="spawned", store="disk",
            shard_dir=str(tmp_path / "spawned"),
        ),
    )

    # Bit-identity first — a fast wrong answer is not a speedup.
    assert _digest(serial) == _digest(spawned)

    speedup = t_serial / t_spawned
    payload = {
        "theta": THETA,
        "pieces": PIECES,
        "workers": WORKERS,
        "serial_seconds": round(t_serial, 3),
        "spawned_seconds": round(t_spawned, 3),
        "speedup": round(speedup, 3),
        "gate": GATE,
    }
    (artifact_dir / "BENCH_distributed.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_artifact(
        artifact_dir,
        "distributed_sampling",
        "Distributed sampling (spawned worker group vs serial)\n"
        f"theta={THETA}, pieces={PIECES}\n"
        f"serial      {t_serial:8.2f} s\n"
        f"spawned({WORKERS})  {t_spawned:8.2f} s\n"
        f"speedup     {speedup:8.2f} x (gate >= {GATE}x)",
    )
    assert speedup >= GATE, (
        f"spawned({WORKERS}) speedup {speedup:.2f}x < {GATE}x "
        f"(serial {t_serial:.2f}s, spawned {t_spawned:.2f}s)"
    )
