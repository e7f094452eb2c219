"""One sampling stream: every MRR collection draws coordinate-keyed.

For a given integer seed, every entry point — ``MRRCollection.generate``,
``Session.sample`` and the lineage it starts, carried through an empty
``Session.update`` — draws the same roots and RR sets on every store,
worker count and executor.  A ``Generator`` seed contributes exactly
one integer, and bad seeds fail at the runtime boundary with
:class:`ConfigError`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.exceptions import ConfigError
from repro.incremental import GraphDelta
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import MemoryStore

SEED = 13
THETA = 700  # three 256-root blocks, the last one partial


def collection_digest(collection) -> str:
    """sha256 over the roots and every piece's RR CSR arrays."""
    h = hashlib.sha256(np.ascontiguousarray(collection.roots).tobytes())
    for piece in range(collection.num_pieces):
        ptr, nodes = collection.store.rr_arrays(piece)
        h.update(np.ascontiguousarray(ptr).tobytes())
        h.update(np.ascontiguousarray(nodes).tobytes())
    return h.hexdigest()


@pytest.fixture()
def reference(small_random_graph, small_campaign):
    return collection_digest(
        MRRCollection.generate(
            small_random_graph, small_campaign, THETA, seed=SEED,
            runtime=Runtime(workers=None, store="memory", artifacts="off"),
        )
    )


@pytest.mark.parametrize("executor", ["thread", "spawned"])
@pytest.mark.parametrize("workers", [None, 1, 2])
@pytest.mark.parametrize("store", ["memory", "disk"])
def test_every_entry_point_draws_one_stream(
    small_random_graph, small_campaign, reference, tmp_path,
    store, workers, executor,
):
    def runtime(tag):
        fields = dict(
            store=store, workers=workers, executor=executor, artifacts="off"
        )
        if store == "disk":
            fields["shard_dir"] = str(tmp_path / tag)
        return Runtime(**fields)

    generated = MRRCollection.generate(
        small_random_graph, small_campaign, THETA, seed=SEED,
        runtime=runtime("generate"),
    )
    session = Session(
        small_random_graph, small_campaign, k=3, seed=SEED,
        runtime=runtime("session"),
    )
    sampled = session.sample(THETA)
    assert collection_digest(sampled) == reference
    assert session._inc.entropy == SEED
    session.update(GraphDelta(()))
    lineage = session.mrr
    assert collection_digest(lineage) == reference
    assert generated.store.kind == sampled.store.kind == lineage.store.kind
    assert collection_digest(generated) == reference


def test_keyed_lineage_bytes_are_pinned(small_random_graph, small_campaign):
    """A lineage keeps the bytes it had before every collection moved
    onto its stream (digests recorded from the incremental tier prior to
    the unification)."""
    pinned = {
        "batch": "ad2672a06bdfc9dfa78b95487fa0efb3"
        "9b0886b93c5ef61fc694155698af2513",
        "python": "7be8adf980228d3b91aec8fa99e0f27b"
        "9d628f6661854fc5632aa15e4b20c015",
    }
    for backend, digest in pinned.items():
        session = Session(
            small_random_graph, small_campaign, k=4, seed=SEED,
            runtime=Runtime(backend=backend, artifacts="off"),
        )
        assert collection_digest(session.sample(THETA)) == digest


def test_generator_seed_consumes_exactly_one_integer(
    small_random_graph, small_campaign
):
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    drawn = MRRCollection.generate(
        small_random_graph, small_campaign, THETA, seed=rng,
        runtime=Runtime(artifacts="off"),
    )
    entropy = int(twin.integers(0, 2**63 - 1))
    assert rng.bit_generator.state == twin.bit_generator.state
    keyed = MRRCollection.generate(
        small_random_graph, small_campaign, THETA, seed=entropy,
        runtime=Runtime(artifacts="off"),
    )
    assert collection_digest(drawn) == collection_digest(keyed)

    # a lineage pins the drawn entropy, so its updates stay on stream
    session = Session(
        small_random_graph, small_campaign, k=3,
        runtime=Runtime(artifacts="off"),
    )
    lineage = session.sample(THETA, seed=np.random.default_rng(5))
    assert session._inc.entropy == entropy
    assert collection_digest(lineage) == collection_digest(keyed)


def test_numpy_integer_seed_is_an_int_seed(small_random_graph, small_campaign):
    a = MRRCollection.generate(
        small_random_graph, small_campaign, 300, seed=np.int64(SEED),
        runtime=Runtime(artifacts="off"),
    )
    b = MRRCollection.generate(
        small_random_graph, small_campaign, 300, seed=SEED,
        runtime=Runtime(artifacts="off"),
    )
    assert collection_digest(a) == collection_digest(b)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", (1, 2)])
def test_bad_seeds_fail_at_the_boundary(
    small_random_graph, small_campaign, seed
):
    with pytest.raises(ConfigError, match="seed"):
        MRRCollection.generate(
            small_random_graph, small_campaign, 100, seed=seed
        )
    session = Session(small_random_graph, small_campaign, k=3)
    with pytest.raises(ConfigError, match="seed"):
        session.sample(100, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        MRRCollection.generate(
            small_random_graph, small_campaign, 100,
            runtime=Runtime(seed=seed),
        )


def test_cached_arrays_hit_keeps_block_geometry(
    small_random_graph, small_campaign
):
    """An in-RAM collection served from the cache keeps its (piece,
    block) shards, so a later delta invalidates per block."""
    runtime = Runtime(store="memory", artifacts="memory")
    cold = Session(small_random_graph, small_campaign, k=3, seed=SEED,
                   runtime=runtime)
    cold.sample(THETA)
    warm = Session(small_random_graph, small_campaign, k=3, seed=SEED,
                   runtime=runtime)
    warm.sample(THETA)
    assert warm.stage_trace.actions("sample") == ["hit"]
    store = warm.mrr.store
    assert isinstance(store, MemoryStore)
    assert store.block_size == cold.mrr.store.block_size == 256
    assert store.num_blocks == 3
    # every vertex maps to exactly the blocks whose RR sets contain it
    ptr, nodes = store.rr_arrays(0)
    members = [
        set(nodes[ptr[lo] : ptr[min(lo + 256, THETA)]].tolist())
        for lo in range(0, THETA, 256)
    ]
    for v in range(small_random_graph.n):
        expected = [b for b, block in enumerate(members) if v in block]
        assert store.blocks_touching(0, [v]) == expected
