"""The content-addressed artifact layer (``repro.artifacts``).

Contracts under test:

* fingerprints — the graph fingerprint hashes *content* (edge-order
  independent; any edge mutation changes it), the campaign fingerprint
  hashes the piece vectors (names excluded);
* cache keys — every cache-relevant ``Runtime`` field changes
  :meth:`ResolvedRuntime.cache_key`, while pure execution knobs
  (``workers``, ``executor``, store placement) leave it byte-identical,
  so a pool resize or a memory/disk move still hits;
* stores — memory and disk stores round-trip (meta + arrays), count
  hits/misses/puts, survive process handoff (disk), and treat
  token-mismatched or uncommitted objects as misses;
* resolution — the ``artifacts`` spec grammar (None/off/memory/path/
  instance) and its ``ConfigError`` rejects.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.artifacts import (
    Artifact,
    ArtifactKey,
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    piece_graphs_digest,
    resolve_artifact_store,
)
from repro.diffusion.projection import project_campaign
from repro.exceptions import ConfigError, StoreError
from repro.graph.digraph import TopicGraph
from repro.runtime import Runtime, resolve_runtime
from repro.topics.distributions import Campaign, Piece

EDGES = [
    (0, 1, {0: 0.5}),
    (1, 2, {1: 0.25}),
    (2, 0, {0: 0.125, 1: 0.0625}),
    (0, 3, {1: 0.75}),
    (3, 1, {0: 0.375}),
]


def _graph(edges=EDGES) -> TopicGraph:
    return TopicGraph.from_edges(4, 2, edges)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestGraphFingerprint:
    def test_stable_and_cached(self):
        g = _graph()
        fp = g.fingerprint()
        assert isinstance(fp, str) and len(fp) == 64
        assert g.fingerprint() == fp  # cached second call
        assert _graph().fingerprint() == fp  # fresh build, same content

    def test_edge_order_independent(self):
        shuffled = [EDGES[i] for i in (3, 0, 4, 2, 1)]
        assert _graph(shuffled).fingerprint() == _graph().fingerprint()

    def test_any_edge_mutation_changes_it(self):
        base = _graph().fingerprint()
        # retarget one edge
        retargeted = [(0, 1, {0: 0.5}), *EDGES[1:]]
        retargeted[0] = (0, 2, {0: 0.5})
        assert _graph(retargeted).fingerprint() != base
        # nudge one probability
        nudged = list(EDGES)
        nudged[1] = (1, 2, {1: 0.2500001})
        assert _graph(nudged).fingerprint() != base
        # drop one edge
        assert _graph(EDGES[:-1]).fingerprint() != base

    def test_vertex_count_matters(self):
        a = TopicGraph.from_edges(4, 2, EDGES)
        b = TopicGraph.from_edges(5, 2, EDGES)  # extra isolated vertex
        assert a.fingerprint() != b.fingerprint()


class TestCampaignFingerprint:
    def test_vectors_define_it_names_do_not(self):
        a = Campaign([Piece("tax", [1.0, 0.0]), Piece("health", [0.0, 1.0])])
        b = Campaign([Piece("x", [1.0, 0.0]), Piece("y", [0.0, 1.0])])
        assert a.fingerprint() == b.fingerprint()

    def test_vector_change_invalidates(self):
        a = Campaign([Piece("p", [1.0, 0.0])])
        b = Campaign([Piece("p", [0.9, 0.1])])
        assert a.fingerprint() != b.fingerprint()

    def test_piece_order_matters(self):
        # Pieces are positional (seed sets are per-index): swapping two
        # pieces is a different campaign.
        a = Campaign([Piece("a", [1.0, 0.0]), Piece("b", [0.0, 1.0])])
        b = Campaign([Piece("b", [0.0, 1.0]), Piece("a", [1.0, 0.0])])
        assert a.fingerprint() != b.fingerprint()


class TestPieceGraphsDigest:
    def test_tracks_projection_content(self, small_random_graph, small_campaign):
        pgs = project_campaign(small_random_graph, small_campaign)
        again = project_campaign(small_random_graph, small_campaign)
        assert piece_graphs_digest(pgs) == piece_graphs_digest(again)
        assert piece_graphs_digest(pgs[:2]) != piece_graphs_digest(pgs)
        assert piece_graphs_digest(list(reversed(pgs))) != piece_graphs_digest(
            pgs
        )


# ----------------------------------------------------------------------
# runtime cache keys (satellite: invalidation contracts)
# ----------------------------------------------------------------------


class TestRuntimeCacheKey:
    def _key(self, **fields):
        return resolve_runtime(Runtime(**fields)).cache_key()

    def test_execution_knobs_do_not_invalidate(self, tmp_path):
        base = self._key(seed=7)
        assert self._key(seed=7, workers=4) == base
        assert self._key(seed=7, workers="auto", executor="thread") == base
        # store placement is a bit-identity contract, not an input
        assert (
            self._key(
                seed=7,
                store="disk",
                shard_dir=str(tmp_path / "s"),
                max_resident_bytes=1 << 20,
            )
            == base
        )
        # the artifact spec itself is not part of the key either
        assert self._key(seed=7, artifacts=str(tmp_path / "a")) == base

    def test_cache_relevant_fields_invalidate(self):
        base = self._key(seed=7)
        assert self._key(seed=8) != base
        # a backend that differs from the resolved default (REPRO_BACKEND
        # may already make the default "python")
        default = resolve_runtime(Runtime(seed=7)).backend
        other = "batch" if default == "python" else "python"
        assert self._key(seed=7, backend=other) != base
        assert self._key(seed=7, model="lt") != base

    def test_model_normalisation(self):
        # None resolves to the library default ("ic"); tuples are joined
        assert self._key(seed=7, model="ic") == self._key(seed=7)
        assert self._key(seed=7, model=("ic", "lt")) != self._key(
            seed=7, model="ic"
        )

    def test_unseeded_is_unreproducible(self):
        assert "seed=unreproducible" in self._key()
        assert "seed=unreproducible" in resolve_runtime(
            Runtime(), seed=np.random.default_rng(1)
        ).cache_key()
        assert "seed=7" in self._key(seed=7)


# ----------------------------------------------------------------------
# keys and stores
# ----------------------------------------------------------------------


def _mk_key(**overrides) -> ArtifactKey:
    fields = dict(
        graph="g" * 64,
        campaign="c" * 64,
        runtime="backend=batch:model=ic:seed=7",
        stage="sample",
        extra=("theta=100",),
    )
    fields.update(overrides)
    return ArtifactKey(**fields)


class TestArtifactKey:
    def test_token_and_digest(self):
        key = _mk_key()
        assert key.token.startswith("v3:graph=")
        assert "stage=sample" in key.token
        assert key.token.endswith("theta=100")
        assert key.digest == _mk_key().digest
        assert len(key.digest) == 64

    def test_every_component_discriminates(self):
        base = _mk_key().digest
        assert _mk_key(graph="h" * 64).digest != base
        assert _mk_key(campaign="d" * 64).digest != base
        assert _mk_key(runtime="backend=batch:model=ic:seed=8").digest != base
        assert _mk_key(stage="solve").digest != base
        assert _mk_key(extra=("theta=200",)).digest != base


class TestMemoryArtifactStore:
    def test_roundtrip_and_stats(self):
        store = MemoryArtifactStore()
        key = _mk_key()
        assert store.get(key) is None
        store.put(key, {"n": 4}, {"roots": np.arange(5)})
        hit = store.get(key)
        assert hit is not None and hit.meta["n"] == 4
        np.testing.assert_array_equal(hit.arrays["roots"], np.arange(5))
        assert len(store) == 1
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1}

    def test_cannot_host_directories(self):
        store = MemoryArtifactStore()
        assert not store.hosts_directories
        with pytest.raises(StoreError):
            store.stage_dir(_mk_key())
        with pytest.raises(StoreError):
            store.commit(_mk_key(), {})


class TestDiskArtifactStore:
    def test_roundtrip_and_persistent_stats(self, tmp_path):
        root = str(tmp_path / "cache")
        store = DiskArtifactStore(root)
        key = _mk_key()
        assert store.get(key) is None
        store.put(key, {"n": 4}, {"roots": np.arange(5, dtype=np.int64)})
        hit = store.get(key)
        assert hit is not None and hit.meta["n"] == 4
        assert hit.path is not None and os.path.isdir(hit.path)
        np.testing.assert_array_equal(hit.arrays["roots"], np.arange(5))
        # a second instance over the same root sees object and counters
        again = DiskArtifactStore(root)
        assert again.get(key) is not None
        assert again.stats() == {"hits": 2, "misses": 1, "puts": 1}

    def test_token_mismatch_is_a_miss(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        key = _mk_key()
        committed = store.put(key, {"n": 4})
        meta_path = os.path.join(committed.path, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["token"] = "v0:something-older"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert store.get(key) is None

    def test_uncommitted_directory_is_a_miss(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        key = _mk_key()
        stage = store.stage_dir(key)
        with open(os.path.join(stage, "partial.bin"), "wb") as fh:
            fh.write(b"\x00" * 16)
        assert store.get(key) is None  # never committed — not visible
        committed = store.commit(key, {"format": "shards"})
        hit = store.get(key)
        assert hit is not None
        assert hit.meta["format"] == "shards"
        # the staging dir was renamed into the content address, payload
        # included — staged work is never visible before the commit
        assert hit.path == committed.path
        assert not os.path.exists(stage)
        assert os.path.exists(os.path.join(hit.path, "partial.bin"))

    def test_duplicate_commit_is_benign(self, tmp_path):
        """Two racers committing one key: loser is a no-op, no torn dir."""
        store = DiskArtifactStore(str(tmp_path))
        key = _mk_key()
        a = store.stage_dir(key)
        with open(os.path.join(a, "payload.bin"), "wb") as fh:
            fh.write(b"A" * 8)
        first = store.commit(key, {"who": "a"})
        # a second producer staged before the first committed
        b = store.stage_dir(key)
        with open(os.path.join(b, "payload.bin"), "wb") as fh:
            fh.write(b"B" * 8)
        second = store.commit(key, {"who": "b"})
        assert second.path == first.path
        hit = store.get(key)
        assert hit is not None and hit.meta["who"] == "a"  # winner kept
        assert not os.path.exists(b)  # loser's staging discarded

    def test_stale_occupant_is_replaced(self, tmp_path):
        """A stale object under an older token is swapped out on commit."""
        store = DiskArtifactStore(str(tmp_path))
        key = _mk_key()
        committed = store.put(key, {"n": 4})
        meta_path = os.path.join(committed.path, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["token"] = "v0:something-older"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert store.get(key) is None  # stale occupant — miss
        store.put(key, {"n": 5})
        hit = store.get(key)
        assert hit is not None and hit.meta["n"] == 5

    def test_truncated_stats_reads_as_empty(self, tmp_path):
        root = str(tmp_path / "cache")
        store = DiskArtifactStore(root)
        store.get(_mk_key())  # one miss
        # torn legacy base + a torn delta file must both read as empty
        with open(os.path.join(root, "stats.json"), "w") as fh:
            fh.write('{"hits": 1')  # truncated mid-write
        with open(os.path.join(root, "stats.d", "dead.json"), "w") as fh:
            fh.write('{"mis')
        stats = store.stats()
        assert stats == {"hits": 0, "misses": 1, "puts": 0}


class TestResolveArtifactStore:
    def test_off_specs(self):
        assert resolve_artifact_store(None) is None
        assert resolve_artifact_store("off") is None

    def test_memory_is_process_shared(self):
        a = resolve_artifact_store("memory")
        b = resolve_artifact_store("memory")
        assert isinstance(a, MemoryArtifactStore)
        assert a is b

    def test_disk_instance_per_path(self, tmp_path):
        a = resolve_artifact_store(str(tmp_path / "x"))
        b = resolve_artifact_store(str(tmp_path / "x"))
        c = resolve_artifact_store(str(tmp_path / "y"))
        assert isinstance(a, DiskArtifactStore)
        assert a is b
        assert c is not a

    def test_instance_passthrough(self):
        store = MemoryArtifactStore()
        assert resolve_artifact_store(store) is store

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_artifact_store(123)

    def test_runtime_field_validation(self):
        with pytest.raises(ConfigError):
            Runtime(artifacts=123)
        # "off" stays "off" through resolution (so re-resolving a
        # resolved runtime cannot let the env default leak back in);
        # only artifact_store() maps it to None.
        rt = resolve_runtime(Runtime(artifacts="off"))
        assert rt.artifacts == "off"
        assert rt.artifact_store() is None
        assert resolve_runtime(rt).artifact_store() is None

    def test_abstract_store_surface(self):
        base = ArtifactStore()
        with pytest.raises(NotImplementedError):
            base.get(_mk_key())
        with pytest.raises(NotImplementedError):
            base.stats()
        assert isinstance(
            Artifact(key=_mk_key(), meta={}), Artifact
        )
