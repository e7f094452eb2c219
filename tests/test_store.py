"""The pluggable sample-store layer (``repro.sampling.store``).

Contracts under test:

* bit-identity — a :class:`ShardStore` collection (arrays, inverted
  indexes, estimates, greedy seed sets, full BAB solves) is equal to
  the :class:`MemoryStore` one for the same seed and decomposition;
* out-of-core — a theta whose sample payload exceeds
  ``max_resident_bytes`` runs generate → coverage → BAB/RIS end-to-end
  with the store's resident cache held at the ceiling;
* durability — shard directories reload without resampling, resume
  from partial shards, and fail loudly on mismatched, corrupted, or
  missing shards;
* knobs — ``store=``/``REPRO_STORE`` parsing raises
  :class:`~repro.exceptions.ConfigError` at entry (as do the
  ``REPRO_WORKERS``/``REPRO_BACKEND`` parsers this PR moved onto the
  shared env helper).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.sampling.store as store_mod
from repro.core.bab import solve_bab
from repro.core.bitset import CowCounts
from repro.core.coverage import CoverageState, coverage_gains
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import TauState
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import ConfigError, ParameterError, StoreError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.ris import max_coverage_seeds
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import (
    DEFAULT_MAX_RESIDENT_BYTES,
    MemoryStore,
    ShardStore,
    check_store,
    resolve_store,
)
from repro.topics.distributions import Campaign
from repro.runtime import Runtime, parse_env_choice, parse_env_workers

THETA = 800


@pytest.fixture(scope="module")
def world():
    src, dst = preferential_attachment_digraph(80, 3, seed=11)
    graph = build_topic_graph(
        80, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=12
    )
    campaign = Campaign.sample_unit(3, 4, seed=13)
    return graph, campaign


@pytest.fixture(scope="module")
def mem_mrr(world):
    graph, campaign = world
    # workers=1 pins the block decomposition the disk store always uses.
    return MRRCollection.generate(
        graph, campaign, THETA, seed=21,
        runtime=Runtime(workers=1, store="memory"),
    )


def _assert_collections_equal(a: MRRCollection, b: MRRCollection) -> None:
    assert (a.n, a.theta, a.num_pieces) == (b.n, b.theta, b.num_pieces)
    np.testing.assert_array_equal(a.roots, b.roots)
    for j in range(a.num_pieces):
        for x, y in zip(a.store.rr_arrays(j), b.store.rr_arrays(j)):
            np.testing.assert_array_equal(x, y)
        pa, sa = a.index_arrays(j)
        pb, sb = b.index_arrays(j)
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(sa, sb)


# ----------------------------------------------------------------------
# knobs
# ----------------------------------------------------------------------


class TestKnobs:
    def test_check_store_values(self, monkeypatch):
        monkeypatch.setattr(store_mod, "DEFAULT_STORE", "memory")
        assert check_store(None) == "memory"
        assert check_store("disk") == "disk"
        monkeypatch.setattr(store_mod, "DEFAULT_STORE", "disk")
        assert check_store(None) == "disk"
        with pytest.raises(ConfigError):
            check_store("s3")

    def test_resolve_store_kinds(self, tmp_path):
        assert isinstance(resolve_store("memory"), MemoryStore)
        disk = resolve_store("disk", shard_dir=str(tmp_path / "s"))
        assert isinstance(disk, ShardStore)
        ready = MemoryStore()
        assert resolve_store(ready) is ready

    def test_disk_knobs_rejected_for_memory(self, world):
        graph, campaign = world
        with pytest.raises(ConfigError):
            resolve_store("memory", shard_dir="/tmp/nope")
        with pytest.raises(ConfigError):
            MRRCollection.generate(
                graph, campaign, 50, seed=1,
                runtime=Runtime(store="memory", shard_dir="x"),
            )
        with pytest.raises(ConfigError):
            ShardStore(max_resident_bytes=0)

    def test_env_parsers_raise_config_error(self):
        assert issubclass(ConfigError, ParameterError)
        with pytest.raises(ConfigError):
            parse_env_choice("REPRO_STORE", "s3", ("memory", "disk"))
        assert parse_env_choice("REPRO_STORE", "", ("memory", "disk")) is None
        with pytest.raises(ConfigError):
            parse_env_workers("many")
        with pytest.raises(ConfigError):
            parse_env_workers("-3")
        assert parse_env_workers("serial") is None
        assert parse_env_workers("6") == 6

    @pytest.mark.parametrize(
        "var, code",
        [
            ("REPRO_STORE", "import repro.sampling.store"),
            ("REPRO_WORKERS", "import repro.sampling.parallel"),
            ("REPRO_BACKEND", "import repro.sampling.batch"),
        ],
    )
    def test_env_rejected_at_entry(self, var, code):
        """Invalid env knobs fail at import with the variable named."""
        env = dict(os.environ, **{var: "bogus"})
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        assert proc.returncode != 0
        assert var.encode() in proc.stderr
        assert b"ConfigError" in proc.stderr

    def test_repro_store_env_sets_default(self):
        code = (
            "import repro.sampling.store as s; "
            "assert s.DEFAULT_STORE == 'disk', s.DEFAULT_STORE"
        )
        env = dict(os.environ, REPRO_STORE="disk")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()


# ----------------------------------------------------------------------
# bit-identity across stores
# ----------------------------------------------------------------------


class TestStoreEquivalence:
    def test_gather_budget_tiers(self, world, mem_mrr, tmp_path, monkeypatch):
        """The coalescing gather respects the resident budget.

        Gap read-through must never blow the merged-run buffer past
        ``gather_chunk_bytes``; when even the gapless merge is over
        budget the gather falls back to per-vertex direct reads.
        Results are byte-identical in every tier.
        """
        graph, campaign = world
        disk = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "shards")),
        )
        # This test counts *file* reads across budget tiers; the segment
        # LRU would serve the repeat gathers from RAM, so pin it off.
        disk.store._seg_budget = 0
        rng = np.random.default_rng(3)
        sparse = np.sort(rng.choice(graph.n, size=10, replace=False))
        want, want_deg = mem_mrr.store.gather_index(0, sparse)

        reads = []
        original = ShardStore._read_slab

        def counting(self, fh, view, lo, hi):
            reads.append(hi - lo)
            return original(self, fh, view, lo, hi)

        monkeypatch.setattr(ShardStore, "_read_slab", counting)
        # Default budget: coalesced (few reads, possibly read-through).
        got, got_deg = disk.store.gather_index(0, sparse)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_deg, want_deg)
        assert len(reads) < sparse.size
        # Starved budget: every tier's buffer is over, so the gather
        # must drop to per-vertex reads — one per populated vertex,
        # none larger than its own slab (no read-through allocation).
        monkeypatch.setattr(
            ShardStore, "gather_chunk_bytes", property(lambda self: 8)
        )
        reads.clear()
        got, got_deg = disk.store.gather_index(0, sparse)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_deg, want_deg)
        populated = int((want_deg > 0).sum())
        assert len(reads) == populated
        assert sum(reads) == int(want_deg.sum())

    def test_disk_matches_memory_arrays(self, world, mem_mrr, tmp_path):
        graph, campaign = world
        disk = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "shards")),
        )
        _assert_collections_equal(mem_mrr, disk)

    def test_disk_matches_memory_with_pool(self, world, mem_mrr, tmp_path):
        graph, campaign = world
        disk = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(
                workers=2, store="disk", shard_dir=str(tmp_path / "shards"),
            ),
        )
        _assert_collections_equal(mem_mrr, disk)

    def test_memory_store_streaming_path_matches(self, world, mem_mrr):
        """A MemoryStore instance takes the streaming put_block path and
        must land on the identical collection."""
        graph, campaign = world
        streamed = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store=MemoryStore()),
        )
        _assert_collections_equal(mem_mrr, streamed)

    def test_estimates_and_queries_identical(self, world, mem_mrr, tmp_path):
        graph, campaign = world
        disk = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "shards")),
        )
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        plan = [[1, 5], [2], [9, 11]]
        assert mem_mrr.estimate(plan, adoption) == disk.estimate(plan, adoption)
        np.testing.assert_array_equal(
            mem_mrr.coverage_counts(plan), disk.coverage_counts(plan)
        )
        for j in range(3):
            np.testing.assert_array_equal(
                mem_mrr.rr_set_sizes(j), disk.rr_set_sizes(j)
            )
            np.testing.assert_array_equal(
                mem_mrr.vertex_frequencies(j), disk.vertex_frequencies(j)
            )
            for sample in (0, THETA // 2, THETA - 1):
                np.testing.assert_array_equal(
                    mem_mrr.rr_set(j, sample), disk.rr_set(j, sample)
                )
            for v in (0, 7, 79):
                np.testing.assert_array_equal(
                    mem_mrr.samples_containing(j, v),
                    disk.samples_containing(j, v),
                )

    def test_theta_beyond_ceiling_end_to_end(self, world, mem_mrr, tmp_path):
        """The acceptance bar: a sample payload far above the resident
        ceiling runs generate → coverage → RIS → BAB with the cache held
        at the ceiling and results bit-identical to the in-RAM store."""
        graph, campaign = world
        ceiling = 16 * 1024
        disk = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(
                store="disk", shard_dir=str(tmp_path / "shards"),
                max_resident_bytes=ceiling,
            ),
        )
        store = disk.store
        payload = sum(
            int(mem_mrr.rr_set_sizes(j).sum()) * 8 for j in range(3)
        )
        assert payload > ceiling  # theta really is beyond the ceiling
        pool = np.arange(0, graph.n, 2, dtype=np.int64)
        assert max_coverage_seeds(disk, 0, pool, 5) == max_coverage_seeds(
            mem_mrr, 0, pool, 5
        )
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        problem = OIPAProblem(graph, campaign, adoption, k=3, pool=pool)
        got = solve_bab(problem, disk, max_nodes=60)
        want = solve_bab(problem, mem_mrr, max_nodes=60)
        assert got.plan == want.plan
        assert got.utility == want.utility
        assert got.upper_bound == want.upper_bound
        # Touch every RR set; the block LRU must stay at the ceiling
        # (a single cached block may exceed it on its own).
        for sample in range(0, THETA, 17):
            disk.rr_set(1, sample)
        assert (
            store.resident_bytes <= store.max_resident_bytes
            or len(store._cache) == 1
        )

    def test_chunked_gathers_match_single_dispatch(
        self, world, mem_mrr, tmp_path
    ):
        """A 4 KB budget forces multi-chunk slab gathers; gains must be
        identical to the in-RAM single-dispatch kernel."""
        graph, campaign = world
        disk = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(
                store="disk", shard_dir=str(tmp_path / "shards"),
                max_resident_bytes=1,
            ),
        )
        pool = np.arange(graph.n, dtype=np.int64)
        chunks = list(disk.iter_index_slabs(0, pool))
        assert len(chunks) > 1  # the budget actually splits the scan
        covered = np.zeros(THETA, dtype=bool)
        covered[mem_mrr.samples_containing(0, 3)] = True
        np.testing.assert_array_equal(
            coverage_gains(mem_mrr, 0, pool, covered),
            coverage_gains(disk, 0, pool, covered),
        )
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        table = MajorantTable(adoption, 3)
        base_mem = CoverageState(mem_mrr)
        base_disk = CoverageState(disk)
        for state in (base_mem, base_disk):
            state.add_many(np.asarray([1, 5, 9], dtype=np.int64), 2)
        tau_mem = TauState(mem_mrr, table, base_mem, adoption)
        tau_disk = TauState(disk, table, base_disk, adoption)
        assert tau_mem.value == tau_disk.value
        np.testing.assert_array_equal(
            tau_mem.marginal_gains(pool, 1), tau_disk.marginal_gains(pool, 1)
        )


# ----------------------------------------------------------------------
# round-trip, resume, corruption
# ----------------------------------------------------------------------


class TestShardRoundTrip:
    def test_write_then_reopen(self, world, mem_mrr, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        reloaded = MRRCollection.from_store(ShardStore.open(shard_dir))
        _assert_collections_equal(mem_mrr, reloaded)

    def test_regenerate_skips_sampling(self, world, tmp_path, monkeypatch):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        first = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )

        def bomb(*args, **kwargs):
            raise AssertionError("finalized store must not resample")

        import repro.sampling.parallel as parallel

        monkeypatch.setattr(parallel, "stream_piece_blocks", bomb)
        again = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        _assert_collections_equal(first, again)

    def test_mismatched_graph_rejected_on_reload(self, world, tmp_path):
        """A shard dir from a *different graph of the same size* must not
        resume.  The root draw depends only on (seed, n), so before the
        graph content fingerprint joined the manifest identity this
        reloaded cleanly and silently served the wrong samples."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        src, dst = preferential_attachment_digraph(80, 3, seed=77)
        other_graph = build_topic_graph(
            80, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=78
        )
        with pytest.raises(StoreError) as err:
            MRRCollection.generate(
                other_graph, campaign, THETA, seed=21,
                runtime=Runtime(store="disk", shard_dir=shard_dir),
            )
        # the error names both identities: the resident and the expected
        message = str(err.value)
        assert f"graph={graph.fingerprint()[:16]}" in message
        assert f"graph={other_graph.fingerprint()[:16]}" in message

    def test_mismatched_campaign_rejected_on_reload(self, world, tmp_path):
        """Same graph, different campaign: the projected piece graphs
        differ, so the pieces fingerprint must reject the resume."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        other_campaign = Campaign.sample_unit(3, 4, seed=99)
        with pytest.raises(StoreError, match="different collection"):
            MRRCollection.generate(
                graph, other_campaign, THETA, seed=21,
                runtime=Runtime(store="disk", shard_dir=shard_dir),
            )

    def test_open_requires_manifest_and_index(self, tmp_path, world):
        graph, campaign = world
        with pytest.raises(StoreError):
            ShardStore.open(str(tmp_path / "empty"))
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        os.remove(os.path.join(shard_dir, "piece001.idx.bin"))
        with pytest.raises(StoreError):
            ShardStore.open(shard_dir)

    def test_fingerprint_resolves_backend_default(self, world, tmp_path):
        """The fingerprint records no backend, whatever the REPRO_BACKEND
        default: the batch and native engines are bit-identical, so a
        shard dir written under one reloads under the other."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        first = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(
                store="disk", shard_dir=shard_dir, backend="batch",
            ),
        )
        fingerprint = first.store.fingerprint
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no numba
            again = MRRCollection.generate(
                graph, campaign, THETA, seed=21,
                runtime=Runtime(
                    store="disk", shard_dir=shard_dir, backend="native",
                ),
            )
        assert again.store.fingerprint == fingerprint
        assert "backend" not in fingerprint
        for j in range(campaign.num_pieces):
            assert np.array_equal(first.rr_set_sizes(j), again.rr_set_sizes(j))

    def test_mismatched_directory_rejected(self, world, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        with pytest.raises(StoreError, match="different collection"):
            MRRCollection.generate(
                graph,
                campaign,
                THETA,
                seed=99,  # different roots -> different fingerprint
                runtime=Runtime(store="disk", shard_dir=shard_dir),
            )
        with pytest.raises(StoreError, match="different collection"):
            MRRCollection.generate(
                graph,
                campaign,
                THETA // 2,
                seed=21,
                runtime=Runtime(store="disk", shard_dir=shard_dir),
            )


def _deface_manifest(shard_dir: str) -> None:
    """Rewind a shard dir to a mid-generation crash state.

    The manifest lists no blocks (the committed shard files are the
    only completion record), so a caller simulates lost blocks by
    removing their files.
    """
    path = os.path.join(shard_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["finalized"] = False
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    for name in os.listdir(shard_dir):
        if ".idx" in name or ".sizes" in name:
            os.remove(os.path.join(shard_dir, name))


class TestResume:
    def test_partial_shard_resume(self, world, mem_mrr, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        first = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        num_blocks = first.store.num_blocks
        dropped = [(0, num_blocks - 1), (2, 0)]
        _deface_manifest(shard_dir)
        for piece, block in dropped:
            os.remove(
                os.path.join(
                    shard_dir, f"piece{piece:03d}_block{block:05d}.npz"
                )
            )
        resumed = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        _assert_collections_equal(mem_mrr, resumed)

    def test_resume_heals_missing_file_still_in_manifest(
        self, world, mem_mrr, tmp_path
    ):
        """A block of a finished generation whose file vanished is
        simply resampled, not trusted."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        _deface_manifest(shard_dir)
        os.remove(os.path.join(shard_dir, "piece001_block00000.npz"))
        resumed = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        _assert_collections_equal(mem_mrr, resumed)


class TestCorruption:
    def test_corrupted_shard_fails_loudly_on_resume(self, world, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        _deface_manifest(shard_dir)
        victim = os.path.join(shard_dir, "piece000_block00000.npz")
        with open(victim, "wb") as fh:
            fh.write(b"not a shard")
        with pytest.raises(StoreError, match="piece000_block00000"):
            MRRCollection.generate(
                graph,
                campaign,
                THETA,
                seed=21,
                runtime=Runtime(store="disk", shard_dir=shard_dir),
            )

    def test_corrupted_shard_fails_on_read(self, world, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        store = ShardStore.open(shard_dir)
        mrr = MRRCollection.from_store(store)
        victim = os.path.join(shard_dir, "piece002_block00000.npz")
        with open(victim, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(StoreError, match="missing or corrupted"):
            mrr.rr_set(2, 0)

    def test_unfinalized_store_rejected(self, world):
        graph, _ = world
        store = MemoryStore()
        with pytest.raises(StoreError, match="finalized"):
            MRRCollection(graph.n, np.arange(4), store=store)


# ----------------------------------------------------------------------
# the update path: one read per shard, summaries in RAM, no manifest
# rewrite per shard
# ----------------------------------------------------------------------

SPILL_THETA = 4000


def _index_bytes(shard_dir: str, piece: int) -> tuple[bytes, ...]:
    out = []
    for suffix in ("idx.bin", "idx_ptr.npy", "sizes.npy"):
        with open(
            os.path.join(shard_dir, f"piece{piece:03d}.{suffix}"), "rb"
        ) as fh:
            out.append(fh.read())
    return tuple(out)


def _count_npz_loads(monkeypatch) -> list[str]:
    """Record every shard file ``np.load`` opens from here on."""
    loads: list[str] = []
    real = np.load

    def counting(path, *args, **kwargs):
        if str(path).endswith(".npz"):
            loads.append(str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting)
    return loads


def _manifest_stat(shard_dir: str) -> tuple[int, int]:
    st = os.stat(os.path.join(shard_dir, "manifest.json"))
    return st.st_ino, st.st_mtime_ns


def _put(store, source, piece: int, block: int) -> None:
    """Commit ``source``'s samples of one (piece, block) span of ``store``."""
    ptr, nodes = source.store.rr_arrays(piece)
    lo, hi = store._block_span(block)
    store.put_block(
        piece, block, ptr[lo : hi + 1] - ptr[lo], nodes[ptr[lo] : ptr[hi]]
    )


class TestOneReadIndexBuild:
    def test_in_ram_and_spilled_builds_are_byte_identical(
        self, world, tmp_path, monkeypatch
    ):
        """Default budget: every piece inverted in RAM.  A 4096-entry
        bucket: every piece spills.  A bucket sized to the smallest
        piece: that piece stays in RAM, the others spill.  All three
        write the same index bytes, equal to the memory store's."""
        graph, campaign = world
        mem = MRRCollection.generate(
            graph, campaign, SPILL_THETA, seed=21,
            runtime=Runtime(workers=1, store="memory"),
        )
        entries = [int(mem.rr_set_sizes(j).sum()) for j in range(3)]
        assert min(entries) > 4096  # the small bucket really spills
        spilled: list[int] = []
        real = ShardStore._external_sort

        def counting(self, piece, idx_ptr, bucket_entries):
            spilled.append(piece)
            return real(self, piece, idx_ptr, bucket_entries)

        monkeypatch.setattr(ShardStore, "_external_sort", counting)
        budgets = {
            "ram": None,
            "spill": 32 * 4096,
            "mixed": 32 * min(entries),
        }
        expect_spilled = {
            "ram": [],
            "spill": [0, 1, 2],
            "mixed": [j for j in range(3) if entries[j] > min(entries)],
        }
        built = {}
        for tag, budget in budgets.items():
            spilled.clear()
            shard_dir = str(tmp_path / tag)
            MRRCollection.generate(
                graph, campaign, SPILL_THETA, seed=21,
                runtime=Runtime(
                    store="disk", shard_dir=shard_dir,
                    max_resident_bytes=budget,
                ),
            )
            assert spilled == expect_spilled[tag], tag
            assert not [n for n in os.listdir(shard_dir) if "bucket" in n]
            built[tag] = [_index_bytes(shard_dir, j) for j in range(3)]
        assert built["ram"] == built["spill"] == built["mixed"]
        shard_dir = str(tmp_path / "ram")
        for j in range(3):
            idx_ptr, idx_samples = mem.index_arrays(j)
            assert built["ram"][j][0] == idx_samples.tobytes()
            np.testing.assert_array_equal(
                np.load(os.path.join(shard_dir, f"piece{j:03d}.idx_ptr.npy")),
                idx_ptr,
            )
            np.testing.assert_array_equal(
                np.load(os.path.join(shard_dir, f"piece{j:03d}.sizes.npy")),
                mem.rr_set_sizes(j),
            )

    def test_finalize_reads_each_shard_once(
        self, world, mem_mrr, tmp_path, monkeypatch
    ):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        store = ShardStore.open(shard_dir)
        store.invalidate_blocks([(1, 0)])
        _put(store, mem_mrr, 1, 0)
        loads = _count_npz_loads(monkeypatch)
        store.finalize()
        # only piece 1 rebuilds; it opens each shard it did not commit
        # once, and builds block 0 from the rows put_block kept
        assert sorted(loads) == [
            store._block_path(1, b) for b in range(1, store.num_blocks)
        ]
        _assert_collections_equal(mem_mrr, MRRCollection.from_store(store))

    def test_refill_after_generate_opens_no_shard(
        self, world, mem_mrr, tmp_path, monkeypatch
    ):
        graph, campaign = world
        # committed by this process's put_block, not by worker processes
        store = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(
                store="disk", shard_dir=str(tmp_path / "shards"),
                executor="thread",
            ),
        ).store
        last = store.num_blocks - 1
        store.invalidate_blocks([(1, 0), (2, last)])
        _put(store, mem_mrr, 1, 0)
        _put(store, mem_mrr, 2, last)
        loads = _count_npz_loads(monkeypatch)
        store.finalize()
        _assert_collections_equal(mem_mrr, MRRCollection.from_store(store))
        # every shard was committed here: the rebuild and rr_arrays
        # both read the kept rows
        assert loads == []


def _spliced(default, theta, block_size, sources) -> MemoryStore:
    """The memory store of ``default``'s first ``theta`` samples, with
    the (piece, block) spans named in ``sources`` taken from another
    collection."""
    rr_ptr, rr_nodes = [], []
    for j in range(default.num_pieces):
        sizes, parts = [], []
        for b in range(-(-theta // block_size)):
            ptr, nodes = sources.get((j, b), default).store.rr_arrays(j)
            lo, hi = b * block_size, min((b + 1) * block_size, theta)
            sizes.append(np.diff(ptr[lo : hi + 1]))
            parts.append(nodes[ptr[lo] : ptr[hi]])
        ptr = np.zeros(theta + 1, dtype=np.int64)
        np.cumsum(np.concatenate(sizes), out=ptr[1:])
        rr_ptr.append(ptr)
        rr_nodes.append(np.concatenate(parts))
    return MemoryStore.from_arrays(default.n, rr_ptr, rr_nodes)


#: Rows are cut into blocks of this many samples (THETA = 8 blocks + 32).
ROW_BLOCK = 96
#: A budget whose row share (8 bytes) holds no shard's rows.
NO_ROW_BUDGET = 32


class TestResidentRows:
    """Shards this store committed are indexed from rows kept in RAM.

    Every case is run at the default budget (every row kept), at a
    budget whose share holds about half the rows, and at one that
    holds none (every shard read from its file).  All three write the
    same index bytes, equal to the memory store's: a row that went
    stale (refilled, dropped, deleted, recommitted by another writer)
    never reaches an index.
    """

    @pytest.fixture(scope="class")
    def alt_mrr(self, world):
        """Different content for the same dimensions: a changed graph."""
        graph, campaign = world
        src, dst = preferential_attachment_digraph(80, 3, seed=11)
        changed = build_topic_graph(
            80, src, dst, 4, topics_per_edge=2.0, prob_mean=0.35, seed=12
        )
        assert changed.fingerprint() != graph.fingerprint()
        return MRRCollection.generate(
            changed, campaign, THETA, seed=21,
            runtime=Runtime(workers=1, store="memory"),
        )

    @staticmethod
    def _row_bytes(mem_mrr):
        """n = 80 and RR sets of fewer than 256 vertices: every size and
        node id is kept in one byte."""
        return sum(
            THETA + int(mem_mrr.rr_set_sizes(j).sum()) for j in range(3)
        )

    def _budgets(self, mem_mrr):
        half = 2 * self._row_bytes(mem_mrr)  # its quarter holds half
        return {"default": None, "half": half, "none": NO_ROW_BUDGET}

    @staticmethod
    def _fill(store, source, theta):
        store.begin(source.n, 3, theta, ROW_BLOCK)
        for j in range(3):
            for b in range(store.num_blocks):
                _put(store, source, j, b)
                assert store.resident_bytes <= store.max_resident_bytes

    @staticmethod
    def _check(store, expected):
        assert store.resident_bytes <= store.max_resident_bytes
        pieces = range(store.num_pieces)
        built = [_index_bytes(store.shard_dir, j) for j in pieces]
        for j in pieces:
            idx_ptr, idx_samples = expected.index_arrays(j)
            assert built[j][0] == idx_samples.tobytes()
            np.testing.assert_array_equal(store.idx_ptr(j), idx_ptr)
            np.testing.assert_array_equal(
                store.rr_set_sizes(j), expected.rr_set_sizes(j)
            )
            for x, y in zip(store.rr_arrays(j), expected.rr_arrays(j)):
                assert x.dtype == np.int64
                np.testing.assert_array_equal(x, y)
        return built

    def _run(self, mem_mrr, tmp_path, scenario):
        built = {}
        for tag, budget in self._budgets(mem_mrr).items():
            store = ShardStore(
                str(tmp_path / tag), max_resident_bytes=budget
            )
            built[tag] = scenario(store)
            if tag == "none":
                assert store.resident_bytes == 0
        assert built["default"] == built["half"] == built["none"]

    def test_rows_count_against_the_budget(self, mem_mrr, tmp_path):
        store = ShardStore(str(tmp_path / "shards"))
        self._fill(store, mem_mrr, THETA)
        store.finalize()
        rows = self._row_bytes(mem_mrr)
        touch = sum(
            store.block_touch(j, b).nbytes
            for j in range(3)
            for b in range(store.num_blocks)
        )
        assert store.resident_bytes == rows + touch
        lo, hi = store._block_span(1)
        dropped = hi - lo + int(mem_mrr.rr_set_sizes(0)[lo:hi].sum())
        dropped += store.block_touch(0, 1).nbytes
        store.invalidate_blocks([(0, 1)])
        assert store.resident_bytes == rows + touch - dropped
        store.close()
        assert store.resident_bytes == 0

    def test_wide_values_widen_in_the_build(self, tmp_path):
        """Node ids past 65 535 and RR sets past 255 vertices, kept in
        uint32/uint16 rows, index like the memory store's, in RAM and
        through the external sort."""
        n, rng = 70_000, np.random.default_rng(3)
        sizes = rng.integers(600, 1000, size=8)
        ptr = np.zeros(9, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        nodes = np.concatenate(
            [rng.choice(n, size=int(k), replace=False) for k in sizes]
        )
        nodes[0] = n - 1
        assert nodes.size > 4096  # the small budget's bucket spills
        expected = MemoryStore.from_arrays(n, [ptr], [nodes])
        built = []
        # 128 KiB: rows fit its quarter, the 4096-entry bucket spills
        for budget in (None, 128 * 1024):
            store = ShardStore(
                str(tmp_path / str(budget)), max_resident_bytes=budget
            )
            store.begin(n, 1, 8, 4)
            for b in range(2):
                lo, hi = 4 * b, 4 * b + 4
                store.put_block(
                    0, b, ptr[lo : hi + 1] - ptr[lo], nodes[ptr[lo] : ptr[hi]]
                )
            assert store.resident_bytes == store._touch_bytes + (
                8 * 2 + nodes.size * 4
            )
            store.finalize()
            built.append(self._check(store, expected))
        assert built[0] == built[1]

    def test_refilled_blocks(self, mem_mrr, alt_mrr, tmp_path):
        last = -(-THETA // ROW_BLOCK) - 1
        refilled = _spliced(
            mem_mrr, THETA, ROW_BLOCK, {(1, 0): alt_mrr, (2, last): alt_mrr}
        )
        for j in (1, 2):  # the refill really changes both indexes
            assert not np.array_equal(
                refilled.index_arrays(j)[1], mem_mrr.index_arrays(j)[1]
            )

        def scenario(store):
            self._fill(store, mem_mrr, THETA)
            store.finalize()
            # refilled with different content (the changed graph's) ...
            store.invalidate_blocks([(1, 0), (2, last)])
            _put(store, alt_mrr, 1, 0)
            _put(store, alt_mrr, 2, last)
            store.finalize()
            self._check(store, refilled)
            # ... and back
            store.invalidate_blocks([(1, 0)])
            _put(store, mem_mrr, 1, 0)
            store.finalize()
            return self._check(
                store,
                _spliced(mem_mrr, THETA, ROW_BLOCK, {(2, last): alt_mrr}),
            )

        self._run(mem_mrr, tmp_path, scenario)

    def test_theta_growth_drops_partial_last_block(
        self, mem_mrr, alt_mrr, tmp_path
    ):
        small = 500  # blocks 0-4 full, block 5 holds samples 480-499

        def scenario(store):
            store.begin(mem_mrr.n, 3, small, ROW_BLOCK)
            last = store.num_blocks - 1
            for j in range(3):
                for b in range(store.num_blocks):
                    _put(store, alt_mrr if b == last else mem_mrr, j, b)
            store.finalize()
            self._check(
                store,
                _spliced(
                    mem_mrr, small, ROW_BLOCK,
                    {(j, last): alt_mrr for j in range(3)},
                ),
            )
            store.retarget(THETA)
            assert not any(store.has_block(j, last) for j in range(3))
            for j in range(3):
                for b in range(last, store.num_blocks):
                    _put(store, mem_mrr, j, b)
            store.finalize()
            return self._check(store, _spliced(mem_mrr, THETA, ROW_BLOCK, {}))

        self._run(mem_mrr, tmp_path, scenario)

    def test_resume_after_deleted_shard(self, mem_mrr, alt_mrr, tmp_path):
        def scenario(store):
            self._fill(store, mem_mrr, THETA)
            store.finalize()
            _deface_manifest(store.shard_dir)
            os.remove(store._block_path(2, 0))
            store.begin(mem_mrr.n, 3, THETA, ROW_BLOCK)
            assert not store.has_block(2, 0)
            # the hole is filled by another writer, with other content:
            # the row this store kept for the deleted file must be gone
            worker = ShardStore(store.shard_dir, shared_writer=True)
            worker.begin(mem_mrr.n, 3, THETA, ROW_BLOCK)
            _put(worker, alt_mrr, 2, 0)
            store.finalize()
            return self._check(
                store, _spliced(mem_mrr, THETA, ROW_BLOCK, {(2, 0): alt_mrr})
            )

        self._run(mem_mrr, tmp_path, scenario)

    def test_foreign_commit_rows_come_from_disk(
        self, mem_mrr, alt_mrr, tmp_path, monkeypatch
    ):
        loads = _count_npz_loads(monkeypatch)

        def scenario(store):
            self._fill(store, mem_mrr, THETA)
            store.finalize()
            last = store.num_blocks - 1
            store.invalidate_blocks([(1, 0), (2, last)])
            worker = ShardStore(store.shard_dir, shared_writer=True)
            worker.begin(mem_mrr.n, 3, THETA, ROW_BLOCK)
            _put(worker, alt_mrr, 1, 0)
            _put(worker, alt_mrr, 2, last)
            assert not worker._rows  # a shared writer keeps none
            loads.clear()
            store.finalize()
            foreign = [store._block_path(1, 0), store._block_path(2, last)]
            if store.max_resident_bytes == DEFAULT_MAX_RESIDENT_BYTES:
                assert sorted(loads) == foreign
            else:
                assert set(foreign) <= set(loads)
            return self._check(
                store,
                _spliced(
                    mem_mrr, THETA, ROW_BLOCK,
                    {(1, 0): alt_mrr, (2, last): alt_mrr},
                ),
            )

        self._run(mem_mrr, tmp_path, scenario)


class TestManifestWrites:
    def test_put_block_leaves_manifest_untouched(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        store = ShardStore(shard_dir)
        store.begin(10, 1, 8, 4)
        before = _manifest_stat(shard_dir)
        for block in range(2):
            store.put_block(
                0, block, np.arange(5, dtype=np.int64),
                np.arange(4, dtype=np.int64) + block,
            )
        assert _manifest_stat(shard_dir) == before
        with open(os.path.join(shard_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert "blocks" not in manifest and manifest["finalized"] is False
        store.finalize()
        assert _manifest_stat(shard_dir) != before
        with open(os.path.join(shard_dir, "manifest.json")) as fh:
            assert json.load(fh)["finalized"] is True

    def test_fill_dropped_before_finalize_resumes_identically(
        self, world, mem_mrr, tmp_path, monkeypatch
    ):
        graph, campaign = world
        clean_dir = str(tmp_path / "clean")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=clean_dir),
        )
        shard_dir = str(tmp_path / "shards")
        real = ShardStore.put_block
        commits = []

        def crash_after_five(self, piece, block, ptr, nodes):
            if len(commits) == 5:
                raise RuntimeError("writer died")
            commits.append((piece, block))
            return real(self, piece, block, ptr, nodes)

        # the fill commits in this process, where put_block is patched
        runtime = Runtime(store="disk", shard_dir=shard_dir, executor="thread")
        monkeypatch.setattr(ShardStore, "put_block", crash_after_five)
        with pytest.raises(RuntimeError, match="writer died"):
            MRRCollection.generate(
                graph, campaign, THETA, seed=21, runtime=runtime
            )
        with open(os.path.join(shard_dir, "manifest.json")) as fh:
            assert json.load(fh)["finalized"] is False
        resumed_commits = []

        def counting(self, piece, block, ptr, nodes):
            resumed_commits.append((piece, block))
            return real(self, piece, block, ptr, nodes)

        monkeypatch.setattr(ShardStore, "put_block", counting)
        resumed = MRRCollection.generate(
            graph, campaign, THETA, seed=21, runtime=runtime
        )
        # only the holes were sampled: the shard files alone recorded
        # which five blocks had committed
        assert not set(resumed_commits) & set(commits)
        assert len(resumed_commits) + 5 == 3 * resumed.store.num_blocks
        _assert_collections_equal(mem_mrr, resumed)
        for j in range(3):
            assert _index_bytes(shard_dir, j) == _index_bytes(clean_dir, j)


class TestTouchSummariesInRam:
    def test_later_queries_open_no_shard_file(
        self, world, tmp_path, monkeypatch
    ):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        # committed by this process's put_block, not by worker processes
        writer = MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(
                store="disk", shard_dir=shard_dir, executor="thread"
            ),
        ).store
        reopened = ShardStore.open(shard_dir)
        loads = _count_npz_loads(monkeypatch)
        queries = [np.array([v, v + 7]) for v in range(0, graph.n, 9)]

        def ask(store):
            return [
                store.blocks_touching(j, q) for j in range(3) for q in queries
            ]

        # the writer kept what put_block computed: no read at all
        want = ask(writer)
        assert loads == []
        # a reopened store reads each summary once, on its first query
        assert ask(reopened) == want
        assert len(loads) == 3 * reopened.num_blocks
        loads.clear()
        assert ask(reopened) == want
        assert loads == []
        touch_bytes = sum(
            reopened.block_touch(j, b).nbytes
            for j in range(3)
            for b in range(reopened.num_blocks)
        )
        assert reopened.resident_bytes == touch_bytes

    def test_refilled_block_never_serves_stale_summary(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        store = ShardStore(shard_dir)
        store.begin(50, 1, 8, 4)
        ptr = np.arange(5, dtype=np.int64)
        store.put_block(0, 0, ptr, np.array([1, 2, 1, 2]))
        store.put_block(0, 1, ptr, np.array([3, 4, 3, 4]))
        store.finalize()
        assert store.blocks_touching(0, [1]) == [0]
        assert store.blocks_touching(0, [7, 9]) == []

        # refilled by this store
        store.invalidate_blocks([(0, 0)])
        store.put_block(0, 0, ptr, np.array([7, 2, 7, 2]))
        store.finalize()
        assert store.blocks_touching(0, [1]) == []
        assert store.blocks_touching(0, [7]) == [0]

        # refilled by another writer (a distributed worker)
        store.invalidate_blocks([(0, 1)])
        worker = ShardStore(shard_dir, shared_writer=True)
        worker.begin(50, 1, 8, 4)
        worker.put_block(0, 1, ptr, np.array([9, 9, 9, 9]))
        store.finalize()
        assert store.blocks_touching(0, [3, 4]) == []
        assert store.blocks_touching(0, [9]) == [1]
        assert store.blocks_touching(0, [2, 9]) == [0, 1]

    def test_v1_directory_degrades_to_every_block(self, world, tmp_path):
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        MRRCollection.generate(
            graph, campaign, THETA, seed=21,
            runtime=Runtime(store="disk", shard_dir=shard_dir),
        )
        path = os.path.join(shard_dir, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        del manifest["version"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        store = ShardStore.open(shard_dir)
        assert not store.supports_touch
        every = list(range(store.num_blocks))
        assert store.blocks_touching(0, [graph.n - 1]) == every


# ----------------------------------------------------------------------
# copy-on-write counts + O(l) anchors (perf satellite)
# ----------------------------------------------------------------------


class TestCowCounts:
    def test_clone_isolation_both_directions(self):
        counts = CowCounts(8)
        counts.own()[2] = 3
        clone = counts.clone()
        assert clone.array is counts.array  # shared until a write
        clone.own()[2] = 7
        assert counts.array[2] == 3
        counts.own()[4] = 1
        assert clone.array[4] == 0

    def test_count_hist_tracks_bincount(self, mem_mrr):
        state = CoverageState(mem_mrr)
        rng = np.random.default_rng(5)
        for _ in range(6):
            state.add(int(rng.integers(0, mem_mrr.n)), int(rng.integers(0, 3)))
        state.add_many(np.asarray([3, 4, 5], dtype=np.int64), 1)
        clone = state.copy()
        clone.add(9, 2)
        for s in (state, clone):
            np.testing.assert_array_equal(
                s.count_hist,
                np.bincount(
                    s.counts.astype(np.int64), minlength=s.mrr.num_pieces + 1
                ),
            )

    def test_tau_construction_is_copy_free_until_add(self, mem_mrr):
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        table = MajorantTable(adoption, mem_mrr.num_pieces)
        base = CoverageState.from_plan(
            mem_mrr, AssignmentPlan([{1}, {4}, set()])
        )
        tau = TauState(mem_mrr, table, base, adoption)
        assert tau.counts is base.counts  # shared, no O(theta) copy yet
        anchors = table.values[base.counts, base.counts]
        assert tau.value == pytest.approx(
            mem_mrr.n / mem_mrr.theta * anchors.sum()
        )
        snapshot = base.counts.copy()
        tau.add(7, 0)
        assert tau.counts is not base.counts  # first write paid the copy
        np.testing.assert_array_equal(base.counts, snapshot)
