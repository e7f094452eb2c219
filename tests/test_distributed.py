"""Distributed sampling: work-leases, spawned workers, shared stores.

The ``executor="spawned"`` topology (``repro.sampling.dist``) and the
primitives underneath it:

* :class:`~repro.utils.locks.FileLease` — exclusivity, ttl expiry +
  steal, token-guarded release, keepalive;
* shared-writer :class:`ShardStore` semantics — out-of-order shard
  arrival, shards committed by foreign pids, duplicate completion as a
  benign no-op;
* the worker CLI (``python -m repro.sampling.worker``) end-to-end,
  including the hand-launched ``REPRO_DIST_LAUNCH=0`` topology;
* crash recovery — a worker SIGKILLed mid-run leaves an expirable
  lease whose task a peer re-claims, and the final collection is still
  bit-identical to the serial one;
* the artifact cache's cross-process producer flight and the bounded
  ``StoreBusyError`` retry;
* the segment LRU fronting ``ShardStore.gather_index``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.artifacts import ArtifactKey, DiskArtifactStore
from repro.exceptions import StoreBusyError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.sampling import dist
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import ShardStore, store_fingerprint
from repro.topics.distributions import Campaign
from repro.utils.locks import FileLease

THETA = 800
PIECES = 3


@pytest.fixture(scope="module")
def world():
    src, dst = preferential_attachment_digraph(80, 3, seed=11)
    graph = build_topic_graph(
        80, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=12
    )
    campaign = Campaign.sample_unit(PIECES, 4, seed=13)
    return graph, campaign


@pytest.fixture(scope="module")
def serial_mrr(world):
    graph, campaign = world
    return MRRCollection.generate(
        graph, campaign, THETA, seed=21, runtime=Runtime(workers=1)
    )


def _collection_digest(collection) -> str:
    h = hashlib.sha256()
    h.update(collection.roots.tobytes())
    for piece in range(collection.num_pieces):
        h.update(collection.rr_set_sizes(piece).tobytes())
        for sample in range(collection.theta):
            h.update(np.sort(collection.rr_set(piece, sample)).tobytes())
    return h.hexdigest()


def _assert_identical(a, b) -> None:
    np.testing.assert_array_equal(a.roots, b.roots)
    assert _collection_digest(a) == _collection_digest(b)


# ----------------------------------------------------------------------
# FileLease
# ----------------------------------------------------------------------


class TestFileLease:
    def test_exclusive_acquire(self, tmp_path):
        path = str(tmp_path / "a.lock")
        first = FileLease(path, ttl=30.0)
        second = FileLease(path, ttl=30.0)
        assert first.try_acquire()
        assert first.try_acquire()  # re-acquire is a no-op True
        assert not second.try_acquire()
        first.release()
        assert not os.path.exists(path)
        assert second.try_acquire()
        second.release()

    def test_expired_lease_is_stolen(self, tmp_path):
        path = str(tmp_path / "a.lock")
        holder = FileLease(path, ttl=0.05)
        assert holder.try_acquire()
        thief = FileLease(path, ttl=30.0)
        assert not thief.try_acquire()
        time.sleep(0.15)
        assert thief.try_acquire()
        # The original holder's release must not drop the thief's claim.
        holder.release()
        assert os.path.exists(path)
        thief.release()
        assert not os.path.exists(path)

    def test_refresh_keeps_lease_alive(self, tmp_path):
        path = str(tmp_path / "a.lock")
        holder = FileLease(path, ttl=0.3)
        assert holder.try_acquire()
        thief = FileLease(path, ttl=0.3)
        for _ in range(3):
            time.sleep(0.15)
            holder.refresh()
            assert not thief.try_acquire()
        holder.release()

    def test_keepalive_thread(self, tmp_path):
        path = str(tmp_path / "a.lock")
        holder = FileLease(path, ttl=0.3)
        assert holder.try_acquire()
        thief = FileLease(path, ttl=0.3)
        with holder.keepalive():
            time.sleep(0.6)  # well past the ttl: heartbeat must cover us
            assert not thief.try_acquire()
        assert not os.path.exists(path)  # context exit released

    def test_torn_record_is_reclaimed_by_age(self, tmp_path):
        path = str(tmp_path / "a.lock")
        with open(path, "wb") as fh:
            fh.write(b"not json{{{")
        lease = FileLease(path, ttl=0.5)
        # Fresh torn file: a create-then-write may be mid-flight — wait.
        assert not lease.try_acquire()
        # Stale torn file: crash debris — reclaim it.
        past = time.time() - 60.0
        os.utime(path, (past, past))
        assert lease.try_acquire()
        lease.release()
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# shared-writer ShardStore semantics
# ----------------------------------------------------------------------


def _begin_shared(shard_dir, n, theta, block, fingerprint):
    store = ShardStore(str(shard_dir), shared_writer=True)
    store.begin(n, 1, theta, block, fingerprint=fingerprint)
    return store


class TestSharedWriter:
    def test_out_of_order_and_foreign_pid_shards(self, tmp_path):
        """Blocks arriving in any order, from writers the coordinator's
        manifest never saw, finalize into one valid store."""
        fp = store_fingerprint(8, np.zeros(6, dtype=np.int64), ("rr",))
        coord = ShardStore(str(tmp_path))
        coord.begin(8, 1, 6, 2, fingerprint=fp)
        # A "foreign" shared writer commits blocks 2 and 0 (reverse
        # order) — the coordinator's in-memory completion set never
        # hears about them.
        foreign = _begin_shared(tmp_path, 8, 6, 2, fp)
        for b in (2, 0):
            ptr = np.array([0, 1, 2], dtype=np.int64)
            nodes = np.array([b, b + 1], dtype=np.int64)
            foreign.put_block(0, b, ptr, nodes)
        assert not coord.has_block(0, 0)
        assert coord.rescan() == 2
        assert coord.has_block(0, 0) and coord.has_block(0, 2)
        coord.put_block(
            0,
            1,
            np.array([0, 1, 2], dtype=np.int64),
            np.array([4, 5], dtype=np.int64),
        )
        coord.save_roots(np.arange(6, dtype=np.int64))
        coord.finalize()
        assert coord.finalized
        reopened = ShardStore.open(str(tmp_path))
        np.testing.assert_array_equal(
            reopened.rr_set(0, 4), np.array([2], dtype=np.int64)
        )

    def test_shared_writer_never_touches_manifest(self, tmp_path):
        fp = store_fingerprint(8, np.zeros(4, dtype=np.int64), ("rr",))
        coord = ShardStore(str(tmp_path))
        coord.begin(8, 1, 4, 2, fingerprint=fp)
        manifest = os.path.join(str(tmp_path), "manifest.json")
        before = os.stat(manifest).st_mtime_ns
        worker = _begin_shared(tmp_path, 8, 4, 2, fp)
        worker.put_block(
            0,
            0,
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
        )
        assert os.stat(manifest).st_mtime_ns == before

    def test_duplicate_completion_is_benign(self, tmp_path):
        """Two writers racing the same block: both commits succeed and
        the surviving bytes are the (identical) payload."""
        fp = store_fingerprint(8, np.zeros(4, dtype=np.int64), ("rr",))
        coord = ShardStore(str(tmp_path))
        coord.begin(8, 1, 4, 2, fingerprint=fp)
        ptr = np.array([0, 1, 2], dtype=np.int64)
        nodes = np.array([3, 4], dtype=np.int64)
        a = _begin_shared(tmp_path, 8, 4, 2, fp)
        b = _begin_shared(tmp_path, 8, 4, 2, fp)
        a.put_block(0, 0, ptr, nodes)
        # b has not rescanned: its has_block is stale, so its put really
        # re-commits the same file — the duplicate completion.
        b.put_block(0, 0, ptr, nodes)
        coord.put_block(0, 1, ptr, nodes)
        coord.save_roots(np.arange(4, dtype=np.int64))
        coord.finalize()
        reopened = ShardStore.open(str(tmp_path))
        np.testing.assert_array_equal(reopened.rr_set(0, 0), nodes[:1])


# ----------------------------------------------------------------------
# spawned end-to-end
# ----------------------------------------------------------------------


class TestSpawnedGenerate:
    def test_three_workers_bit_identical_to_serial(
        self, world, serial_mrr, tmp_path
    ):
        """The acceptance bar: a 3-process spawned generate lands on
        exactly the serial collection, and cleans its rendezvous."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        spawned = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(
                workers=3, executor="spawned", store="disk",
                shard_dir=shard_dir,
            ),
        )
        _assert_identical(serial_mrr, spawned)
        assert not os.path.exists(os.path.join(shard_dir, dist.DIST_DIR))

    def test_spawned_memory_target_degrades_to_thread_pool(
        self, world, serial_mrr
    ):
        """No shard dir to rendezvous on: spawned runs on the
        bit-identical thread pool."""
        graph, campaign = world
        got = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(workers=2, executor="spawned", store="memory"),
        )
        _assert_identical(serial_mrr, got)

    def test_hand_launched_workers(self, world, serial_mrr, tmp_path):
        """The REPRO_DIST_LAUNCH=0 topology: the coordinator launches
        nothing; two by-hand worker processes fill the store."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.sampling.worker",
                    "--shard-dir",
                    shard_dir,
                    "--wait",
                    "60",
                ],
                env=dist._worker_env(),
            )
            for _ in range(2)
        ]
        try:
            env_runtime = Runtime(
                workers=2, executor="spawned", store="disk",
                shard_dir=shard_dir,
            )
            os.environ["REPRO_DIST_LAUNCH"] = "0"
            try:
                import repro.runtime as runtime_mod

                old = runtime_mod.DEFAULT_DIST_LAUNCH
                runtime_mod.DEFAULT_DIST_LAUNCH = 0
                try:
                    got = MRRCollection.generate(
                        graph, campaign, THETA, seed=21, runtime=env_runtime
                    )
                finally:
                    runtime_mod.DEFAULT_DIST_LAUNCH = old
            finally:
                del os.environ["REPRO_DIST_LAUNCH"]
            _assert_identical(serial_mrr, got)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)
        # The workers saw completion and exited cleanly on their own or
        # were terminated after the collection was already complete.
        assert all(proc.returncode is not None for proc in procs)

    def test_worker_sigkill_mid_run_lease_reclaimed(
        self, world, serial_mrr, tmp_path
    ):
        """A worker killed -9 mid-task leaves a lease that expires; the
        remaining topology re-claims it and the result is identical."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        # Start a doomed worker by hand with a short ttl, let it claim
        # work, then SIGKILL it and run the normal spawned generate
        # against the same directory.
        doomed = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.sampling.worker",
                "--shard-dir",
                shard_dir,
                "--ttl",
                "1.0",
                "--wait",
                "60",
            ],
            env=dist._worker_env(),
        )
        try:
            got = MRRCollection.generate(
                graph,
                campaign,
                THETA,
                seed=21,
                runtime=Runtime(
                    workers=2, executor="spawned", store="disk",
                    shard_dir=shard_dir,
                ),
            )
        finally:
            if doomed.poll() is None:
                os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=30)
        _assert_identical(serial_mrr, got)

    def test_run_worker_inline_fills_store(self, world, serial_mrr, tmp_path):
        """run_worker drives a fill to completion in-process: the
        coordinator-side protocol (spec, leases, rescan) end-to-end
        without subprocess indirection."""
        graph, campaign = world
        shard_dir = str(tmp_path / "shards")
        from repro.diffusion.projection import project_campaign
        from repro.sampling.mrr import resolve_models
        from repro.sampling.parallel import keyed_roots, task_block_size

        piece_graphs = list(project_campaign(graph, campaign))
        models = resolve_models(None, campaign.num_pieces)
        roots = keyed_roots(21, graph.n, THETA, task_block_size(THETA))
        fp = store_fingerprint(graph.n, roots, models, entropy=21)
        store = ShardStore(shard_dir)
        store.begin(
            graph.n,
            len(piece_graphs),
            THETA,
            task_block_size(THETA),
            fingerprint=fp,
        )
        store.save_roots(roots)
        spec = dist.JobSpec(
            n=graph.n,
            theta=THETA,
            block_size=store.block_size,
            num_pieces=store.num_pieces,
            num_blocks=store.num_blocks,
            models=tuple(models),
            backend=None,
            entropy=21,
            fingerprint=fp,
            piece_graphs=piece_graphs,
        )
        dist.write_job_spec(shard_dir, spec)
        done = dist.run_worker(shard_dir, spec_wait=5.0)
        assert done == store.num_pieces * store.num_blocks
        store.rescan()
        store.finalize()
        got = MRRCollection.from_store(ShardStore.open(shard_dir))
        # The seed is the entropy: workers keyed by it reproduce the
        # inline collection of the same seed.
        _assert_identical(serial_mrr, got)


# ----------------------------------------------------------------------
# producer flight + busy retry
# ----------------------------------------------------------------------


def _flight_worker(root: str, worker: int) -> str:
    """Race N processes through one cacheable generate; report action."""
    from repro.api import Session

    session = Session.from_dataset(
        "lastfm",
        scale=0.08,
        pieces=2,
        k=2,
        seed=1,
        runtime=Runtime(artifacts=root),
    )
    session.sample(theta=400)
    events = [
        (e.stage, e.action)
        for e in session.stage_trace.events
        if e.stage == "sample"
    ]
    return events[0][1]


class TestProducerFlight:
    def test_disk_flight_single_producer(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskArtifactStore(root)
        key = ArtifactKey(
            graph="g" * 64, campaign="c" * 64, runtime="rt",
            stage="sample", extra=("q=1",),
        )
        first = store.producer_flight(key)
        second = store.producer_flight(key)
        assert first.claim()
        assert not second.claim()
        # Producer commits, then releases: the waiter gets the object.
        store.put(key, {"ok": 1}, {"x": np.arange(3, dtype=np.int64)})
        first.release()
        hit = second.wait(lambda: store.get(key), timeout=5.0)
        assert hit is not None and hit.meta["ok"] == 1
        second.release()

    def test_waiter_inherits_dead_producers_flight(self, tmp_path):
        root = str(tmp_path / "store")
        store = DiskArtifactStore(root)
        key = ArtifactKey(
            graph="g" * 64, campaign="c" * 64, runtime="rt",
            stage="sample", extra=("q=2",),
        )
        dead = store.producer_flight(key)
        assert dead.claim()
        # Simulate producer death: stop the keepalive without releasing
        # and age the lease past its ttl.
        dead._lease._stop_keepalive()
        dead._lease.ttl = 0.05
        dead._lease.refresh()
        time.sleep(0.15)
        waiter = store.producer_flight(key)
        assert not waiter.claim() or True  # may steal immediately
        got = waiter.wait(lambda: store.get(key), timeout=5.0, poll=0.02)
        assert got is None  # inherited the flight, nothing committed
        waiter.release()

    def test_stampede_elects_one_producer(self, tmp_path):
        """N processes cold-starting one key: every result is identical
        and the store records exactly one sample put."""
        root = str(tmp_path / "artifacts")
        with ProcessPoolExecutor(max_workers=3) as pool:
            actions = list(
                pool.map(_flight_worker, [root] * 3, range(3))
            )
        assert sorted(actions).count("run") >= 1
        # All processes converged on one committed object.
        store = DiskArtifactStore(root)
        stats = store.stats()
        assert stats["puts"] == 1, stats


class TestBusyRetry:
    def test_busy_hit_retries_then_succeeds(self, world, tmp_path, monkeypatch):
        """A transiently-busy cached shard dir is retried, not abandoned."""
        calls = {"n": 0}
        original = MRRCollection._from_artifact.__func__

        def flaky(cls, hit, rt, store_obj):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StoreBusyError("mid-commit")
            return original(cls, hit, rt, store_obj)

        graph, campaign = world
        root = str(tmp_path / "artifacts")
        runtime = Runtime(artifacts=root)
        first = MRRCollection.generate(
            graph, campaign, 200, seed=5, runtime=runtime
        )
        monkeypatch.setattr(
            MRRCollection, "_from_artifact", classmethod(flaky)
        )
        again = MRRCollection.generate(
            graph, campaign, 200, seed=5, runtime=runtime
        )
        assert calls["n"] == 2  # one busy failure + one successful retry
        _assert_identical(first, again)

    def test_busy_every_time_falls_back_to_private_generation(
        self, world, tmp_path, monkeypatch
    ):
        graph, campaign = world
        root = str(tmp_path / "artifacts")
        runtime = Runtime(artifacts=root)
        first = MRRCollection.generate(
            graph, campaign, 200, seed=5, runtime=runtime
        )
        calls = {"n": 0}

        def always_busy(cls, hit, rt, store_obj):
            calls["n"] += 1
            raise StoreBusyError("still busy")

        monkeypatch.setattr(
            MRRCollection, "_from_artifact", classmethod(always_busy)
        )
        monkeypatch.setattr(MRRCollection, "_BUSY_BACKOFF", 0.001)
        again = MRRCollection.generate(
            graph, campaign, 200, seed=5, runtime=runtime
        )
        assert calls["n"] == MRRCollection._BUSY_RETRIES
        _assert_identical(first, again)


# ----------------------------------------------------------------------
# segment LRU
# ----------------------------------------------------------------------


class TestSegmentLRU:
    @pytest.fixture()
    def disk(self, world, tmp_path):
        graph, campaign = world
        return MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "s")),
        )

    def test_repeat_gather_hits_and_identical_output(self, disk):
        store = disk.store
        pool = np.arange(0, disk.n, 7, dtype=np.int64)[:32]
        cold, cold_deg = store.gather_index(0, pool)
        stats = store.stats()
        assert stats["index_cache_hits"] == 0
        assert stats["index_cache_misses"] > 0
        warm, warm_deg = store.gather_index(0, pool)
        np.testing.assert_array_equal(cold, warm)
        np.testing.assert_array_equal(cold_deg, warm_deg)
        stats = store.stats()
        assert stats["index_cache_hits"] > 0

    def test_cache_bytes_stay_bounded(self, disk):
        store = disk.store
        store._seg_budget = 2048
        rng = np.random.default_rng(5)
        for _ in range(20):
            pool = np.sort(
                rng.choice(disk.n, size=16, replace=False)
            ).astype(np.int64)
            store.gather_index(0, pool)
            assert store.stats()["index_cache_bytes"] <= 2048

    def test_zero_budget_disables_cache(self, world, tmp_path):
        graph, campaign = world
        collection = MRRCollection.generate(
            graph,
            campaign,
            THETA,
            seed=21,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "s")),
        )
        store = ShardStore.open(
            collection.store.shard_dir, index_cache_bytes=0
        )
        pool = np.arange(0, graph.n, 9, dtype=np.int64)[:16]
        store.gather_index(0, pool)
        store.gather_index(0, pool)
        stats = store.stats()
        assert stats["index_cache_hits"] == 0
        assert stats["index_cache_entries"] == 0

    def test_large_pools_bypass_cache(self, disk):
        store = disk.store
        before = store.stats()["index_cache_misses"]
        pool = np.arange(disk.n, dtype=np.int64)
        store.gather_index(0, pool)
        assert store.stats()["index_cache_misses"] == before
