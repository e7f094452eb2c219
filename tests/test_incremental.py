"""The incremental subsystem: deltas, keyed sampling, warm re-solve.

The three contracts this suite pins:

1. **Append = cold.** Growing theta through ``Session.update`` appends
   keyed shards bit-identical to a cold ``Session.sample`` at the
   larger theta — across memory/disk stores and worker counts.
2. **Update = cold on the new graph.** After a delta, the updated
   collection (kept shards + regenerated holes) is bit-identical to a
   cold keyed generate on the post-delta graph, and only delta-touched
   shards were resampled (asserted via the ``IncrementalTrace`` and the
   kept shard files' identity on disk).
3. **Warm = cold solutions.** The warm-started ``celf-mrr`` re-solve
   (and the BAB incumbent warm start) select exactly the plan a cold
   solve on the same collection would.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pytest

from repro.api import Session, available_solvers
from repro.core.bab import solve_bab
from repro.exceptions import DeltaError, SolverError
from repro.graph.digraph import TopicGraph
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.incremental import (
    EdgeOp,
    GraphDelta,
    IncrementalTrace,
    apply_delta,
    piece_dirty_heads,
)
from repro.incremental.update import _hosted
from repro.incremental.warm import (
    WarmGains,
    celf_assign,
    prime_incumbent,
    staleness_bound,
)
from repro.runtime import Runtime
from repro.sampling.parallel import (
    keyed_block_roots,
    keyed_roots,
    keyed_task_seed,
)
from repro.sampling.store import ShardStore, store_fingerprint
from repro.topics.distributions import Campaign, unit_piece


def collection_digest(mrr) -> str:
    """Content digest over roots + every per-piece inverted index."""
    h = hashlib.sha256(np.ascontiguousarray(mrr.roots).tobytes())
    for j in range(mrr.num_pieces):
        ptr, nodes = mrr.index_arrays(j)
        h.update(np.ascontiguousarray(ptr).tobytes())
        h.update(np.ascontiguousarray(nodes).tobytes())
    return h.hexdigest()


def make_session(graph, campaign, *, runtime=None, k=4, seed=13) -> Session:
    return Session(graph, campaign, k=k, seed=seed, runtime=runtime)


@pytest.fixture()
def session(small_random_graph, small_campaign) -> Session:
    return make_session(small_random_graph, small_campaign)


# -- deltas ----------------------------------------------------------------


class TestGraphDelta:
    def test_payload_round_trip(self):
        delta = GraphDelta(
            (
                EdgeOp("add", 0, 5, topics={1: 0.4, 0: 0.2}),
                EdgeOp("remove", 2, 3),
                EdgeOp("reweight", 1, 4, topics={2: 0.9}),
            )
        )
        again = GraphDelta.from_payload(delta.to_payload())
        assert again == delta
        assert again.fingerprint() == delta.fingerprint()

    def test_compose_is_concatenation(self):
        a = GraphDelta((EdgeOp("remove", 0, 1),))
        b = GraphDelta((EdgeOp("add", 0, 1, topics={0: 0.5}),))
        assert a.compose(b).ops == a.ops + b.ops
        with pytest.raises(DeltaError, match="compose"):
            a.compose({"ops": []})

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(op="mutate", src=0, dst=1), "unknown edge op"),
            (dict(op="add", src=2, dst=2, topics={0: 0.5}), "self-loop"),
            (dict(op="remove", src=-1, dst=1), "negative"),
            (dict(op="remove", src=0, dst=1, topics={0: 0.5}), "remove"),
            (dict(op="add", src=0, dst=1), "needs a topic vector"),
            (dict(op="add", src=0, dst=1, topics={0: 1.5}), "outside"),
            (
                dict(op="add", src=0, dst=1, topics=[(0, 0.5), (0, 0.6)]),
                "duplicate topic",
            ),
        ],
    )
    def test_bad_ops_raise(self, kwargs, fragment):
        with pytest.raises(DeltaError, match=fragment):
            EdgeOp(**kwargs)

    def test_apply_matches_from_scratch_fingerprint(self):
        edges = [(0, 1, {0: 0.7}), (1, 2, {1: 0.5}), (2, 3, {0: 0.3})]
        graph = TopicGraph.from_edges(4, 2, edges)
        updated = apply_delta(graph, GraphDelta((EdgeOp("remove", 1, 2),)))
        scratch = TopicGraph.from_edges(4, 2, [edges[0], edges[2]])
        assert updated.fingerprint() == scratch.fingerprint()
        # zero-op delta returns the same graph object
        assert apply_delta(graph, GraphDelta(())) is graph

    def test_apply_validates_against_live_state(self):
        graph = TopicGraph.from_edges(3, 1, [(0, 1, {0: 0.5})])
        with pytest.raises(DeltaError, match="already exists"):
            apply_delta(graph, GraphDelta((EdgeOp("add", 0, 1, topics={0: 0.2}),)))
        with pytest.raises(DeltaError, match="does not exist"):
            apply_delta(graph, GraphDelta((EdgeOp("remove", 1, 0),)))
        with pytest.raises(DeltaError, match="outside vertex range"):
            apply_delta(graph, GraphDelta((EdgeOp("remove", 0, 7),)))
        # remove-then-add of one edge is a legal rewrite
        rewritten = apply_delta(
            graph,
            GraphDelta(
                (
                    EdgeOp("remove", 0, 1),
                    EdgeOp("add", 0, 1, topics={0: 0.9}),
                )
            ),
        )
        assert rewritten.has_edge(0, 1)

    def test_dirty_heads_structural_ops_dirty_every_piece(self):
        graph = TopicGraph.from_edges(
            4, 2, [(0, 1, {0: 1.0}), (1, 2, {0: 1.0})]
        )
        campaign = Campaign([unit_piece(0, 2), unit_piece(1, 2)])
        dirty = piece_dirty_heads(
            graph, campaign, GraphDelta((EdgeOp("remove", 1, 2),))
        )
        assert [d.tolist() for d in dirty] == [[2], [2]]

    def test_dirty_heads_reweight_filters_clean_pieces(self):
        # Edge (0, 1) carries both topics; the reweight changes only
        # topic 0's probability, so the unit piece on topic 1 projects
        # the same clipped probability and stays clean.
        graph = TopicGraph.from_edges(3, 2, [(0, 1, {0: 0.5, 1: 0.4})])
        campaign = Campaign([unit_piece(0, 2), unit_piece(1, 2)])
        delta = GraphDelta(
            (EdgeOp("reweight", 0, 1, topics={0: 0.9, 1: 0.4}),)
        )
        dirty = piece_dirty_heads(graph, campaign, delta)
        assert dirty[0].tolist() == [1]
        assert dirty[1].tolist() == []


# -- the keyed sampler -----------------------------------------------------


class TestKeyedSampler:
    def test_roots_are_prefix_consistent_across_theta(self):
        small = keyed_roots(99, 1000, 700, 256)
        large = keyed_roots(99, 1000, 1500, 256)
        assert np.array_equal(large[:700], small)

    def test_block_roots_depend_only_on_coordinates(self):
        a = keyed_block_roots(7, 100, 256, 3)
        b = keyed_block_roots(7, 100, 256, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, keyed_block_roots(7, 100, 256, 4))
        assert not np.array_equal(a, keyed_block_roots(8, 100, 256, 3))

    def test_task_seeds_distinct_per_coordinate(self):
        spawned = {
            tuple(keyed_task_seed(5, j, b).generate_state(2))
            for j in range(3)
            for b in range(4)
        }
        assert len(spawned) == 12

    def test_fingerprint_carries_entropy(self):
        roots = np.zeros(10, dtype=np.int64)
        base = store_fingerprint(100, roots, ["ic"])
        keyed = store_fingerprint(100, roots, ["ic"], entropy=42)
        assert keyed.startswith(base)
        assert keyed.endswith(":entropy=42")
        assert keyed != store_fingerprint(100, roots, ["ic"], entropy=43)

    def test_bad_theta_raises(self):
        from repro.exceptions import SamplingError

        with pytest.raises(SamplingError):
            keyed_roots(1, 10, 0, 256)


# -- theta growth by append ------------------------------------------------


STORE_MATRIX = [
    ("memory", 1),
    ("memory", 4),
    ("disk", 1),
    ("disk", 4),
]


class TestThetaAppend:
    @pytest.mark.parametrize("store, workers", STORE_MATRIX)
    def test_append_is_bit_identical_to_cold(
        self, small_random_graph, small_campaign, tmp_path, store, workers
    ):
        def runtime(tag):
            kwargs = {"workers": workers}
            if store == "disk":
                kwargs["store"] = "disk"
                kwargs["shard_dir"] = str(tmp_path / tag)
            else:
                kwargs["store"] = "memory"
            return Runtime(**kwargs)

        grown = make_session(
            small_random_graph, small_campaign, runtime=runtime("grow")
        )
        grown.sample(500)
        grown.solve("celf-mrr")
        update = grown.update(GraphDelta(()), theta=900)

        cold = make_session(
            small_random_graph, small_campaign, runtime=runtime("cold")
        )
        cold_mrr = cold.sample(900)

        assert collection_digest(grown.mrr) == collection_digest(cold_mrr)
        assert update.trace.theta_new == 900
        assert update.trace.shards_appended > 0
        assert update.trace.shards_invalidated == 0
        # the warm plan equals the cold solve on the grown collection
        cold_result = cold.solve("celf-mrr")
        assert update.plan == cold_result.plan
        assert update.estimate == pytest.approx(cold_result.estimate)

    def test_append_only_samples_new_and_tail_shards(
        self, small_random_graph, small_campaign
    ):
        session = make_session(small_random_graph, small_campaign)
        session.sample(512)  # exact multiple of block 256
        old_blocks = session.mrr.store.num_blocks
        pieces = session.num_pieces
        update = session.update(GraphDelta(()), theta=1024)
        assert update.trace.shards_invalidated == 0
        # no partial tail at 512, so resampled == appended exactly
        assert update.trace.shards_resampled == update.trace.shards_appended
        assert update.trace.shards_kept == pieces * old_blocks


    def test_roots_file_rewritten_only_when_roots_change(
        self, small_random_graph, small_campaign, tmp_path
    ):
        runtime = Runtime(store="disk", shard_dir=str(tmp_path / "shards"))
        session = make_session(small_random_graph, small_campaign, runtime=runtime)
        session.sample(500)

        def file_stamp():
            # the first update moves the directory off its sample name;
            # a rename keeps the file's inode and mtime
            st = os.stat(os.path.join(session.mrr.store.shard_dir, "roots.npy"))
            return st.st_ino, st.st_mtime_ns

        def keyed(theta):
            return keyed_roots(
                session._inc.entropy, session.graph.n, theta,
                session.mrr.store.block_size,
            )

        before = file_stamp()
        graph = session.graph
        head = int(np.argmax(session.mrr.vertex_frequencies(0)))
        src = next(
            u for u in range(graph.n)
            if u != head and not graph.has_edge(u, head)
        )
        update = session.update(
            GraphDelta((EdgeOp("add", src, head, topics={0: 0.5}),))
        )
        assert update.trace.shards_resampled > 0  # a real refill ran
        assert file_stamp() == before
        np.testing.assert_array_equal(
            session.mrr.store.load_roots(), keyed(500)
        )
        update = session.update(GraphDelta(()), theta=900)
        assert update.trace.shards_appended > 0
        assert file_stamp() != before
        np.testing.assert_array_equal(
            session.mrr.store.load_roots(), keyed(900)
        )


# -- delta invalidation ----------------------------------------------------


def low_frequency_add_delta(session) -> tuple[GraphDelta, set]:
    """An edge-add whose head is rare in the sampled RR sets.

    Picks the pool-external vertex with the lowest total index
    frequency, adds an edge onto it from the next vertex, and returns
    the delta together with the exactly-expected invalid (piece, block)
    pairs per the store's touch summaries.
    """
    mrr = session.mrr
    freq = sum(
        mrr.vertex_frequencies(j).astype(np.int64)
        for j in range(session.num_pieces)
    )
    # rarest vertex that actually occurs: a zero-frequency head would
    # (correctly) touch no shard at all, which tests nothing
    occurring = np.flatnonzero(freq > 0)
    head = int(occurring[np.argmin(freq[occurring])])
    src = (head + 1) % session.graph.n
    if session.graph.has_edge(src, head):
        src = (head + 2) % session.graph.n
    delta = GraphDelta((EdgeOp("add", src, head, topics={0: 0.5}),))
    dirty = piece_dirty_heads(session.graph, session.campaign, delta)
    expected = {
        (j, b)
        for j in range(session.num_pieces)
        for b in mrr.store.blocks_touching(j, dirty[j])
    }
    return delta, expected


class TestDeltaInvalidation:
    @pytest.fixture()
    def big_session(self, tmp_path):
        # Large sparse graph: a low-frequency head leaves most shards
        # untouched, so the update genuinely reuses work.
        src, dst = preferential_attachment_digraph(3000, 2, seed=31)
        graph = build_topic_graph(
            3000, src, dst, 3, topics_per_edge=1.5, prob_mean=0.1, seed=32
        )
        campaign = Campaign([unit_piece(z, 3) for z in range(2)])
        runtime = Runtime(
            store="disk", shard_dir=str(tmp_path / "shards"), workers=2
        )
        session = make_session(graph, campaign, runtime=runtime)
        session.sample(1024)
        return session

    def test_update_regenerates_exactly_touched_shards(self, big_session):
        session = big_session
        session.solve("celf-mrr")
        delta, expected = low_frequency_add_delta(session)
        assert expected, "delta must touch at least one shard"
        total = session.num_pieces * session.mrr.store.num_blocks
        assert len(expected) < total, "pick a rarer head for a real test"

        def shard_mtimes():
            # read where the store lives now: the update moves the
            # directory off its sample name (a rename keeps mtimes)
            shard_dir = session.mrr.store.shard_dir
            return {
                name: os.stat(os.path.join(shard_dir, name)).st_mtime_ns
                for name in os.listdir(shard_dir)
                if name.startswith("piece") and name.endswith(".npz")
            }

        before = shard_mtimes()
        update = session.update(delta)
        trace = update.trace
        assert isinstance(trace, IncrementalTrace)
        assert trace.shards_invalidated == len(expected)
        assert trace.shards_resampled == len(expected)
        assert trace.shards_kept == total - len(expected)
        assert 0 < trace.kept_fraction < 1

        # kept shard files were not rewritten
        invalid_names = {
            f"piece{j:03d}_block{b:05d}.npz" for j, b in expected
        }
        after = shard_mtimes()
        for name, mtime in before.items():
            if name not in invalid_names:
                assert after[name] == mtime, f"kept shard {name} rewritten"

        # and the result equals a cold keyed generate on the new graph
        # (session.graph is already the post-delta graph after update)
        cold = make_session(session.graph, session.campaign)
        cold_mrr = cold.sample(1024)
        assert collection_digest(session.mrr) == collection_digest(cold_mrr)
        cold_result = cold.solve("celf-mrr")
        assert update.plan == cold_result.plan

    def test_update_requires_a_lineage(self, session):
        # no sample yet: the error names the call that starts a lineage
        with pytest.raises(SolverError, match=r"session\.sample\(theta\)"):
            session.update(GraphDelta(()))

    def test_update_cannot_shrink_theta(self, session):
        session.sample(400)
        with pytest.raises(SolverError, match="shrink"):
            session.update(GraphDelta(()), theta=300)


# -- lineage start and directory -------------------------------------------


class TestLineageStart:
    """Every ``sample`` starts a lineage; an in-place update first moves
    a named shard directory off its ``sample`` name."""

    def test_update_after_solve_with_theta(
        self, session, small_random_graph, small_campaign
    ):
        session.solve("celf-mrr", theta=400)
        update = session.update(GraphDelta(()))
        cold = make_session(small_random_graph, small_campaign).sample(400)
        assert collection_digest(session.mrr) == collection_digest(cold)
        assert update.trace.shards_resampled == 0
        assert update.result.method == "celf-mrr"

    def test_rerun_into_one_shard_root(
        self, small_random_graph, small_campaign, tmp_path
    ):
        runtime = Runtime(store="disk", shard_dir=str(tmp_path / "shards"))
        delta = GraphDelta((EdgeOp("add", 57, 58, topics={0: 0.3}),))
        digests = []
        for _ in range(2):  # the same script, run twice into one root
            session = make_session(
                small_random_graph, small_campaign, runtime=runtime
            )
            session.sample(512)
            assert session.stage_trace.actions("sample") == ["run"]
            named = session.mrr.store.shard_dir
            session.solve("celf-mrr")
            session.update(delta)
            moved = session.mrr.store.shard_dir
            assert moved != named and not os.path.exists(named)
            assert os.path.dirname(moved) == os.path.dirname(named)
            session.update(GraphDelta(()), theta=900)
            assert session.mrr.store.shard_dir == moved  # moved once only
            digests.append(collection_digest(session.mrr))
        assert digests[0] == digests[1]

    def test_model_mix_never_reopens_another_lineage(
        self, small_random_graph, small_campaign, tmp_path
    ):
        root = str(tmp_path / "shards")
        dirs = []
        for model in ("ic", ("ic", "lt", "ic")):
            session = Session(
                small_random_graph, small_campaign, k=3,
                runtime=Runtime(
                    store="disk", shard_dir=root, model=model, seed=5
                ),
            )
            session.sample(120)
            assert session.stage_trace.actions("sample") == ["run"]
            dirs.append(session.mrr.store.shard_dir)
            session.update(GraphDelta(()))
        assert dirs[0] != dirs[1]


# -- artifact-hosted updates (copy-on-write) -------------------------------


class TestHostedUpdate:
    def test_cow_update_commits_under_the_new_cold_key(
        self, small_random_graph, small_campaign, tmp_path
    ):
        runtime = Runtime(store="disk", artifacts=str(tmp_path / "art"))
        session = make_session(
            small_random_graph, small_campaign, runtime=runtime
        )
        session.sample(500)
        assert _hosted(session.mrr, session._mrr_key)
        old_dir = session.mrr.store.shard_dir

        delta = GraphDelta((EdgeOp("add", 57, 58, topics={0: 0.3}),))
        session.solve("celf-mrr")
        session.update(delta, theta=800)
        new_dir = session.mrr.store.shard_dir
        assert new_dir != old_dir

        # the original cached artifact was never mutated
        old = ShardStore.open(old_dir)
        assert old.theta == 500
        old.close()

        # a fresh session cold-opening the post-delta graph at the new
        # theta is served wholesale from the COW commit
        fresh = make_session(
            apply_delta(small_random_graph, delta),
            small_campaign,
            runtime=runtime,
        )
        mrr = fresh.sample(800)
        assert fresh.stage_trace.actions("sample") == ["hit"]
        assert collection_digest(mrr) == collection_digest(session.mrr)


# -- warm-started solving --------------------------------------------------


class TestWarmSolve:
    def test_celf_mrr_is_registered(self):
        assert "celf-mrr" in available_solvers()

    def test_warm_celf_selects_the_cold_plan(self, session):
        session.sample(600)
        cold_plan, record, cold_diag = celf_assign(
            session.problem, session.mrr
        )
        warm_plan, _, warm_diag = celf_assign(
            session.problem, session.mrr, warm=record, margin=0.0
        )
        assert warm_plan == cold_plan
        assert warm_diag["warm"] is True
        # a fresh record on the same collection is exact: the warm caps
        # can only skip evaluations, never add them
        assert warm_diag["evaluations"] <= cold_diag["evaluations"]

    def test_warm_gains_validate_shapes(self, session):
        session.sample(400)
        pool = session.problem.pool
        with pytest.raises(SolverError, match="shape"):
            WarmGains(pool, np.zeros((2, pool.size + 1)))
        record = WarmGains(np.array([0, 1]), np.zeros((2, 2)))
        with pytest.raises(SolverError, match="different pool"):
            celf_assign(session.problem, session.mrr, warm=record)

    def test_staleness_bound_values(self):
        assert staleness_bound(100, 10, 10, 0, 0) == 0.0
        # pure in-place change: changed/new + changed/old
        assert staleness_bound(100, 10, 10, 1, 0) == pytest.approx(20.0)
        # pure growth: appended/new + rescaling of kept rows
        assert staleness_bound(100, 10, 20, 0, 10) == pytest.approx(100.0)
        with pytest.raises(SolverError, match="theta pair"):
            staleness_bound(100, 0, 10, 0, 0)
        with pytest.raises(SolverError, match="theta pair"):
            staleness_bound(100, 10, 5, 0, 0)

    def test_first_update_after_a_direct_solve_is_warm(
        self, small_random_graph, small_campaign
    ):
        """``Session.solve`` leaves the warm record, so the first update
        after a direct solve re-solves warm, not only the second."""
        session = make_session(
            small_random_graph,
            small_campaign,
            runtime=Runtime(artifacts="off"),  # a cache hit runs nothing
        )
        session.sample(2000)
        cold = session.solve("celf-mrr")
        assert cold.diagnostics["warm"] is False
        first = session.update(GraphDelta(()))
        second = session.update(GraphDelta(()))
        assert first.result.diagnostics["warm"] is True
        assert second.result.diagnostics["warm"] is True
        assert first.plan == cold.plan
        assert second.plan == cold.plan

    def test_update_reuses_the_previous_method(self, session):
        session.sample(400)
        session.solve("local-search")
        update = session.update(GraphDelta(()))
        assert update.result.method == "local-search"


class TestBabWarmStart:
    def test_incumbent_must_be_valid(self, small_problem, small_mrr):
        from repro.core.plan import AssignmentPlan

        bogus = AssignmentPlan([[1], [], []])  # 1 is not in the pool
        with pytest.raises(SolverError):
            solve_bab(small_problem, small_mrr, incumbent=bogus)

    def test_incumbent_does_not_change_the_answer(
        self, small_problem, small_mrr
    ):
        cold = solve_bab(small_problem, small_mrr)
        warm = solve_bab(small_problem, small_mrr, incumbent=cold.plan)
        assert warm.utility == pytest.approx(cold.utility)
        assert warm.plan == cold.plan

    def test_prime_incumbent_scores_the_plan(self, small_problem, small_mrr):
        cold = solve_bab(small_problem, small_mrr)
        lower = prime_incumbent(small_problem, small_mrr, cold.plan)
        assert lower == pytest.approx(cold.utility)


# -- service integration ---------------------------------------------------


BASE_SPEC = {
    "dataset": "lastfm",
    "scale": 0.08,
    "theta": 300,
    "k": 3,
    "pieces": 2,
    "method": "celf-mrr",
    "evaluate": False,
}


class TestServiceUpdates:
    def make_queue(self, tmp_path, **kwargs):
        from repro.service import JobQueue

        kwargs.setdefault("workers", 2)
        kwargs.setdefault("runtime", Runtime(artifacts=str(tmp_path / "art")))
        kwargs.setdefault("spool_dir", None)
        return JobQueue(**kwargs)

    @staticmethod
    def missing_edge():
        """A (src, dst) pair absent from the base spec's graph."""
        probe = Session.from_dataset(
            BASE_SPEC["dataset"],
            pieces=BASE_SPEC["pieces"],
            scale=BASE_SPEC["scale"],
            k=BASE_SPEC["k"],
            seed=BASE_SPEC.get("seed", 0),
        )
        graph = probe.graph
        dst = next(d for d in range(1, graph.n) if not graph.has_edge(0, d))
        return 0, dst

    def test_update_job_runs_the_incremental_path(self, tmp_path):
        from repro.exceptions import ConfigError

        src, dst = self.missing_edge()
        with self.make_queue(tmp_path) as queue:
            base = queue.submit(dict(BASE_SPEC))
            base = queue.wait(base.id, timeout=300)
            assert base.state == "done"
            delta = {"ops": [{"op": "add", "src": src, "dst": dst,
                              "topics": {"0": 0.4}}]}
            record = queue.submit_update(base.id, {"delta": delta})
            assert record.spec.update_of == base.id
            record = queue.wait(record.id, timeout=300)
            assert record.state == "done", record.error
            inc = record.result["incremental"]
            assert inc["theta_old"] == BASE_SPEC["theta"]
            assert inc["shards_invalidated"] > 0
            # chained update composes the deltas into one spec
            delta2 = {"ops": [{"op": "remove", "src": src, "dst": dst}]}
            chained = queue.submit_update(record.id, {"delta": delta2})
            assert len(chained.spec.delta["ops"]) == 2
            with pytest.raises(ConfigError, match="missing 'delta'"):
                queue.submit_update(base.id, {})
            with pytest.raises(ConfigError, match="unknown update field"):
                queue.submit_update(base.id, {"delta": delta, "theta": 1})
            with pytest.raises(KeyError):
                queue.submit_update("job-missing", {"delta": delta})
            chained = queue.wait(chained.id, timeout=300)
            assert chained.state == "done", chained.error

    def test_http_update_route(self, tmp_path):
        import json as jsonlib
        import threading
        import urllib.request

        from repro.service import create_server

        queue = self.make_queue(tmp_path)
        server = create_server(queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            req = urllib.request.Request(
                f"{server.url}/v1/jobs",
                data=jsonlib.dumps(BASE_SPEC).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as resp:
                base = jsonlib.loads(resp.read())
            queue.wait(base["id"], timeout=300)
            body = {"delta": {"ops": [{"op": "remove", "src": 0, "dst": 1}]}}
            req = urllib.request.Request(
                f"{server.url}/v1/jobs/{base['id']}/update",
                data=jsonlib.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 201
                record = jsonlib.loads(resp.read())
            assert record["spec"]["update_of"] == base["id"]
            assert record["spec"]["delta"] == body["delta"]
        finally:
            server.close()


class TestJobTTL:
    def make_record(self, job_id, state, finished_at):
        from repro.service import JobRecord, JobSpec

        record = JobRecord(id=job_id, spec=JobSpec.from_payload(BASE_SPEC))
        record.state = state
        if finished_at is not None:
            record.finished_at = finished_at
        return record

    def test_sweep_evicts_only_old_terminal_records(self, tmp_path):
        from repro.service import JobQueue, JobStore

        spool = str(tmp_path / "spool")
        queue = JobQueue(
            workers=1, runtime=Runtime(), spool_dir=spool, job_ttl=100.0
        )
        try:
            now = time.time()
            old_done = self.make_record("job-old", "done", now - 1000)
            fresh_done = self.make_record("job-new", "done", now - 1)
            running = self.make_record("job-run", "running", None)
            for record in (old_done, fresh_done, running):
                queue._records[record.id] = record
                queue.store.save(record)
            assert queue.sweep() == 1
            assert "job-old" not in queue._records
            assert "job-new" in queue._records
            assert "job-run" in queue._records
            # the spool file is gone too — a restart stays swept
            recovered = JobStore(spool).recover()
            assert "job-old" not in recovered
            assert queue.metrics()["jobs_evicted"] == 1
        finally:
            queue.close()

    def test_no_ttl_means_no_eviction(self, tmp_path):
        from repro.service import JobQueue

        queue = JobQueue(workers=1, runtime=Runtime(), spool_dir=None)
        try:
            record = self.make_record("job-x", "done", time.time() - 1e9)
            queue._records[record.id] = record
            assert queue.sweep() == 0
            assert "job-x" in queue._records
        finally:
            queue.close()

    def test_bad_ttl_rejected(self):
        from repro.exceptions import ConfigError
        from repro.service import JobQueue

        with pytest.raises(ConfigError, match="job_ttl"):
            JobQueue(workers=1, spool_dir=None, job_ttl=-5)
