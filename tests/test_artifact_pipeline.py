"""The staged pipeline and its artifact cache, end to end.

The acceptance contracts of the artifact-cache PR:

* a warm ``Session.run`` against an on-disk store performs **zero
  sampling** — asserted through the stage-execution trace, not wall
  clock;
* cold, warm, and legacy (cache-off) runs produce bit-identical seed
  sets and estimates;
* two solvers over one session share one sampled collection, and a
  second process-equivalent session reuses it from disk;
* ineligible configurations (explicit shard dirs, caller-owned store
  instances, unseeded draws, ``artifacts="off"``) bypass the cache and
  never corrupt it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.artifacts import MemoryArtifactStore, resolve_artifact_store
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import ConfigError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.pipeline import STAGES, PipelineTrace, StageEvent, stage
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import MemoryStore
from repro.topics.distributions import Campaign

THETA = 400


@pytest.fixture(scope="module")
def world():
    src, dst = preferential_attachment_digraph(70, 3, seed=31)
    graph = build_topic_graph(
        70, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=32
    )
    campaign = Campaign.sample_unit(3, 4, seed=33)
    return graph, campaign


def _session(world, *, artifacts, seed=5, **runtime_fields) -> Session:
    graph, campaign = world
    return Session(
        graph,
        campaign,
        AdoptionModel(alpha=2.0, beta=1.0),
        k=3,
        seed=seed,
        runtime=Runtime(artifacts=artifacts, **runtime_fields),
    )


# ----------------------------------------------------------------------
# stage vocabulary and trace
# ----------------------------------------------------------------------


class TestStagesAndTrace:
    def test_stage_dataflow_is_a_chain(self):
        assert STAGES == ("plan", "sample", "index", "solve", "evaluate")
        produced = set()
        for name in STAGES:
            s = stage(name)
            assert s.name == name
            for need in s.consumes:
                assert need in produced, f"{name} consumes unmade {need}"
            produced.add(s.produces)
        with pytest.raises(KeyError):
            stage("deploy")

    def test_trace_records_and_validates(self):
        trace = PipelineTrace()
        trace.record("sample", "run", "opt")
        trace.record("sample", "hit")
        assert trace.actions("sample") == ["run", "hit"]
        assert trace.ran("sample") and trace.sampled()
        assert list(trace) == [
            StageEvent("sample", "run", "opt"),
            StageEvent("sample", "hit"),
        ]
        with pytest.raises(KeyError):
            trace.record("deploy", "run")
        with pytest.raises(ValueError):
            trace.record("sample", "skipped")
        trace.clear()
        assert len(trace) == 0 and not trace.sampled()


# ----------------------------------------------------------------------
# the tentpole: warm runs perform zero sampling, bit-identically
# ----------------------------------------------------------------------


class TestWarmSessionRun:
    def test_warm_run_skips_sampling_and_matches_cold(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        legacy = _session(world, artifacts="off").run(
            "bab-p", theta=THETA, max_nodes=40
        )

        cold_session = _session(world, artifacts=cache)
        cold = cold_session.run("bab-p", theta=THETA, max_nodes=40)
        cold_trace = cold_session.stage_trace
        assert cold_trace.sampled()
        assert cold_trace.actions("solve") == ["run"]
        assert cold_trace.ran("evaluate")

        warm_session = _session(world, artifacts=cache)
        warm = warm_session.run("bab-p", theta=THETA, max_nodes=40)
        warm_trace = warm_session.stage_trace
        # zero sampling: the opt AND eval collections came from cache
        assert not warm_trace.sampled()
        assert warm_trace.actions("sample") == ["hit", "hit"]
        assert warm_trace.actions("index") == ["hit", "hit"]
        assert warm_trace.actions("solve") == ["hit"]
        # the evaluate reduction itself always executes
        assert warm_trace.actions("evaluate") == ["run"]

        # bit-identical across legacy / cold / warm
        for result in (cold, warm):
            assert result.plan.seed_sets == legacy.plan.seed_sets
            assert result.estimate == legacy.estimate
            assert result.evaluation == legacy.evaluation

    def test_warm_collections_bit_identical(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        a = _session(world, artifacts=cache)
        a.sample(THETA)
        b = _session(world, artifacts=cache)
        b.sample(THETA)
        assert not b.stage_trace.sampled()
        np.testing.assert_array_equal(a.mrr.roots, b.mrr.roots)
        for j in range(a.num_pieces):
            pairs = zip(a.mrr.store.rr_arrays(j), b.mrr.store.rr_arrays(j))
            for x, y in pairs:
                np.testing.assert_array_equal(x, y)
            pa, sa = a.mrr.index_arrays(j)
            pb, sb = b.mrr.index_arrays(j)
            np.testing.assert_array_equal(pa, pb)
            np.testing.assert_array_equal(sa, sb)

    def test_two_solvers_share_one_sample_artifact(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        session = _session(world, artifacts=cache)
        session.sample(THETA)
        first = session.solve("tim")
        second = session.solve("bab-p", max_nodes=40)
        assert session.stage_trace.actions("sample") == ["run"]
        store = resolve_artifact_store(cache)
        # one sample-stage put; both solvers consumed the same artifact
        sample_puts = [
            1
            for e in session.stage_trace
            if e.stage == "sample" and e.action == "run"
        ]
        assert len(sample_puts) == 1
        assert first.plan != second.plan or first.method != second.method
        assert store.stats()["puts"] >= 3  # sample + two solve products

    def test_theta_is_in_the_key(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        a = _session(world, artifacts=cache)
        a.sample(THETA)
        b = _session(world, artifacts=cache)
        b.sample(2 * THETA)  # different theta: a genuine re-sample
        assert b.stage_trace.sampled()
        assert b.mrr.theta == 2 * THETA

    def test_memory_store_spec_shares_in_process(self, world):
        # store="memory" is pinned: a MemoryArtifactStore cannot host
        # shard directories, so a REPRO_STORE=disk ambient default
        # would (correctly) make these sessions cache-ineligible.
        store = MemoryArtifactStore()
        a = _session(world, artifacts=store, store="memory")
        a.sample(THETA)
        b = _session(world, artifacts=store, store="memory")
        b.sample(THETA)
        assert not b.stage_trace.sampled()
        assert store.stats()["hits"] >= 1
        np.testing.assert_array_equal(a.mrr.roots, b.mrr.roots)


class TestDiskTargetCaching:
    def test_out_of_core_collection_cached_as_shards(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        a = _session(world, artifacts=cache, store="disk")
        a.sample(THETA)
        assert a.mrr.store.kind == "disk"
        b = _session(world, artifacts=cache, store="disk")
        b.sample(THETA)
        assert not b.stage_trace.sampled()
        assert b.stage_trace.actions("index") == ["hit"]
        assert b.mrr.store.kind == "disk"  # stayed out-of-core
        np.testing.assert_array_equal(a.mrr.roots, b.mrr.roots)

    def test_cross_format_disk_then_memory(self, world, tmp_path):
        """A shards artifact serves a later in-RAM session (and back)."""
        cache = str(tmp_path / "artifacts")
        disk = _session(world, artifacts=cache, store="disk")
        disk.sample(THETA)
        mem = _session(world, artifacts=cache, store="memory", workers=1)
        mem.sample(THETA)
        assert not mem.stage_trace.sampled()
        assert mem.mrr.store.kind == "memory"
        np.testing.assert_array_equal(disk.mrr.roots, mem.mrr.roots)
        for j in range(mem.num_pieces):
            pa, sa = disk.mrr.index_arrays(j)
            pb, sb = mem.mrr.index_arrays(j)
            np.testing.assert_array_equal(pa, pb)
            np.testing.assert_array_equal(sa, sb)

    def test_cross_format_memory_then_disk(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        mem = _session(world, artifacts=cache, store="memory", workers=1)
        mem.sample(THETA)
        disk = _session(world, artifacts=cache, store="disk")
        disk.sample(THETA)
        # arrays artifact streams into a fresh shard store: no sampling,
        # but the index stage re-runs over the streamed blocks
        assert not disk.stage_trace.sampled()
        assert disk.stage_trace.actions("index") == ["run"]
        assert disk.mrr.store.kind == "disk"
        np.testing.assert_array_equal(mem.mrr.roots, disk.mrr.roots)

    def test_every_worker_count_shares_one_artifact(self, world, tmp_path):
        """Inline and pooled draws are one stream: whichever runs first
        warms the entry every other worker count is served from, with
        identical samples.  (Knobs are pinned explicitly so the CI
        matrix env vars cannot flip them.)
        """
        cache = str(tmp_path / "artifacts")
        serial = _session(world, artifacts=cache, workers="serial")
        serial.sample(THETA)
        assert serial.stage_trace.sampled()
        for workers in (1, 2, None):
            again = _session(world, artifacts=cache, workers=workers)
            again.sample(THETA)
            assert not again.stage_trace.sampled()
            for j in range(serial.num_pieces):
                for x, y in zip(
                    serial.mrr.store.rr_arrays(j), again.mrr.store.rr_arrays(j)
                ):
                    np.testing.assert_array_equal(x, y)


# ----------------------------------------------------------------------
# eligibility: configurations that must bypass the cache
# ----------------------------------------------------------------------


class TestCacheEligibility:
    def _assert_samples_twice(self, make_session):
        a = make_session()
        a.sample(THETA)
        b = make_session()
        b.sample(THETA)
        assert b.stage_trace.sampled()

    def test_artifacts_off_bypasses(self, world):
        self._assert_samples_twice(lambda: _session(world, artifacts="off"))

    def test_explicit_shard_dir_bypasses(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        session = _session(
            world,
            artifacts=cache,
            store="disk",
            shard_dir=str(tmp_path / "mine"),
        )
        session.sample(THETA)
        again = _session(
            world,
            artifacts=cache,
            store="disk",
            shard_dir=str(tmp_path / "mine2"),
        )
        again.sample(THETA)
        assert again.stage_trace.sampled()

    def test_caller_owned_store_instance_bypasses(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        graph, campaign = world
        for _ in range(2):
            collection, events, key = MRRCollection.generate_traced(
                graph,
                campaign,
                THETA,
                runtime=Runtime(
                    artifacts=cache, seed=5, store=MemoryStore()
                ),
            )
            assert key is None
            assert ("sample", "run") in events

    def test_unseeded_session_bypasses(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        self._assert_samples_twice(
            lambda: _session(world, artifacts=cache, seed=None)
        )

    def test_generator_seed_bypasses(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        graph, campaign = world
        _, events, key = MRRCollection.generate_traced(
            graph,
            campaign,
            THETA,
            seed=np.random.default_rng(5),
            runtime=Runtime(artifacts=cache),
        )
        assert key is None
        assert ("sample", "run") in events

    def test_bool_seed_is_not_an_int_seed(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        graph, campaign = world
        with pytest.raises(ConfigError, match="seed"):
            MRRCollection.generate_traced(
                graph, campaign, THETA, seed=True,
                runtime=Runtime(artifacts=cache),
            )


# ----------------------------------------------------------------------
# solve-stage replay
# ----------------------------------------------------------------------


class TestSolveStageReplay:
    def test_solve_replays_without_solver_execution(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        a = _session(world, artifacts=cache)
        a.sample(THETA)
        cold = a.solve("bab-p", max_nodes=40)
        assert a.stage_trace.actions("solve") == ["run"]

        b = _session(world, artifacts=cache)
        b.sample(THETA)
        warm = b.solve("bab-p", max_nodes=40)
        assert b.stage_trace.actions("solve") == ["hit"]
        assert warm.plan.seed_sets == cold.plan.seed_sets
        assert warm.estimate == cold.estimate
        assert warm.diagnostics["termination"] == (
            cold.diagnostics["termination"]
        )

    def test_options_are_in_the_key(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        a = _session(world, artifacts=cache)
        a.sample(THETA)
        a.solve("bab-p", max_nodes=40)
        b = _session(world, artifacts=cache)
        b.sample(THETA)
        b.solve("bab-p", max_nodes=60)  # different options: a run
        assert b.stage_trace.actions("solve") == ["run"]

    def test_k_is_in_the_key(self, world, tmp_path):
        cache = str(tmp_path / "artifacts")
        graph, campaign = world
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        a = Session(
            graph, campaign, adoption, k=3, seed=5,
            runtime=Runtime(artifacts=cache),
        )
        a.sample(THETA)
        a.solve("tim")
        b = Session(
            graph, campaign, adoption, k=4, seed=5,
            runtime=Runtime(artifacts=cache),
        )
        b.sample(THETA)
        b.solve("tim")
        assert b.stage_trace.actions("solve") == ["run"]

    def test_custom_solver_not_cached(self, world, tmp_path):
        from repro.api import _SOLVERS, register_solver

        cache = str(tmp_path / "artifacts")
        calls = []

        def probe(session, **options):
            calls.append(1)
            from repro.core.plan import AssignmentPlan

            plan = AssignmentPlan.empty(session.num_pieces)
            return plan, 0.0, {"probed": True}

        register_solver("probe-solver", probe)
        try:
            for _ in range(2):
                s = _session(world, artifacts=cache)
                s.sample(THETA)
                s.solve("probe-solver")
        finally:
            _SOLVERS.pop("probe-solver", None)
        assert len(calls) == 2  # ran both times: not declared cacheable
