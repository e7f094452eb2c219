"""The batched sampling engine: oracle equivalence and validation bugs.

Three groups of guarantees:

* **Exact stream equality** where draw order is preserved — the batch
  forward cascade and a single-root-block RR sampler consume the rng
  stream bit-for-bit like the reference Python loops of
  :mod:`repro.sampling.reference`, so outputs must be identical, not
  just statistically close (property-tested over random instances).
* **Distributional equivalence** for real (multi-root) blocks — matched
  sample counts must agree on mean RR-set size, membership
  probabilities, and AU estimates within Monte-Carlo tolerance.
* **Validation regressions** — mismatched-``n`` piece graphs raise
  instead of corrupting counts, and out-of-range vertices fail loudly
  in the coverage state.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageState
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.diffusion.simulate import simulate_adoption_utility, simulate_cascade
from repro.exceptions import ParameterError, SamplingError, SolverError
from repro.graph.digraph import TopicGraph
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.diffusion.threshold import normalize_lt_weights
from repro.sampling import batch as batch_mod
from repro.sampling.batch import (
    _MAX_BLOCK,
    _MAX_SCRATCH_CELLS,
    BACKENDS,
    DEFAULT_BACKEND,
    BatchLTSampler,
    BatchRRSampler,
    _BlockedSampler,
    _SortedKeySet,
    check_backend,
    simulate_cascade_batch,
)
from repro.sampling import parallel as parallel_mod
from repro.sampling.mrr import MRRCollection
from repro.sampling.parallel import make_pool
from repro.runtime import Runtime
from repro.sampling import reference
from repro.topics.distributions import Campaign, unit_piece
from repro.utils.frontier import (
    Int64Buffer,
    first_occurrence,
    stable_key_order,
)
from repro.utils.rng import as_generator

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

world_params = st.fixed_dictionaries(
    {
        "n": st.integers(10, 80),
        "edges_per_vertex": st.integers(1, 4),
        "prob_mean": st.sampled_from([0.05, 0.2, 0.5]),
        "seed": st.integers(0, 10_000),
    }
)


def build_piece_graph(params) -> PieceGraph:
    src, dst = preferential_attachment_digraph(
        params["n"], params["edges_per_vertex"], seed=params["seed"]
    )
    graph = build_topic_graph(
        params["n"],
        src,
        dst,
        3,
        topics_per_edge=1.5,
        prob_mean=params["prob_mean"],
        seed=params["seed"] + 1,
    )
    campaign = Campaign.sample_unit(1, 3, seed=params["seed"] + 2)
    return project_campaign(graph, campaign)[0]


def project(edges, n, topics=1, piece=0):
    g = TopicGraph.from_edges(n, topics, edges)
    return PieceGraph.project(g, unit_piece(piece, topics))


class TestExactStreamEquality:
    @given(params=world_params)
    @SETTINGS
    def test_single_root_blocks_match_reference_sampler(self, params):
        """block_size=1 preserves draw order: bitwise-equal CSR output."""
        pg = build_piece_graph(params)
        roots = as_generator(params["seed"]).integers(0, pg.n, size=40)
        ref_ptr, ref_nodes = reference.ic_rr_sets(pg, roots, as_generator(3))
        batch = BatchRRSampler(pg, block_size=1)
        ptr, nodes = batch.sample_many(roots, as_generator(3))
        assert np.array_equal(ref_ptr, ptr)
        assert np.array_equal(ref_nodes, nodes)

    @given(params=world_params)
    @SETTINGS
    def test_forward_cascade_matches_reference_loop(self, params):
        """The batch cascade kernel is bitwise-equal to the Python loop."""
        pg = build_piece_graph(params)
        seeds = as_generator(params["seed"]).integers(0, pg.n, size=3)
        ref = reference.ic_cascade(pg, seeds, as_generator(17))
        batch = simulate_cascade_batch(pg, seeds, as_generator(17))
        assert np.array_equal(ref, batch)
        default = simulate_cascade(pg, seeds, as_generator(17))
        assert np.array_equal(ref, default)

    @given(params=world_params)
    @SETTINGS
    def test_rr_sets_are_duplicate_free_with_root_first(self, params):
        pg = build_piece_graph(params)
        roots = as_generator(params["seed"] + 7).integers(0, pg.n, size=30)
        ptr, nodes = BatchRRSampler(pg).sample_many(roots, as_generator(5))
        assert ptr.shape == (roots.size + 1,)
        assert ptr[-1] == nodes.size
        for i, root in enumerate(roots):
            rr = nodes[ptr[i] : ptr[i + 1]]
            assert rr[0] == root
            assert len(set(rr.tolist())) == rr.size


class TestDeterministicStructure:
    def test_certain_chain_rr_is_ancestry(self):
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        sampler = BatchRRSampler(pg)
        ptr, nodes = sampler.sample_many(
            np.array([2, 1, 0]), as_generator(0)
        )
        assert set(nodes[ptr[0] : ptr[1]].tolist()) == {0, 1, 2}
        assert set(nodes[ptr[1] : ptr[2]].tolist()) == {0, 1}
        assert nodes[ptr[2] : ptr[3]].tolist() == [0]

    def test_dead_edges_rr_is_root_only(self):
        pg = project([(0, 1, {0: 0.0})], 2)
        assert BatchRRSampler(pg).sample(1, as_generator(0)).tolist() == [1]

    def test_root_range_checked(self):
        pg = project([], 2)
        with pytest.raises(SamplingError):
            BatchRRSampler(pg).sample_many(np.array([5]), as_generator(0))

    def test_empty_roots(self):
        pg = project([], 2)
        ptr, nodes = BatchRRSampler(pg).sample_many(
            np.array([], dtype=np.int64), as_generator(0)
        )
        assert ptr.tolist() == [0]
        assert nodes.size == 0

    def test_scratch_reuse_across_blocks(self):
        """Marks must not leak between blocks of the same sampler."""
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        sampler = BatchRRSampler(pg, block_size=2)
        rng = as_generator(0)
        ptr, nodes = sampler.sample_many(np.array([2, 2, 0]), rng)
        assert set(nodes[ptr[0] : ptr[1]].tolist()) == {0, 1, 2}
        assert set(nodes[ptr[1] : ptr[2]].tolist()) == {0, 1, 2}
        assert nodes[ptr[2] : ptr[3]].tolist() == [0]

    def test_invalid_block_size_rejected(self):
        pg = project([], 2)
        with pytest.raises(ParameterError):
            BatchRRSampler(pg, block_size=0)


class TestDistributionalEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        src, dst = preferential_attachment_digraph(120, 3, seed=31)
        graph = build_topic_graph(
            120, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=32
        )
        campaign = Campaign.sample_unit(3, 4, seed=33)
        return graph, campaign

    def test_membership_probability_matches_exact_value(self):
        """P(u in RR(x)) on the 3-vertex example: 0.2 + 0.8*0.7*0.5."""
        edges = [(0, 1, {0: 0.7}), (1, 2, {0: 0.5}), (0, 2, {0: 0.2})]
        pg = project(edges, 3)
        sampler = BatchRRSampler(pg)
        rng = as_generator(42)
        trials = 6000
        ptr, nodes = sampler.sample_many(
            np.full(trials, 2, dtype=np.int64), rng
        )
        hits = sum(
            0 in nodes[ptr[i] : ptr[i + 1]] for i in range(trials)
        )
        assert hits / trials == pytest.approx(0.48, abs=0.03)

    def test_mean_rr_size_agrees_between_backends(self, world):
        graph, campaign = world
        pg = project_campaign(graph, campaign)[0]
        roots = as_generator(1).integers(0, graph.n, size=3000)
        p_ptr, _ = reference.ic_rr_sets(pg, roots, as_generator(2))
        b_ptr, _ = BatchRRSampler(pg).sample_many(roots, as_generator(3))
        p_mean = float(np.diff(p_ptr).mean())
        b_mean = float(np.diff(b_ptr).mean())
        assert b_mean == pytest.approx(p_mean, rel=0.1)

    def test_au_estimates_agree_between_backends(self, world):
        """Matched theta: the engine and the reference loop estimate the
        same plan utility."""
        graph, campaign = world
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        plan = [[0, 5, 9], [1, 7], [2, 11, 20]]
        estimates = {}
        for backend in BACKENDS:
            mrr = MRRCollection.generate(
                graph, campaign, theta=4000, seed=8,
                runtime=Runtime(backend=backend),
            )
            estimates[backend] = mrr.estimate(plan, adoption)
        roots = mrr.roots
        rng = as_generator(10)
        csr = [
            reference.ic_rr_sets(pg, roots, rng)
            for pg in project_campaign(graph, campaign)
        ]
        estimates["reference"] = MRRCollection(
            graph.n, roots, [p for p, _ in csr], [v for _, v in csr]
        ).estimate(plan, adoption)
        sim = simulate_adoption_utility(
            project_campaign(graph, campaign),
            plan,
            adoption,
            rounds=400,
            seed=9,
        )
        assert estimates["native"] == estimates["batch"]
        assert estimates["batch"] == pytest.approx(
            estimates["reference"], rel=0.1
        )
        assert estimates["batch"] == pytest.approx(sim, rel=0.15)

    def test_same_seed_same_backend_is_deterministic(self, world):
        graph, campaign = world
        a = MRRCollection.generate(graph, campaign, theta=500, seed=4)
        b = MRRCollection.generate(graph, campaign, theta=500, seed=4)
        for j in range(campaign.num_pieces):
            assert np.array_equal(a.rr_set_sizes(j), b.rr_set_sizes(j))


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            check_backend("numba")
        with pytest.raises(ParameterError, match="batch"):
            check_backend("python")

    def test_default_backend_follows_env(self):
        """Default is batch, unless the REPRO_BACKEND CI matrix overrides."""
        import os

        from repro import native

        expected = os.environ.get("REPRO_BACKEND") or "batch"
        assert DEFAULT_BACKEND == expected
        # an env default of "native" resolves to "batch" when the
        # compiled tier is unavailable (the graceful-fallback contract)
        if expected == "native" and not native.compiled():
            expected = "batch"
        assert check_backend(None) == expected


class TestFrontierHelpers:
    def test_int64_buffer_growth(self):
        buf = Int64Buffer(1)
        chunks = [np.arange(k, dtype=np.int64) for k in (1, 5, 17, 63)]
        for c in chunks:
            buf.extend(c)
        expected = np.concatenate(chunks)
        assert len(buf) == expected.size
        assert np.array_equal(buf.to_array(), expected)
        # to_array transfers ownership and resets; the buffer is reusable
        assert len(buf) == 0
        buf.extend(np.array([42], dtype=np.int64))
        assert buf.to_array().tolist() == [42]

    def test_first_occurrence_keeps_first_occurrence_order(self):
        values = np.array([7, 3, 7, 1, 3, 9], dtype=np.int64)
        scratch = np.empty(10, dtype=np.int64)
        assert first_occurrence(values, scratch).tolist() == [7, 3, 1, 9]


def _sort_based_unique(values):
    """The sort-based dedup ``first_occurrence`` replaced."""
    uniq, first = np.unique(values, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


class TestSortFreePrimitives:
    @given(
        bound=st.sampled_from([1, 2**16, 2**16 + 1, 2**32, 2**32 + 1]),
        size=st.integers(0, 300),
        distinct=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @SETTINGS
    def test_stable_key_order_is_stable_argsort(
        self, bound, size, distinct, seed
    ):
        rng = as_generator(seed)
        # Few distinct keys (many duplicates), always including both
        # ends of [0, bound) so every digit pass is exercised.
        palette = np.unique(
            np.concatenate(
                [[0, bound - 1], rng.integers(0, bound, size=distinct)]
            )
        )
        keys = rng.choice(palette, size=size).astype(np.int64)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(stable_key_order(keys, bound), expected)

    def test_stable_key_order_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        for bound in (1, 2**16 + 1, 2**32 + 1):
            assert stable_key_order(empty, bound).size == 0

    @given(
        size=st.integers(0, 400),
        distinct=st.integers(1, 30),
        seed=st.integers(0, 10_000),
    )
    @SETTINGS
    def test_first_occurrence_matches_sort_based_dedup(
        self, size, distinct, seed
    ):
        rng = as_generator(seed)
        keys = rng.integers(0, distinct, size=size) * 7 + 3
        # A stamp-like scratch: stale positive stamps must not matter.
        scratch = rng.integers(1, 50, size=distinct * 7 + 3)
        out = first_occurrence(keys, scratch)
        assert np.array_equal(out, _sort_based_unique(keys))


def _interleaved_jobs():
    """Batch jobs over piece graphs of different n, mixed engines."""
    jobs = []
    for n, seed in [(60, 1), (25, 2), (90, 3), (40, 4)]:
        pg = build_piece_graph(
            {"n": n, "edges_per_vertex": 3, "prob_mean": 0.3, "seed": seed}
        )
        lt = normalize_lt_weights(pg)
        roots = as_generator(seed).integers(0, n, size=150)
        jobs.append((BatchRRSampler, pg, None, roots, seed))
        jobs.append((BatchLTSampler, lt, None, roots, seed))
        jobs.append((BatchRRSampler, pg, 1, roots[:20], seed))
    return jobs


def _run_job(job):
    cls, pg, block_size, roots, seed = job
    sampler = cls(pg, block_size=block_size)
    return sampler.sample_many(roots, as_generator(seed))


def _in_fresh_thread(job):
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(out=_run_job(job))
    )
    thread.start()
    thread.join()
    return result["out"]


class TestSharedStampScratch:
    """The per-thread stamp array is shared, grown and re-zeroed only
    when an int32 stamp wraps: no sampler may see another's marks, in
    one thread or across threads."""

    def _expected(self, jobs):
        return [_in_fresh_thread(job) for job in jobs]

    def test_interleaved_samplers_in_one_thread(self):
        jobs = _interleaved_jobs()
        expected = self._expected(jobs)
        # Twice through: the second pass reuses the grown scratch.
        for _ in range(2):
            for job, (ref_ptr, ref_nodes) in zip(jobs, expected):
                ptr, nodes = _run_job(job)
                assert np.array_equal(ptr, ref_ptr)
                assert np.array_equal(nodes, ref_nodes)

    def test_stamp_wraparound_rezeroes_the_scratch(self):
        """Near the int32 limit the next stamp re-zeroes the array, so
        no cell written under an earlier stamp can read as visited."""
        jobs = _interleaved_jobs()
        expected = self._expected(jobs)

        def near_the_limit():
            batch_mod._SCRATCH.stamp = batch_mod._STAMP_MAX - 2
            return [_run_job(job) for job in jobs]

        result = {}
        thread = threading.Thread(
            target=lambda: result.update(out=near_the_limit())
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        for (ptr, nodes), (ref_ptr, ref_nodes) in zip(result["out"], expected):
            assert np.array_equal(ptr, ref_ptr)
            assert np.array_equal(nodes, ref_nodes)

    def test_interleaved_samplers_on_a_thread_pool(self):
        jobs = _interleaved_jobs() * 3
        expected = self._expected(jobs)
        pool = make_pool(4)
        try:
            results = list(pool.map(_run_job, jobs))
        finally:
            pool.shutdown(wait=True)
        for (ptr, nodes), (ref_ptr, ref_nodes) in zip(results, expected):
            assert np.array_equal(ptr, ref_ptr)
            assert np.array_equal(nodes, ref_nodes)


class TestGroupDriver:
    """A group of keyed tasks returns, for every task, exactly what that
    task returns drawn alone — in both visited-set representations."""

    @staticmethod
    def _assert_group_matches_alone(cls, pg, block_size, tasks):
        alone = [
            cls(pg, block_size=block_size).sample_many(r, as_generator(s))
            for r, s in tasks
        ]
        for force_sorted in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if force_sorted:
                    mp.setattr(
                        _BlockedSampler,
                        "_visited",
                        lambda self, keys, cells: _SortedKeySet(keys),
                    )
                grouped = cls(pg, block_size=block_size).sample_group(
                    [(r, as_generator(s)) for r, s in tasks]
                )
            assert len(grouped) == len(alone)
            for (ptr, nodes), (ref_ptr, ref_nodes) in zip(grouped, alone):
                assert np.array_equal(ptr, ref_ptr)
                assert np.array_equal(nodes, ref_nodes)

    @given(
        params=world_params,
        sizes=st.lists(st.integers(0, 300), min_size=2, max_size=5),
        block_size=st.sampled_from([None, 1, 3, 64]),
        lt=st.booleans(),
    )
    @SETTINGS
    def test_group_matches_each_task_alone(
        self, params, sizes, block_size, lt
    ):
        pg = build_piece_graph(params)
        cls = BatchLTSampler if lt else BatchRRSampler
        if lt:
            pg = normalize_lt_weights(pg)
        gen = as_generator(params["seed"])
        tasks = [
            (gen.integers(0, pg.n, size=size), params["seed"] + i)
            for i, size in enumerate(sizes)
        ]
        self._assert_group_matches_alone(cls, pg, block_size, tasks)

    @pytest.mark.parametrize("cls", [BatchRRSampler, BatchLTSampler])
    @pytest.mark.parametrize("n", [60, 5000])
    def test_multi_block_tasks(self, cls, n):
        """Tasks past ``_MAX_BLOCK`` roots (n=60) or past the stamp
        ceiling's roots x n (n=5000) split into several kernel blocks;
        their phases interleave with single-block tasks."""
        pg = build_piece_graph(
            {"n": n, "edges_per_vertex": 3, "prob_mean": 0.2, "seed": 5}
        )
        if cls is BatchLTSampler:
            pg = normalize_lt_weights(pg)
        big = _MAX_BLOCK + 300 if n == 60 else _MAX_SCRATCH_CELLS // n + 50
        assert batch_mod.adaptive_block_size(n, big) < big
        gen = as_generator(9)
        tasks = [
            (gen.integers(0, n, size=size), 20 + i)
            for i, size in enumerate([big, 17, big // 2 + 1, 300])
        ]
        self._assert_group_matches_alone(cls, pg, None, tasks)

    def test_lt_running_sums_restart_per_task(self):
        """LT walks compare draws with per-task running sums: early tasks
        with hundreds of live walks must not shift a later task's
        rounding.  Every weight is 0.1 and every draw is exactly 0.1, so
        each choice hangs on the last ulp of ``cum - base``."""
        n = 50
        edges = [
            ((v + step) % n, v, {0: 0.1})
            for v in range(n)
            for step in (1, 7, 13)
        ]
        pg = project(edges, n)

        class Boundary:
            """A generator stub drawing 0.1 every time."""

            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, 0.1)
                out[...] = 0.1
                return out

        gen = as_generator(4)
        tasks = [
            gen.integers(0, n, size=size) for size in (600, 500, 7, 300)
        ]
        alone = [
            BatchLTSampler(pg).sample_many(roots, Boundary())
            for roots in tasks
        ]
        grouped = BatchLTSampler(pg).sample_group(
            [(roots, Boundary()) for roots in tasks]
        )
        for (ptr, nodes), (ref_ptr, ref_nodes) in zip(grouped, alone):
            assert np.array_equal(ptr, ref_ptr)
            assert np.array_equal(nodes, ref_nodes)
        # the early tasks take hundreds of walk steps
        assert all(alone[i][0][-1] - tasks[i].size > 300 for i in (0, 1))

    def test_grouped_generate_leaves_stamp_scratch_unallocated(
        self, monkeypatch
    ):
        """A generation whose groups exceed the stamp ceiling keeps its
        visited sets as sorted keys in every phase, narrow tail phases
        included: the thread's stamp array (up to 32 MB) is never
        allocated."""
        n, theta = 20_000, 16_000  # 32 tasks of 500 roots
        gen = as_generator(61)
        key = np.unique(gen.integers(0, n * n, size=2 * n))
        src, dst = key // n, key % n
        keep = src != dst
        src, dst = src[keep], dst[keep]
        graph = TopicGraph.from_arrays(
            n, 1, src, dst, np.arange(src.size + 1),
            np.zeros(src.size, dtype=np.int64), np.full(src.size, 0.3),
        )
        campaign = Campaign.sample_unit(2, 1, seed=63)
        block = batch_mod.adaptive_block_size(n, 500)  # 419: tails of 81
        # groups of three tasks: phase 0 (3 x 419 slots) is past the
        # ceiling, the tail phase (3 x 81 slots) would fit it
        monkeypatch.setattr(parallel_mod, "_GROUP_ROOTS", 1500)
        assert 3 * block * n > _MAX_SCRATCH_CELLS >= 3 * (500 - block) * n
        result = {}

        def run():
            MRRCollection.generate(
                graph,
                campaign,
                theta=theta,
                seed=64,
                runtime=Runtime(
                    backend="batch",
                    model="ic",
                    workers=0,
                    executor="thread",
                    store="memory",
                    artifacts="off",
                ),
            )
            result["cells"] = batch_mod._SCRATCH.mark.size

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["cells"] == 0


class TestValidationRegressions:
    def _mismatched_world(self):
        src, dst = preferential_attachment_digraph(30, 2, seed=51)
        graph = build_topic_graph(
            30, src, dst, 2, topics_per_edge=1.5, prob_mean=0.2, seed=52
        )
        campaign = Campaign.sample_unit(2, 2, seed=53)
        good = project_campaign(graph, campaign)
        small = project([(0, 1, {0: 0.5})], 10)
        return graph, campaign, good, small

    def test_adoption_utility_rejects_mismatched_piece_graphs(self):
        _, _, good, small = self._mismatched_world()
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        with pytest.raises(ParameterError, match="vertex set"):
            simulate_adoption_utility(
                [good[0], small], [[1], [2]], adoption, rounds=2, seed=0
            )

    def test_mrr_generate_rejects_mismatched_piece_graphs(self):
        graph, campaign, good, small = self._mismatched_world()
        with pytest.raises(SamplingError, match="vertex set"):
            MRRCollection.generate(
                graph,
                campaign,
                theta=50,
                seed=0,
                piece_graphs=[good[0], small],
            )

    def test_coverage_rejects_out_of_range_vertex(self, small_mrr):
        state = CoverageState(small_mrr)
        for bad in (-1, small_mrr.n, small_mrr.n + 100):
            with pytest.raises(SolverError, match="vertex"):
                state.add(bad, 0)
            with pytest.raises(SolverError, match="vertex"):
                state.newly_covered(bad, 0)

    def test_coverage_rejects_out_of_range_piece(self, small_mrr):
        state = CoverageState(small_mrr)
        with pytest.raises(SolverError, match="piece"):
            state.newly_covered(0, small_mrr.num_pieces)
