"""The batched sampling engine: backend equivalence and validation bugs.

Three groups of guarantees:

* **Exact stream equality** where draw order is preserved — the batch
  forward cascade and a single-root-block RR sampler consume the rng
  stream bit-for-bit like the reference Python loops, so outputs must be
  identical, not just statistically close (property-tested over random
  instances).
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
from repro.sampling.batch import (
    BACKENDS,
    DEFAULT_BACKEND,
    BatchLTSampler,
    BatchRRSampler,
    check_backend,
    simulate_cascade_batch,
)
from repro.sampling.mrr import MRRCollection
from repro.sampling.parallel import make_pool
from repro.runtime import Runtime
from repro.sampling.rr import ReverseReachableSampler
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
        ref = ReverseReachableSampler(pg, backend="python")
        ref_ptr, ref_nodes = ref.sample_many(roots, as_generator(3))
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
        ref = simulate_cascade(pg, seeds, as_generator(17), backend="python")
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
        p_ptr, _ = ReverseReachableSampler(pg, backend="python").sample_many(
            roots, as_generator(2)
        )
        b_ptr, _ = ReverseReachableSampler(pg, backend="batch").sample_many(
            roots, as_generator(3)
        )
        p_mean = float(np.diff(p_ptr).mean())
        b_mean = float(np.diff(b_ptr).mean())
        assert b_mean == pytest.approx(p_mean, rel=0.1)

    def test_au_estimates_agree_between_backends(self, world):
        """Matched theta: both backends estimate the same plan utility."""
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
        sim = simulate_adoption_utility(
            project_campaign(graph, campaign),
            plan,
            adoption,
            rounds=400,
            seed=9,
        )
        assert estimates["batch"] == pytest.approx(
            estimates["python"], rel=0.1
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
        pg = project([], 2)
        with pytest.raises(ParameterError):
            ReverseReachableSampler(pg, backend="numba")
        with pytest.raises(ParameterError):
            simulate_cascade(pg, [0], as_generator(0), backend="numba")

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
        pg = project([], 2)
        assert ReverseReachableSampler(pg).backend == expected

    def test_per_call_backend_override(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        sampler = ReverseReachableSampler(pg, backend="batch")
        ptr, nodes = sampler.sample_many(
            np.array([1]), as_generator(0), backend="python"
        )
        assert set(nodes[ptr[0] : ptr[1]].tolist()) == {0, 1}


class TestLegacyPythonPath:
    def test_csr_layout_preserved(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        sampler = ReverseReachableSampler(pg, backend="python")
        ptr, nodes = sampler.sample_many(np.array([0, 1, 1]), as_generator(0))
        assert ptr.shape == (4,)
        assert ptr[-1] == nodes.size
        assert nodes[ptr[0] : ptr[1]].tolist() == [0]
        assert set(nodes[ptr[1] : ptr[2]].tolist()) == {0, 1}

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
    """The per-thread stamp array is shared, grown and never re-zeroed:
    no sampler may see another's marks, in one thread or across threads."""

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
