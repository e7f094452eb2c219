"""The compiled kernel tier: fallback and bit-identity.

``backend="native"`` is a *perf* tier, never a semantics tier: with
Numba absent it resolves to ``"batch"`` (one warning per process), and
with the kernels active every output — RR/LT CSR pairs, MRR index
digests, cache keys, shard fingerprints — is bit-identical to the
NumPy engine.  The kernels are importable without Numba (the ``njit``
shim runs them as plain Python loops), which is how this suite
exercises both sides of every dispatch on a machine with no compiler:
``repro.native.COMPILED`` is monkeypatched, exactly as the module
documents.

Also covered here: the block-geometry extras the sample stage reports
into the pipeline trace.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import Session, native
from repro.core.bitset import SampleBitset
from repro.core.coverage import coverage_gains
from repro.diffusion.projection import project_campaign
from repro.diffusion.threshold import (
    LinearThresholdSampler,
    normalize_lt_weights,
)
from repro.exceptions import ConfigError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.native import kernels as nk
from repro.runtime import Runtime, resolve_runtime
from repro.sampling.batch import (
    BatchLTSampler,
    BatchRRSampler,
    NativeLTSampler,
    NativeRRSampler,
    canonical_backend,
    check_backend,
)
from repro.sampling.mrr import MRRCollection
from repro.sampling.rr import ReverseReachableSampler
from repro.sampling.store import store_fingerprint
from repro.topics.distributions import Campaign
from repro.utils.frontier import segment_sums
from repro.utils.rng import as_generator


@pytest.fixture
def world():
    src, dst = preferential_attachment_digraph(120, 4, seed=21)
    graph = build_topic_graph(
        120, src, dst, 4, topics_per_edge=1.5, prob_mean=0.25, seed=22
    )
    campaign = Campaign.sample_unit(2, 4, seed=23)
    return graph, campaign


@pytest.fixture
def piece(world):
    graph, campaign = world
    return project_campaign(graph, campaign)[0]


@pytest.fixture
def force_compiled(monkeypatch):
    """Pretend the compiled tier is active (kernels run via the shim)."""
    monkeypatch.setattr(native, "COMPILED", True)


@pytest.fixture
def force_uncompiled(monkeypatch):
    monkeypatch.setattr(native, "COMPILED", False)
    native.reset_fallback_warning()
    yield
    native.reset_fallback_warning()


# ----------------------------------------------------------------------
# resolution and graceful fallback
# ----------------------------------------------------------------------


class TestBackendResolution:
    def test_native_is_a_valid_backend_name(self, force_compiled):
        assert check_backend("native") == "native"

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ConfigError):
            check_backend("numba")

    def test_fallback_resolves_to_batch(self, force_uncompiled):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert check_backend("native") == "batch"

    def test_fallback_warns_exactly_once_per_process(self, force_uncompiled):
        with pytest.warns(RuntimeWarning):
            check_backend("native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_backend("native") == "batch"
        native.reset_fallback_warning()
        with pytest.warns(RuntimeWarning):
            check_backend("native")

    def test_canonical_backend_folds_native_into_batch(self, force_compiled):
        assert canonical_backend("native") == "batch"
        assert canonical_backend("batch") == "batch"
        assert canonical_backend("python") == "python"

    def test_cache_key_identical_native_vs_batch(self, force_compiled):
        native_key = resolve_runtime(Runtime(backend="native")).cache_key()
        batch_key = resolve_runtime(Runtime(backend="batch")).cache_key()
        python_key = resolve_runtime(Runtime(backend="python")).cache_key()
        assert native_key == batch_key
        assert python_key != batch_key

    def test_cache_key_identical_even_without_numba(self, force_uncompiled):
        with pytest.warns(RuntimeWarning):
            native_key = resolve_runtime(
                Runtime(backend="native")
            ).cache_key()
        assert native_key == resolve_runtime(
            Runtime(backend="batch")
        ).cache_key()

    def test_store_fingerprint_identical_native_vs_batch(
        self, force_compiled
    ):
        roots = np.arange(10, dtype=np.int64)
        fp_native = store_fingerprint(50, roots, ("ic",), "native")
        fp_batch = store_fingerprint(50, roots, ("ic",), "batch")
        fp_python = store_fingerprint(50, roots, ("ic",), "python")
        assert fp_native == fp_batch
        assert fp_python != fp_batch

    def test_sampler_falls_back_without_numba(self, piece, force_uncompiled):
        with pytest.warns(RuntimeWarning):
            sampler = ReverseReachableSampler(piece, backend="native")
        assert sampler.backend == "batch"
        roots = as_generator(5).integers(0, piece.n, size=60)
        ptr, nodes = sampler.sample_many(roots, as_generator(9))
        ref = BatchRRSampler(piece)
        ref_ptr, ref_nodes = ref.sample_many(roots, as_generator(9))
        assert np.array_equal(ptr, ref_ptr)
        assert np.array_equal(nodes, ref_nodes)


# ----------------------------------------------------------------------
# engine bit-identity: native == batch, RR and LT
# ----------------------------------------------------------------------


class TestEngineBitIdentity:
    @pytest.mark.parametrize("block_size", [None, 1, 7, 64])
    def test_rr_native_equals_batch(self, piece, force_compiled, block_size):
        roots = as_generator(11).integers(0, piece.n, size=150)
        b_ptr, b_nodes = BatchRRSampler(
            piece, block_size=block_size
        ).sample_many(roots, as_generator(13))
        n_ptr, n_nodes = NativeRRSampler(
            piece, block_size=block_size
        ).sample_many(roots, as_generator(13))
        assert np.array_equal(b_ptr, n_ptr)
        assert np.array_equal(b_nodes, n_nodes)

    @pytest.mark.parametrize("block_size", [None, 1, 7, 64])
    def test_lt_native_equals_batch(self, piece, force_compiled, block_size):
        lt_pg = normalize_lt_weights(piece)
        roots = as_generator(11).integers(0, lt_pg.n, size=150)
        b_ptr, b_nodes = BatchLTSampler(
            lt_pg, block_size=block_size
        ).sample_many(roots, as_generator(13))
        n_ptr, n_nodes = NativeLTSampler(
            lt_pg, block_size=block_size
        ).sample_many(roots, as_generator(13))
        assert np.array_equal(b_ptr, n_ptr)
        assert np.array_equal(b_nodes, n_nodes)

    def test_sampler_facades_route_to_native_engine(
        self, piece, force_compiled
    ):
        rr = ReverseReachableSampler(piece, backend="native")
        roots = as_generator(5).integers(0, piece.n, size=80)
        rr.sample_many(roots, as_generator(7))
        assert NativeRRSampler in rr._batch
        lt = LinearThresholdSampler(
            normalize_lt_weights(piece), backend="native"
        )
        lt.sample_many(roots, as_generator(7))
        assert any(cls.__name__ == "NativeLTSampler" for cls in lt._batch)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_mrr_digests_identical(
        self, world, force_compiled, workers, store, tmp_path
    ):
        graph, campaign = world

        def digest(backend, subdir):
            kwargs = {}
            if store == "disk":
                kwargs["shard_dir"] = str(tmp_path / subdir)
            mrr = MRRCollection.generate(
                graph,
                campaign,
                400,
                seed=31,
                runtime=Runtime(
                    backend=backend,
                    workers=workers,
                    executor="thread",
                    store=store,
                    **kwargs,
                ),
            )
            return [
                tuple(a.tobytes() for a in mrr.index_arrays(j))
                + (mrr.rr_set_sizes(j).tobytes(),)
                for j in range(mrr.num_pieces)
            ]

        assert digest("native", "nat") == digest("batch", "bat")


# ----------------------------------------------------------------------
# kernel unit tests against their NumPy references
# ----------------------------------------------------------------------


class TestKernelsMatchNumpy:
    def test_popcount_words(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=257, dtype=np.int64).view(
            np.uint64
        )
        assert int(nk.popcount_words(words)) == int(
            np.bitwise_count(words).sum()
        )

    def test_scatter_by_root_matches_stable_sort(self):
        rng = np.random.default_rng(4)
        b, total = 9, 400
        found_r = rng.integers(0, b, size=total).astype(np.int64)
        found_v = rng.integers(0, 1000, size=total).astype(np.int64)
        sizes = np.zeros(b, dtype=np.int64)
        out = np.empty(total, dtype=np.int64)
        nk.scatter_by_root(found_v, found_r, b, sizes, out)
        order = np.argsort(found_r, kind="stable")
        assert np.array_equal(out, found_v[order])
        assert np.array_equal(sizes, np.bincount(found_r, minlength=b))

    def test_invert_index_matches_argsort_construction(self):
        rng = np.random.default_rng(5)
        theta, n = 60, 25
        deg = rng.integers(0, 6, size=theta)
        ptr = np.zeros(theta + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        nodes = rng.integers(0, n, size=int(ptr[-1])).astype(np.int64)
        idx_ptr = np.zeros(n + 1, dtype=np.int64)
        idx_samples = np.empty(nodes.size, dtype=np.int64)
        nk.invert_index(ptr, nodes, idx_ptr, idx_samples)
        sample_of = np.repeat(
            np.arange(theta, dtype=np.int64), np.diff(ptr)
        )
        order = np.argsort(nodes, kind="stable")
        assert np.array_equal(idx_samples, sample_of[order])
        assert np.array_equal(
            np.diff(idx_ptr), np.bincount(nodes, minlength=n)
        )

    def test_sort_pairs_by_vertex_is_stable(self):
        rng = np.random.default_rng(6)
        n, count = 30, 200
        v = rng.integers(0, n, size=count).astype(np.int64)
        s = rng.integers(0, 10_000, size=count).astype(np.int64)
        out_v = np.empty(count, dtype=np.int64)
        out_s = np.empty(count, dtype=np.int64)
        nk.sort_pairs_by_vertex(v, s, n, out_v, out_s)
        order = np.argsort(v, kind="stable")
        assert np.array_equal(out_v, v[order])
        assert np.array_equal(out_s, s[order])

    def test_uncovered_segment_counts_matches_mask_path(self):
        rng = np.random.default_rng(7)
        theta = 500
        covered = SampleBitset.from_bool(rng.random(theta) < 0.3)
        deg = rng.integers(0, 8, size=40)
        samples = rng.integers(0, theta, size=int(deg.sum())).astype(
            np.int64
        )
        gains = np.zeros(deg.size, dtype=np.int64)
        nk.uncovered_segment_counts(
            covered.words, samples, deg.astype(np.int64), gains
        )
        expected = segment_sums(~covered.test(samples), deg)
        assert np.array_equal(gains, expected)

    def test_coverage_gains_dispatch_identical(self, world, force_compiled):
        graph, campaign = world
        mrr = MRRCollection.generate(graph, campaign, 300, seed=41)
        pool = np.arange(graph.n, dtype=np.int64)
        covered = SampleBitset(mrr.theta)
        covered.set_many(mrr.samples_containing(0, 7))
        with_native = coverage_gains(mrr, 0, pool, covered)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "COMPILED", False)
            without = coverage_gains(mrr, 0, pool, covered)
        assert np.array_equal(with_native, without)


# ----------------------------------------------------------------------
# sample-stage trace extras
# ----------------------------------------------------------------------


class TestSampleStageTraceExtras:
    def test_sample_stage_records_block_geometry(self, world):
        graph, campaign = world
        # A *run* event is under test: an ambient REPRO_ARTIFACTS cache
        # would serve the sample as a hit that carries no geometry.
        session = Session(
            graph, campaign, k=3, seed=7, runtime=Runtime(artifacts="off")
        )
        session.sample(200)
        runs = [
            e
            for e in session.stage_trace
            if e.stage == "sample" and e.action == "run"
        ]
        assert runs
        extra = runs[0].extra
        assert extra["backend"] in ("python", "batch", "native")
        assert extra["entropy"] == 7  # an int seed is the entropy
        assert extra["task_block"] >= 1
        assert 1 <= extra["block_roots"] <= extra["task_block"]
        assert extra["block_n"] == graph.n

    def test_warm_run_hits_record_no_geometry(self, world, tmp_path):
        graph, campaign = world
        rt = Runtime(artifacts=str(tmp_path))
        first = Session(graph, campaign, k=3, seed=7, runtime=rt)
        first.sample(150)
        warm = Session(graph, campaign, k=3, seed=7, runtime=rt)
        warm.sample(150)
        hits = [
            e
            for e in warm.stage_trace
            if e.stage == "sample" and e.action == "hit"
        ]
        assert hits and hits[0].extra == {}
