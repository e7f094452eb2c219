"""The batched LT engine: cross-backend equivalence and model wiring.

Mirrors ``tests/test_batch_sampling.py`` for the Linear Threshold
substrate:

* **Exact stream equality** — a ``block_size=1`` :class:`BatchLTSampler`
  consumes the rng stream bit-for-bit like the reference
  single-predecessor walk, and the batched LT forward cascade draws the
  same thresholds and produces the same activation mask as the
  per-vertex loop (property-tested over random normalised instances).
* **Distributional equivalence** for real (multi-walk) blocks — matched
  sample counts must agree on the RR-set size histogram (chi-square
  homogeneity) and on membership probabilities with exact values.
* **Model wiring** — the ``model="ic"|"lt"`` knob on MRR generation,
  RIS selection, spread simulation, and the AU simulator (including
  per-piece heterogeneous model lists) routes through the LT engine,
  and the ``REPRO_BACKEND`` env override pins the CI backend matrix.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.diffusion.simulate import (
    simulate_adoption_utility,
    simulate_model_cascade,
    simulate_piece_spread,
)
from repro.diffusion.threshold import (
    LinearThresholdSampler,
    normalize_lt_weights,
    simulate_lt_cascade,
)
from repro.exceptions import ParameterError, SamplingError
from repro.graph.digraph import TopicGraph
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.ris import ris_influence_maximization
from repro.runtime import Runtime
from repro.sampling.batch import (
    BACKENDS,
    DEFAULT_MODEL,
    BatchLTSampler,
    check_model,
    simulate_lt_cascade_batch,
)
from repro.sampling.mrr import MRRCollection, resolve_models
from repro.topics.distributions import Campaign, unit_piece
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


def build_lt_piece_graph(params) -> PieceGraph:
    """A random piece graph with LT-feasible (normalised) weights."""
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
    return normalize_lt_weights(project_campaign(graph, campaign)[0])


def project(edges, n, topics=1, piece=0):
    g = TopicGraph.from_edges(n, topics, edges)
    return PieceGraph.project(g, unit_piece(piece, topics))


def chi2_critical(df: int, z: float = 3.09) -> float:
    """Wilson-Hilferty chi-square quantile at alpha ~= 0.001."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def chi2_homogeneity(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """Two-sample chi-square over integer-valued samples of equal count.

    Bins with fewer than 10 combined observations are merged into one
    tail bin so the asymptotic approximation holds.
    """
    assert a.size == b.size
    top = int(max(a.max(), b.max())) + 1
    ca = np.bincount(a, minlength=top).astype(np.float64)
    cb = np.bincount(b, minlength=top).astype(np.float64)
    big = (ca + cb) >= 10
    stat = float((((ca - cb) ** 2)[big] / (ca + cb)[big]).sum())
    bins = int(big.sum())
    ra, rb = ca[~big].sum(), cb[~big].sum()
    if ra + rb > 0:
        stat += (ra - rb) ** 2 / (ra + rb)
        bins += 1
    return stat, max(bins - 1, 1)


class TestExactStreamEquality:
    @given(params=world_params)
    @SETTINGS
    def test_single_walk_blocks_match_reference_sampler(self, params):
        """block_size=1 preserves draw order: bitwise-equal CSR output."""
        pg = build_lt_piece_graph(params)
        roots = as_generator(params["seed"]).integers(0, pg.n, size=40)
        ref = LinearThresholdSampler(pg, backend="python")
        ref_ptr, ref_nodes = ref.sample_many(roots, as_generator(3))
        batch = BatchLTSampler(pg, block_size=1)
        ptr, nodes = batch.sample_many(roots, as_generator(3))
        assert np.array_equal(ref_ptr, ptr)
        assert np.array_equal(ref_nodes, nodes)

    @given(params=world_params)
    @SETTINGS
    def test_lt_cascade_matches_reference_loop(self, params):
        """The batch LT kernel draws the same thresholds, same mask."""
        pg = build_lt_piece_graph(params)
        seeds = as_generator(params["seed"]).integers(0, pg.n, size=3)
        ref = simulate_lt_cascade(pg, seeds, as_generator(17), backend="python")
        batch = simulate_lt_cascade_batch(pg, seeds, as_generator(17))
        assert np.array_equal(ref, batch)
        default = simulate_lt_cascade(pg, seeds, as_generator(17))
        assert np.array_equal(ref, default)

    @given(params=world_params)
    @SETTINGS
    def test_walks_are_duplicate_free_with_root_first(self, params):
        pg = build_lt_piece_graph(params)
        roots = as_generator(params["seed"] + 7).integers(0, pg.n, size=30)
        ptr, nodes = BatchLTSampler(pg).sample_many(roots, as_generator(5))
        assert ptr.shape == (roots.size + 1,)
        assert ptr[-1] == nodes.size
        for i, root in enumerate(roots):
            rr = nodes[ptr[i] : ptr[i + 1]]
            assert rr[0] == root
            assert len(set(rr.tolist())) == rr.size


class TestDeterministicStructure:
    def test_certain_chain_walk_is_ancestry(self):
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        ptr, nodes = BatchLTSampler(pg).sample_many(
            np.array([2, 1, 0]), as_generator(0)
        )
        assert nodes[ptr[0] : ptr[1]].tolist() == [2, 1, 0]
        assert nodes[ptr[1] : ptr[2]].tolist() == [1, 0]
        assert nodes[ptr[2] : ptr[3]].tolist() == [0]

    def test_dead_edges_walk_is_root_only(self):
        pg = project([(0, 1, {0: 0.0})], 2)
        assert BatchLTSampler(pg).sample(1, as_generator(0)).tolist() == [1]

    def test_cycle_is_cut(self):
        pg = project(
            [(0, 1, {0: 1.0}), (1, 2, {0: 1.0}), (2, 0, {0: 1.0})], 3
        )
        rr = BatchLTSampler(pg).sample(0, as_generator(4))
        assert sorted(rr.tolist()) == [0, 1, 2]
        assert len(set(rr.tolist())) == rr.size

    def test_root_range_checked(self):
        pg = project([], 2)
        with pytest.raises(SamplingError):
            BatchLTSampler(pg).sample_many(np.array([5]), as_generator(0))

    def test_empty_roots(self):
        pg = project([], 2)
        ptr, nodes = BatchLTSampler(pg).sample_many(
            np.array([], dtype=np.int64), as_generator(0)
        )
        assert ptr.tolist() == [0]
        assert nodes.size == 0

    def test_scratch_reuse_across_blocks(self):
        """Marks must not leak between blocks of the same sampler."""
        pg = project([(0, 1, {0: 1.0}), (1, 2, {0: 1.0})], 3)
        sampler = BatchLTSampler(pg, block_size=2)
        ptr, nodes = sampler.sample_many(np.array([2, 2, 2]), as_generator(0))
        for i in range(3):
            assert nodes[ptr[i] : ptr[i + 1]].tolist() == [2, 1, 0]

    def test_invalid_block_size_rejected(self):
        pg = project([], 2)
        with pytest.raises(ParameterError):
            BatchLTSampler(pg, block_size=0)


class TestDistributionalEquivalence:
    @pytest.fixture(scope="class")
    def lt_world(self):
        src, dst = preferential_attachment_digraph(100, 3, seed=61)
        graph = build_topic_graph(
            100, src, dst, 4, topics_per_edge=2.0, prob_mean=0.3, seed=62
        )
        campaign = Campaign.sample_unit(2, 4, seed=63)
        pgs = [
            normalize_lt_weights(pg)
            for pg in project_campaign(graph, campaign)
        ]
        return graph, campaign, pgs

    def test_membership_probability_matches_exact_value(self):
        """P(0 in RR(2)) on a two-hop path is w(1,2)*w(0,1) = 0.3."""
        pg = project([(0, 1, {0: 0.6}), (1, 2, {0: 0.5})], 3)
        ptr, nodes = BatchLTSampler(pg).sample_many(
            np.full(6000, 2, dtype=np.int64), as_generator(42)
        )
        hits = sum(0 in nodes[ptr[i] : ptr[i + 1]] for i in range(6000))
        assert hits / 6000 == pytest.approx(0.3, abs=0.03)

    def test_size_distribution_chi_square(self, lt_world):
        """Batched blocks agree with the reference walk in distribution."""
        _, _, pgs = lt_world
        pg = pgs[0]
        roots = as_generator(1).integers(0, pg.n, size=4000)
        p_ptr, _ = LinearThresholdSampler(pg, backend="python").sample_many(
            roots, as_generator(2)
        )
        b_ptr, _ = BatchLTSampler(pg).sample_many(roots, as_generator(3))
        stat, df = chi2_homogeneity(np.diff(p_ptr), np.diff(b_ptr))
        assert stat < chi2_critical(df), (
            f"chi2 {stat:.1f} over critical {chi2_critical(df):.1f} (df={df})"
        )

    def test_mean_walk_length_agrees_between_backends(self, lt_world):
        _, _, pgs = lt_world
        roots = as_generator(4).integers(0, pgs[0].n, size=3000)
        sampler = LinearThresholdSampler(pgs[0])
        p_ptr, _ = sampler.sample_many(roots, as_generator(5), backend="python")
        b_ptr, _ = sampler.sample_many(roots, as_generator(6), backend="batch")
        assert float(np.diff(b_ptr).mean()) == pytest.approx(
            float(np.diff(p_ptr).mean()), rel=0.1
        )

    def test_lt_estimates_agree_with_simulation(self, lt_world):
        """MRR-on-LT estimate tracks the forward LT simulation (Lemma 2)."""
        graph, campaign, pgs = lt_world
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        plan = [[0, 5, 9], [1, 7, 12]]
        estimates = {}
        for backend in BACKENDS:
            mrr = MRRCollection.generate(
                graph,
                campaign,
                theta=4000,
                seed=8,
                piece_graphs=pgs,
                runtime=Runtime(backend=backend, model="lt"),
            )
            estimates[backend] = mrr.estimate(plan, adoption)
        sim = simulate_adoption_utility(
            pgs, plan, adoption, rounds=400, seed=9,
            runtime=Runtime(model="lt"),
        )
        assert estimates["batch"] == pytest.approx(
            estimates["python"], rel=0.1
        )
        assert estimates["batch"] == pytest.approx(sim, rel=0.15)


class TestModelWiring:
    def test_check_model(self):
        assert check_model(None) == DEFAULT_MODEL == "ic"
        assert check_model("lt") == "lt"
        with pytest.raises(ParameterError):
            check_model("sir")

    def test_resolve_models_scalar_and_sequence(self):
        assert resolve_models(None, 3) == ("ic", "ic", "ic")
        assert resolve_models("lt", 2) == ("lt", "lt")
        assert resolve_models(["ic", "lt"], 2) == ("ic", "lt")
        with pytest.raises(SamplingError):
            resolve_models(["ic"], 2)
        with pytest.raises(ParameterError):
            resolve_models(["ic", "sir"], 2)

    def test_simulate_model_cascade_dispatches(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        ic = simulate_model_cascade(pg, [0], as_generator(0), model="ic")
        lt = simulate_model_cascade(pg, [0], as_generator(0), model="lt")
        assert ic.tolist() == [True, True]
        assert lt.tolist() == [True, True]
        with pytest.raises(ParameterError):
            simulate_model_cascade(pg, [0], as_generator(0), model="sir")

    def test_piece_spread_lt_matches_exact_value(self):
        pg = project([(0, 1, {0: 0.4})], 2)
        spread = simulate_piece_spread(
            pg, [0], rounds=4000, seed=1, runtime=Runtime(model="lt")
        )
        assert spread == pytest.approx(1.4, abs=0.03)

    def test_ris_lt_selects_hub_on_star(self):
        edges = [(0, i, {0: 1.0}) for i in range(1, 6)]
        pg = project(edges, 6)
        seeds, spread = ris_influence_maximization(
            pg, 1, theta=500, seed=1, runtime=Runtime(model="lt")
        )
        assert seeds == [0]
        assert spread == pytest.approx(6.0, abs=0.5)

    def test_heterogeneous_models_per_piece(self):
        """A mixed IC/LT campaign samples each piece under its model."""
        src, dst = preferential_attachment_digraph(40, 2, seed=71)
        graph = build_topic_graph(
            40, src, dst, 2, topics_per_edge=1.5, prob_mean=0.3, seed=72
        )
        campaign = Campaign.sample_unit(2, 2, seed=73)
        pgs = [
            normalize_lt_weights(pg)
            for pg in project_campaign(graph, campaign)
        ]
        mrr = MRRCollection.generate(
            graph,
            campaign,
            theta=300,
            seed=74,
            piece_graphs=pgs,
            runtime=Runtime(model=["ic", "lt"]),
        )
        assert mrr.num_pieces == 2
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        est = mrr.estimate([[0, 3], [1]], adoption)
        sim = simulate_adoption_utility(
            pgs, [[0, 3], [1]], adoption, rounds=300, seed=75,
            runtime=Runtime(model=["ic", "lt"]),
        )
        assert est == pytest.approx(sim, rel=0.3)

    def test_adoption_utility_rejects_bad_model_spec(self):
        pg = project([(0, 1, {0: 0.5})], 2)
        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        with pytest.raises(ParameterError):
            simulate_adoption_utility(
                [pg, pg], [[0], [1]], adoption, rounds=2,
                runtime=Runtime(model=["ic"]),
            )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        pg = project([], 2)
        with pytest.raises(ParameterError):
            LinearThresholdSampler(pg, backend="numba")
        with pytest.raises(ParameterError):
            simulate_lt_cascade(pg, [0], as_generator(0), backend="numba")

    def test_per_call_backend_override(self):
        pg = project([(0, 1, {0: 1.0})], 2)
        sampler = LinearThresholdSampler(pg, backend="batch")
        assert sampler.backend == "batch"
        ptr, nodes = sampler.sample_many(
            np.array([1]), as_generator(0), backend="python"
        )
        assert nodes[ptr[0] : ptr[1]].tolist() == [1, 0]

    def test_repro_backend_env_sets_default(self):
        """The CI matrix knob: REPRO_BACKEND overrides the default."""
        code = (
            "import repro.sampling.batch as b; "
            "assert b.DEFAULT_BACKEND == 'python', b.DEFAULT_BACKEND"
        )
        env = dict(os.environ, REPRO_BACKEND="python")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_repro_backend_env_empty_means_default(self):
        """`REPRO_BACKEND= cmd` (the unset-for-one-command idiom) must
        fall back to the batch default instead of failing at import."""
        code = (
            "import repro.sampling.batch as b; "
            "assert b.DEFAULT_BACKEND == 'batch', b.DEFAULT_BACKEND"
        )
        env = dict(os.environ, REPRO_BACKEND="")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_repro_backend_env_rejects_unknown(self):
        env = dict(os.environ, REPRO_BACKEND="numba")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.sampling.batch"],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        assert proc.returncode != 0
        assert b"REPRO_BACKEND" in proc.stderr


class TestFeasibilityValidation:
    def test_samplers_reject_unnormalized_weights(self):
        """Excess incoming mass would silently inflate every RR-based
        estimate (the walk always finds a predecessor) — fail loudly."""
        pg = project([(0, 2, {0: 0.8}), (1, 2, {0: 0.8})], 3)
        with pytest.raises(ParameterError, match="normalise"):
            LinearThresholdSampler(pg)
        with pytest.raises(ParameterError, match="normalise"):
            BatchLTSampler(pg)
        with pytest.raises(ParameterError, match="normalise"):
            ris_influence_maximization(pg, 1, theta=10, seed=0,
            runtime=Runtime(model="lt")),
        norm = normalize_lt_weights(pg)
        assert LinearThresholdSampler(norm).sample(2, as_generator(0)).size
        assert BatchLTSampler(norm).sample(2, as_generator(0)).size


class TestFeasibilityCheckedOnce:
    """The O(m) LT feasibility check runs once per piece per generation,
    not once per (piece, block) task or twice per sampler."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import repro.sampling.batch as batch

        seen = []
        real = batch.check_lt_feasible

        def counting(piece_graph):
            seen.append(piece_graph)
            return real(piece_graph)

        monkeypatch.setattr(batch, "check_lt_feasible", counting)
        return seen

    @pytest.fixture()
    def lt_world(self):
        src, dst = preferential_attachment_digraph(40, 2, seed=71)
        graph = build_topic_graph(
            40, src, dst, 2, topics_per_edge=1.5, prob_mean=0.3, seed=72
        )
        campaign = Campaign.sample_unit(2, 2, seed=73)
        pgs = [
            normalize_lt_weights(pg)
            for pg in project_campaign(graph, campaign)
        ]
        return graph, campaign, pgs

    @pytest.mark.parametrize(
        "models, checks", [("lt", 2), (["ic", "lt"], 1)]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_block_generate(self, calls, lt_world, models, checks, workers):
        graph, campaign, pgs = lt_world
        mrr = MRRCollection.generate(
            graph, campaign, theta=1000, seed=74, piece_graphs=pgs,
            # No ambient REPRO_ARTIFACTS cache: a served collection
            # would skip the generation whose checks this counts.
            runtime=Runtime(model=models, workers=workers, artifacts="off"),
        )
        assert mrr.store.num_blocks > 1
        assert len(calls) == checks

    def test_direct_sampler_checks_once(self, calls):
        pg = project([(0, 1, {0: 0.6}), (1, 2, {0: 0.4})], 3)
        sampler = LinearThresholdSampler(pg)
        sampler.sample_many(np.arange(3), as_generator(0), backend="batch")
        BatchLTSampler(pg)
        assert len(calls) == 2

    def test_generate_still_rejects_infeasible_weights(self, lt_world):
        graph, campaign, _ = lt_world
        bad = project([(0, 2, {0: 0.8}), (1, 2, {0: 0.8})], 40, topics=2)
        with pytest.raises(ParameterError, match="normalise"):
            MRRCollection.generate(
                graph, campaign, theta=600, seed=1, piece_graphs=[bad, bad],
                runtime=Runtime(model="lt"),
            )


class TestNormalizeRegressions:
    def test_negative_weight_rejected(self):
        pg = project([(0, 1, {0: 0.5}), (2, 1, {0: 0.3})], 3)
        pg.in_prob[0] = -0.1
        with pytest.raises(ParameterError, match="negative"):
            normalize_lt_weights(pg)

    @given(params=world_params)
    @SETTINGS
    def test_vectorized_rebuild_keeps_views_consistent(self, params):
        """Forward and reverse views stay the same multiset after rescale,
        and every in-sum is <= 1."""
        src, dst = preferential_attachment_digraph(
            params["n"], params["edges_per_vertex"], seed=params["seed"]
        )
        graph = build_topic_graph(
            params["n"], src, dst, 3,
            topics_per_edge=1.5, prob_mean=0.5, seed=params["seed"] + 1,
        )
        campaign = Campaign.sample_unit(1, 3, seed=params["seed"] + 2)
        pg = project_campaign(graph, campaign)[0]
        norm = normalize_lt_weights(pg)
        assert np.allclose(
            np.sort(norm.out_prob), np.sort(norm.in_prob)
        )
        for v in range(norm.n):
            lo, hi = norm.in_ptr[v], norm.in_ptr[v + 1]
            assert float(norm.in_prob[lo:hi].sum()) <= 1.0 + 1e-9
        # forward slots rescale by their *destination* vertex's factor
        for s in range(norm.num_edges):
            dst_v = int(norm.out_dst[s])
            lo, hi = pg.in_ptr[dst_v], pg.in_ptr[dst_v + 1]
            total = float(pg.in_prob[lo:hi].sum())
            expected = pg.out_prob[s] / total if total > 1.0 else pg.out_prob[s]
            assert norm.out_prob[s] == pytest.approx(expected)
