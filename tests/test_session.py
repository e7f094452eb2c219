"""The Session facade: legacy bit-identity, registry, evaluation flow.

The redesign's acceptance contract: a ``Session`` pipeline produces
seed sets and estimates **bit-identical** to the hand-wired legacy
calls it replaces, for every registered solver, because it invokes the
same primitives with the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Session,
    SessionResult,
    available_solvers,
    register_solver,
)
from repro.api import _SOLVERS
from repro.core.bab import solve_bab, solve_bab_progressive
from repro.core.brute_force import brute_force_oipa
from repro.core.local_search import local_search
from repro.core.problem import OIPAProblem
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import ConfigError, SolverError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.baselines import im_baseline, tim_baseline
from repro.runtime import Runtime, resolve_runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.parallel import keyed_flat_entropy


@pytest.fixture()
def adoption():
    return AdoptionModel.from_ratio(0.5)


@pytest.fixture()
def legacy_pipeline(small_random_graph, small_campaign, adoption):
    """The hand-wired calls a Session must reproduce exactly."""
    problem = OIPAProblem.with_random_pool(
        small_random_graph, small_campaign, adoption, 4, seed=13
    )
    mrr = MRRCollection.generate(
        small_random_graph, small_campaign, 300, seed=13
    )
    return problem, mrr


@pytest.fixture()
def session(small_random_graph, small_campaign, adoption):
    return Session(
        small_random_graph, small_campaign, adoption, k=4, seed=13
    )


class TestLegacyBitIdentity:
    def test_problem_and_samples_match(self, session, legacy_pipeline):
        problem, mrr = legacy_pipeline
        assert np.array_equal(session.problem.pool, problem.pool)
        session.sample(300)
        assert np.array_equal(session.mrr.roots, mrr.roots)
        for j in range(mrr.num_pieces):
            ours, legacy = session.mrr.store.rr_arrays(j), mrr.store.rr_arrays(j)
            for a, b in zip(ours, legacy):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["bab", "bab-p"])
    def test_bab_matches_legacy(self, session, legacy_pipeline, method):
        problem, mrr = legacy_pipeline
        solve = solve_bab if method == "bab" else solve_bab_progressive
        legacy = solve(problem, mrr, max_nodes=50)
        result = session.solve(method, theta=300, max_nodes=50)
        assert result.plan.seed_sets == legacy.plan.seed_sets
        assert result.estimate == legacy.utility
        assert result.diagnostics["termination"] == (
            legacy.diagnostics.termination
        )

    def test_baselines_match_legacy(self, session, legacy_pipeline):
        problem, mrr = legacy_pipeline
        session.sample(300)
        # The flat draw keys its own stream off the session seed.
        legacy_im = im_baseline(problem, mrr, seed=keyed_flat_entropy(13))
        got = session.solve("ris")
        assert got.plan.seed_sets == legacy_im.plan.seed_sets
        assert got.estimate == legacy_im.utility
        assert session.solve("im").plan.seed_sets == got.plan.seed_sets
        legacy_tim = tim_baseline(problem, mrr)
        got = session.solve("tim")
        assert got.plan.seed_sets == legacy_tim.plan.seed_sets
        assert got.estimate == legacy_tim.utility
        # Regression: solve()'s seed reaches solvers that declare one —
        # solve("ris", seed=3) must draw from seed 3's flat stream, not
        # silently fall back to the session seed.
        legacy_seeded = im_baseline(problem, mrr, seed=keyed_flat_entropy(3))
        got = session.solve("ris", seed=3)
        assert got.plan.seed_sets == legacy_seeded.plan.seed_sets
        assert got.estimate == legacy_seeded.utility

    def test_flat_draw_does_not_reuse_collection_roots(
        self, small_random_graph, small_campaign, adoption, monkeypatch
    ):
        # Regression: the flattened-graph RR draw was seeded like the
        # optimisation collection and so redrew its exact roots.  The
        # artifact cache is off so the solve really draws.
        import repro.im.baselines as baselines

        session = Session(
            small_random_graph, small_campaign, adoption, k=4, seed=13,
            runtime=Runtime(artifacts="off"),
        )

        drawn = []
        keyed = baselines._keyed_rr_collection

        def capture(*args):
            drawn.append(keyed(*args))
            return drawn[-1]

        monkeypatch.setattr(baselines, "_keyed_rr_collection", capture)
        session.sample(300)
        session.solve("im")
        (flat,) = drawn
        assert flat.theta == session.mrr.theta
        assert not np.array_equal(flat.roots, session.mrr.roots)

    def test_local_search_and_brute_force_match_legacy(
        self, session, legacy_pipeline
    ):
        problem, mrr = legacy_pipeline
        session.sample(300)
        legacy = local_search(
            problem, mrr, problem.empty_plan(), max_rounds=2
        )
        got = session.solve("local-search", max_rounds=2)
        assert got.plan.seed_sets == legacy.plan.seed_sets
        assert got.estimate == legacy.utility
        small = Session(
            session.graph, session.campaign, session.adoption,
            k=2, pool=np.arange(3), seed=13,
        )
        small_problem = OIPAProblem(
            session.graph, session.campaign, session.adoption, 2,
            np.arange(3),
        )
        small.sample(100)
        plan, utility = brute_force_oipa(small_problem, small.mrr)
        got = small.solve("brute-force")
        assert got.plan.seed_sets == plan.seed_sets
        assert got.estimate == utility

    def test_estimates_shared_across_methods(self, session):
        # One collection serves every solver (fixed-theta protocol).
        session.solve("bab-p", theta=300)
        first = session.mrr
        session.solve("tim")
        assert session.mrr is first


class TestSessionFlow:
    def test_solve_requires_theta_once(self, session):
        with pytest.raises(SolverError, match="theta"):
            session.solve("bab")
        with pytest.raises(SolverError, match="no MRR collection"):
            session.mrr

    def test_unknown_method(self, session):
        with pytest.raises(SolverError, match="unknown solver"):
            session.solve("simulated-annealing", theta=50)

    def test_method_name_normalisation(self, session):
        session.sample(100)
        res = session.solve("BAB_P", max_nodes=10)
        assert res.method == "bab-p"

    def test_evaluate_and_simulate(self, session):
        result = session.solve("bab-p", theta=200, max_nodes=20)
        score = session.evaluate(result)
        assert session.mrr_eval is not None
        assert session.mrr_eval.theta == 4 * 200
        assert score == session.mrr_eval.estimate(
            result.plan.seed_lists(), session.adoption
        )
        # evaluation collection is independent of the optimisation draw
        assert not np.array_equal(
            session.mrr.roots[:50], session.mrr_eval.roots[:50]
        )
        sim = session.simulate(result, rounds=4)
        assert sim >= 0.0
        res2 = session.solve("tim", evaluate=True)
        assert res2.evaluation == session.evaluate(res2.plan)

    def test_session_result_surface(self, session):
        result = session.solve("bab-p", theta=100, max_nodes=10)
        assert isinstance(result, SessionResult)
        assert result.seed_sets == result.plan.seed_sets
        with pytest.raises(TypeError):
            result.diagnostics["nodes_expanded"] = 0  # read-only view

    def test_from_dataset_quickstart(self):
        session = Session.from_dataset(
            "lastfm", scale=0.08, dataset_seed=99, pieces=2, k=3, seed=1
        )
        result = session.solve("bab-p", theta=200, max_nodes=20)
        assert result.plan.size <= 3
        assert session.bundle is not None
        assert "Session(" in repr(session)

    def test_runtime_threads_through(
        self, small_random_graph, small_campaign, adoption, tmp_path
    ):
        rt = Runtime(store="disk", shard_dir=str(tmp_path), seed=13)
        session = Session(
            small_random_graph, small_campaign, adoption, k=3, runtime=rt
        )
        assert session.seed == 13  # Runtime seeding policy adopted
        session.sample(120)
        assert session.mrr.store.kind == "disk"
        session.sample_evaluation(120)
        # opt and eval collections get per-collection shard subdirs,
        # keyed by role, theta, seed and a digest of the sampled inputs
        digest = session._inputs_digest(resolve_runtime(rt))
        assert len(digest) == 10
        assert (tmp_path / f"opt-theta120-seed13-{digest}").is_dir()
        assert (tmp_path / f"eval-theta120-seed14-{digest}").is_dir()
        # Regression: re-sampling at a new theta (advertised by
        # solve(theta=...)) must not collide with the earlier shards.
        session.solve("bab-p", theta=240, max_nodes=10)
        assert session.mrr.theta == 240
        # ...and repeating the identical call reloads the finished dir.
        assert session.sample(120).theta == 120

    def test_shard_subdir_keyed_by_model_mix_and_graph(
        self, small_random_graph, small_campaign, adoption, tmp_path
    ):
        # Regression: the subdir used to be keyed by role, theta and
        # seed only, so the same seeded call with another model mix or
        # on another graph hit the first run's finished directory and
        # raised StoreError ("holds a different collection").
        def sample(graph, **runtime):
            rt = Runtime(
                store="disk", shard_dir=str(tmp_path), seed=5, **runtime
            )
            session = Session(graph, small_campaign, adoption, k=3, runtime=rt)
            return session.sample(120)

        ic = sample(small_random_graph)
        mixed = sample(small_random_graph, model=("ic", "lt", "ic"))
        src, dst = preferential_attachment_digraph(60, 3, seed=21)
        other = build_topic_graph(
            60, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=22
        )
        moved = sample(other)
        assert len(list(tmp_path.glob("opt-theta120-seed5-*"))) == 3
        # Each still reloads its own finished directory.
        for graph, runtime, first in (
            (small_random_graph, {}, ic),
            (small_random_graph, {"model": ("ic", "lt", "ic")}, mixed),
            (other, {}, moved),
        ):
            again = sample(graph, **runtime)
            for j in range(3):
                np.testing.assert_array_equal(
                    again.store.rr_arrays(j)[1], first.store.rr_arrays(j)[1]
                )

    def test_unseeded_disk_session_resamples_without_collision(
        self, small_random_graph, small_campaign, adoption, tmp_path
    ):
        # Regression: with a None seed the roots draw is random, so the
        # shard key must change per generation instead of colliding on
        # the (role, theta) pair.
        session = Session(
            small_random_graph, small_campaign, adoption, k=3,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path)),
        )
        session.sample(80)
        session.sample(80)  # used to raise StoreError on the manifest
        assert session.mrr.theta == 80

    def test_evaluate_seed_regenerates(self, session):
        session.solve("bab-p", theta=100, max_nodes=10)
        plan = session.solve("tim").plan
        first = session.evaluate(plan)
        roots_first = session.mrr_eval.roots.copy()
        # Regression: an explicit seed must produce a fresh draw, not
        # silently score on the cached collection.
        second = session.evaluate(plan, seed=123)
        assert not np.array_equal(roots_first, session.mrr_eval.roots)
        assert session.mrr_eval.theta == 4 * 100
        assert isinstance(first, float) and isinstance(second, float)

    def test_flat_baselines_are_model_blind(
        self, small_random_graph, small_campaign, adoption
    ):
        # Scalar and per-piece spellings of an all-LT campaign must
        # treat the (never-normalised) flat baseline graph identically:
        # both run it under the default model, like legacy im_baseline.
        pieces = small_campaign.num_pieces
        scalar = Session(
            small_random_graph, small_campaign, adoption, k=2, seed=7,
            runtime=Runtime(model="lt"),
        )
        perpiece = Session(
            small_random_graph, small_campaign, adoption, k=2, seed=7,
            runtime=Runtime(model=("lt",) * pieces),
        )
        scalar.sample(100)
        perpiece.sample(100)
        a = scalar.solve("celf", rounds=3)
        b = perpiece.solve("celf", rounds=3)
        assert a.diagnostics["seeds"] == b.diagnostics["seeds"]
        assert a.plan.seed_sets == b.plan.seed_sets

    def test_memory_store_instance_not_silently_reused(
        self, small_random_graph, small_campaign, adoption
    ):
        # Regression: one store *instance* carried on a shared Runtime
        # must not serve a second generation's collection — the first
        # generation's arrays would be re-served under new dimensions.
        from repro.exceptions import StoreError
        from repro.sampling.store import MemoryStore

        session = Session(
            small_random_graph, small_campaign, adoption, k=3, seed=13,
            runtime=Runtime(store=MemoryStore()),
        )
        session.sample(100)
        with pytest.raises(StoreError, match="fresh store"):
            session.sample_evaluation(200)

    def test_mixed_models_normalise_lt_pieces(
        self, small_random_graph, small_campaign, adoption
    ):
        models = tuple(
            "lt" if j % 2 else "ic"
            for j in range(small_campaign.num_pieces)
        )
        session = Session(
            small_random_graph, small_campaign, adoption, k=2, seed=7,
            runtime=Runtime(model=models),
        )
        session.sample(100)
        result = session.solve("bab-p", max_nodes=10)
        assert result.plan.size <= 2
        # flat-graph baselines still run (per-piece models stripped)
        assert session.solve("ris").plan.size <= 2


class TestRegistry:
    def test_register_and_overwrite(self, session):
        def fixed_plan(s, **options):
            plan = s.problem.empty_plan().with_assignment(
                int(s.problem.pool[0]), 0
            )
            return plan, s.estimate(plan), {"custom": True}

        register_solver("fixed", fixed_plan)
        try:
            assert "fixed" in available_solvers()
            result = session.solve("fixed", theta=100)
            assert result.diagnostics["custom"] is True
            assert result.estimate == session.estimate(result.plan)
            with pytest.raises(ConfigError, match="already registered"):
                register_solver("fixed", fixed_plan)
            register_solver("fixed", fixed_plan, overwrite=True)
        finally:
            _SOLVERS.pop("fixed", None)

    def test_decorator_form(self):
        @register_solver("decorated-solver")
        def my_solver(session, **options):  # pragma: no cover
            raise NotImplementedError

        try:
            assert "decorated-solver" in available_solvers()
        finally:
            _SOLVERS.pop("decorated-solver", None)
