"""The parallel per-piece sampling runtime (:mod:`repro.sampling.parallel`).

The runtime's contracts, as the module states them:

* the (piece, root block) task decomposition and the coordinate-keyed
  streams depend only on (theta, pieces, seed) — so for fixed seeds a
  ``workers=4`` pool reproduces ``workers=1`` bit-for-bit, for IC, LT
  and heterogeneous per-piece model lists, at every entry point that
  grew the knob;
* a worker exception cancels the remaining tasks, shuts the pool down
  and re-raises — it can never hang the caller;
* ``workers=None`` / ``0`` / ``"serial"`` run the same tasks inline and
  draw the same bytes as any pool.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.diffusion.projection import project_campaign
from repro.diffusion.simulate import (
    simulate_adoption_utility,
    simulate_piece_spread,
)
from repro.diffusion.threshold import normalize_lt_weights
from repro.exceptions import ParameterError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.greedy import celf_greedy_im
from repro.im.ris import ris_influence_maximization
from repro.runtime import Runtime
import repro.runtime as runtime_mod
from repro.sampling import parallel
from repro.sampling.mrr import MRRCollection
from repro.sampling.parallel import (
    parallel_map,
    resolve_workers,
    round_chunks,
    task_block_size,
)
from repro.topics.distributions import Campaign


@pytest.fixture(autouse=True)
def _no_ambient_artifact_cache(monkeypatch):
    """Neutralise any ``REPRO_ARTIFACTS`` ambient default.

    These tests assert sampler-internal behaviour (worker failure
    propagation, pool fan-out); a warm artifact cache would skip the
    sampling these assertions instrument.
    """
    monkeypatch.setattr(runtime_mod, "DEFAULT_ARTIFACTS", None)


@pytest.fixture(scope="module")
def world():
    """A mid-sized deterministic world with normalised (LT-safe) pieces."""
    n = 400
    src, dst = preferential_attachment_digraph(n, 3, seed=51)
    graph = build_topic_graph(
        n, src, dst, 6, topics_per_edge=2.0, prob_mean=0.15, seed=52
    )
    campaign = Campaign.sample_unit(3, 6, seed=53)
    piece_graphs = [
        normalize_lt_weights(pg) for pg in project_campaign(graph, campaign)
    ]
    return graph, campaign, piece_graphs


def _mrr_fingerprint(mrr: MRRCollection):
    return (
        mrr.roots.tolist(),
        [mrr.store.rr_arrays(j)[0].tolist() for j in range(mrr.num_pieces)],
        [mrr.store.rr_arrays(j)[1].tolist() for j in range(mrr.num_pieces)],
    )


class TestKnobResolution:
    def test_resolve_workers_values(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_WORKERS", None)
        assert resolve_workers(None) is None
        assert resolve_workers(0) is None
        assert resolve_workers("serial") is None
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1

    def test_env_default_and_forced_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_WORKERS", 4)
        assert resolve_workers(None) == 4
        assert resolve_workers(0) is None  # per-call opt-out wins
        assert resolve_workers("serial") is None

    def test_invalid_workers_rejected(self):
        with pytest.raises(ParameterError):
            resolve_workers(-2)
        with pytest.raises(ParameterError):
            resolve_workers("many")
        with pytest.raises(ParameterError):
            resolve_workers(2.5)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ParameterError):
            parallel_map(abs, [1], 2, executor="fiber")

    def test_task_decomposition_is_worker_independent(self):
        # Pure functions of theta / rounds — nothing about the pool.
        assert task_block_size(100) >= 100 or task_block_size(100) >= 1
        assert task_block_size(10_000) == task_block_size(10_000)
        chunks = round_chunks(20)
        assert chunks[0][0] == 0 and chunks[-1][1] == 20
        assert all(stop > start for start, stop in chunks)
        with pytest.raises(ParameterError):
            task_block_size(0)
        with pytest.raises(ParameterError):
            round_chunks(0)


class TestDeterministicFanOut:
    @pytest.mark.parametrize("model", ["ic", "lt", ["ic", "lt", "ic"]])
    def test_generate_workers_reproduce_exactly(self, world, model):
        """workers=1 and workers=4 build bit-identical collections."""
        graph, campaign, pgs = world
        fingerprints = []
        for workers in (1, 4):
            mrr = MRRCollection.generate(
                graph,
                campaign,
                theta=700,
                seed=77,
                piece_graphs=pgs,
                runtime=Runtime(model=model, workers=workers),
            )
            fingerprints.append(_mrr_fingerprint(mrr))
        assert fingerprints[0] == fingerprints[1]

    def test_generate_process_executor_matches_threads(self, world):
        graph, campaign, pgs = world
        by_executor = [
            _mrr_fingerprint(
                MRRCollection.generate(
                    graph,
                    campaign,
                    theta=600,
                    seed=78,
                    piece_graphs=pgs,
                    runtime=Runtime(workers=2, executor=executor),
                )
            )
            for executor in ("thread", "process")
        ]
        assert by_executor[0] == by_executor[1]

    def test_serial_spellings_match_pooled_draw(self, world, monkeypatch):
        """workers=None (no env default), 0 and "serial" run inline and
        draw exactly what a pool draws."""
        monkeypatch.setattr(parallel, "DEFAULT_WORKERS", None)
        graph, campaign, pgs = world
        fingerprints = [
            _mrr_fingerprint(
                MRRCollection.generate(
                    graph, campaign, theta=500, seed=79, piece_graphs=pgs,
                    runtime=Runtime(workers=workers),
                )
            )
            for workers in (None, 0, "serial", 2)
        ]
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])

    def test_adoption_utility_workers_reproduce_exactly(self, world):
        _, _, pgs = world
        plan = [[0, 5], [3], [8, 2]]
        from repro.diffusion.adoption import AdoptionModel

        adoption = AdoptionModel(alpha=2.0, beta=1.0)
        results = [
            simulate_adoption_utility(
                pgs,
                plan,
                adoption,
                rounds=40,
                seed=5,
                runtime=Runtime(model=["ic", "lt", "ic"], workers=workers),
                return_std=True,
            )
            for workers in (1, 4)
        ]
        assert results[0] == results[1]

    def test_piece_spread_workers_reproduce_exactly(self, world):
        _, _, pgs = world
        values = {
            workers: simulate_piece_spread(
                pgs[0], [0, 7], rounds=40, seed=6,
                runtime=Runtime(workers=workers),
            )
            for workers in (1, 4)
        }
        assert values[1] == values[4]

    def test_ris_workers_reproduce_exactly(self, world):
        _, _, pgs = world
        outcomes = [
            ris_influence_maximization(
                pgs[0], 4, 800, seed=9, runtime=Runtime(workers=workers)
            )
            for workers in (1, 4)
        ]
        assert outcomes[0] == outcomes[1]

    def test_celf_workers_reproduce_exactly(self, world):
        _, _, pgs = world
        pool = np.arange(0, 400, 16, dtype=np.int64)
        outcomes = [
            celf_greedy_im(
                pgs[0], 3, pool=pool, rounds=24, seed=13,
                runtime=Runtime(workers=workers),
            )
            for workers in (1, 4)
        ]
        assert outcomes[0] == outcomes[1]


class TestFailureHandling:
    def test_worker_exception_propagates_and_pool_drains(self):
        baseline = threading.active_count()

        def boom(item):
            if item == 7:
                raise ValueError("task 7 exploded")
            return item

        # executor pinned: these are the *thread*-pool drain semantics
        # (closures and active_count don't translate to process pools,
        # which the REPRO_EXECUTOR matrix leg would otherwise select).
        with pytest.raises(ValueError, match="task 7 exploded"):
            parallel_map(boom, list(range(16)), 4, executor="thread")
        # The with-block joined the pool: no orphaned workers linger.
        assert threading.active_count() <= baseline + 1

    def test_generate_surfaces_worker_errors(self, world, monkeypatch):
        graph, campaign, pgs = world

        def failing_task(args):
            raise RuntimeError("sampler crashed in a worker")

        monkeypatch.setattr(parallel, "_sample_task", failing_task)
        # Thread pool pinned: the monkeypatched task only exists in
        # this process, so process/spawned executors would never see it.
        with pytest.raises(RuntimeError, match="crashed in a worker"):
            MRRCollection.generate(
                graph,
                campaign,
                theta=600,
                seed=80,
                piece_graphs=pgs,
                runtime=Runtime(workers=4, executor="thread"),
            )

    def test_results_preserve_task_order(self):
        import time

        def jittered(item):
            time.sleep(0.001 * ((7 - item) % 5))
            return item * item

        assert parallel_map(
            jittered, list(range(12)), 4, executor="thread"
        ) == [i * i for i in range(12)]

    def test_reusable_pool_survives_errors_and_reuse(self):
        """A caller-owned pool (make_pool) serves many rounds, stays
        usable after a failing round, and shuts down under the caller."""
        from repro.sampling.parallel import make_pool

        assert make_pool(1) is None  # inline path needs no pool
        # Thread pool pinned: the boom/abs closures below cannot cross
        # a process boundary.
        pool = make_pool(3, executor="thread")
        try:
            first = parallel_map(abs, [-3, -1, -2], 3, pool=pool)
            assert first == [3, 1, 2]

            def boom(item):
                raise KeyError(item)

            with pytest.raises(KeyError):
                parallel_map(boom, [1, 2], 3, pool=pool)
            again = parallel_map(abs, [-9], 3, pool=pool)
            assert again == [9]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


class TestCliWorkersFlag:
    @pytest.mark.parametrize(
        ("text", "expected"), [("4", 4), ("auto", "auto"), ("serial", "serial")]
    )
    def test_accepted_values(self, text, expected):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["params", "--workers", text])
        assert args.workers == expected

    def test_garbage_rejected_cleanly(self, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["params", "--workers", "many"])
        assert "expected an integer" in capsys.readouterr().err
