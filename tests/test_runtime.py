"""Runtime config: precedence, validation, and legacy bit-identity.

The contract under test (repro.runtime):

* one resolution order everywhere — explicit kwarg > ``Runtime`` field
  > ``REPRO_*`` env > library default;
* every execution knob is validated at entry in *every* entry point
  (``ConfigError``), including knobs the taken path would historically
  have ignored (e.g. ``executor`` on a serial run);
* legacy per-call kwargs emit ``DeprecationWarning`` and produce
  bit-identical results to the ``runtime=`` spelling;
* the ``REPRO_*`` variables are parsed in exactly one module.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.runtime as runtime_mod
import repro.sampling.batch as batch_mod
import repro.sampling.parallel as parallel_mod
import repro.sampling.store as store_mod
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.simulate import (
    simulate_adoption_utility,
    simulate_piece_spread,
)
from repro.exceptions import ConfigError
from repro.im.greedy import celf_greedy_im
from repro.im.ris import ris_influence_maximization
from repro.runtime import ResolvedRuntime, Runtime, resolve_runtime
from repro.sampling.adaptive import generate_adaptive
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import MemoryStore


@pytest.fixture(autouse=True)
def _no_ambient_artifact_cache(monkeypatch):
    """Neutralise any ``REPRO_ARTIFACTS`` ambient default.

    These tests spy on sampler internals (call counts, spawned
    streams); an ambient artifact cache would serve repeat generations
    from the store and starve the spies.  Explicit ``artifacts=`` knobs
    under test still work — only the env-derived default is cleared.
    """
    monkeypatch.setattr(runtime_mod, "DEFAULT_ARTIFACTS", None)


@pytest.fixture()
def piece_graph(small_random_graph, small_campaign):
    return project_campaign(small_random_graph, small_campaign)[0]


# --------------------------------------------------------------------------
# Construction-time validation
# --------------------------------------------------------------------------


class TestRuntimeConstruction:
    def test_defaults_are_all_deferred(self):
        rt = Runtime()
        assert (rt.backend, rt.model, rt.workers, rt.executor) == (
            None, None, None, None
        )
        assert (rt.store, rt.shard_dir, rt.max_resident_bytes, rt.seed) == (
            None, None, None, None
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "numba"},
            {"model": "sir"},
            {"model": ("ic", "sir")},
            {"workers": -1},
            {"workers": 2.5},
            {"workers": True},
            {"executor": "fork"},
            {"store": "s3"},
            {"max_resident_bytes": 0},
            {"max_resident_bytes": "lots"},
        ],
    )
    def test_bad_field_fails_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            Runtime(**kwargs)

    def test_good_fields_accepted(self, tmp_path):
        rt = Runtime(
            backend="python",
            model=["ic", "lt"],
            workers="auto",
            executor="process",
            store="disk",
            shard_dir=tmp_path,
            max_resident_bytes=1 << 20,
            seed=7,
        )
        assert rt.model == ("ic", "lt")  # normalised to a tuple
        assert rt.shard_dir == str(tmp_path)
        assert Runtime(store=MemoryStore()).store.kind == "memory"

    def test_frozen_and_replace(self):
        rt = Runtime(backend="python")
        with pytest.raises(AttributeError):
            rt.backend = "batch"
        assert rt.replace(workers=2) == Runtime(backend="python", workers=2)
        with pytest.raises(ConfigError):
            rt.replace(backend="numba")


# --------------------------------------------------------------------------
# Resolution order: explicit kwarg > Runtime field > env > default
# --------------------------------------------------------------------------


class TestResolutionOrder:
    def test_library_defaults(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "DEFAULT_BACKEND", "batch")
        monkeypatch.setattr(parallel_mod, "DEFAULT_WORKERS", None)
        monkeypatch.setattr(parallel_mod, "DEFAULT_EXECUTOR", "thread")
        monkeypatch.setattr(store_mod, "DEFAULT_STORE", "memory")
        rt = resolve_runtime(None)
        assert (rt.backend, rt.workers, rt.executor, rt.store) == (
            "batch", 0, "thread", "memory"
        )
        assert rt.pool_width is None

    def test_env_layer_beats_default(self, monkeypatch):
        # The module globals are the parsed-once env layer (see
        # repro.runtime); patching them models REPRO_* being set.
        monkeypatch.setattr(batch_mod, "DEFAULT_BACKEND", "python")
        monkeypatch.setattr(parallel_mod, "DEFAULT_WORKERS", 3)
        monkeypatch.setattr(parallel_mod, "DEFAULT_EXECUTOR", "spawned")
        monkeypatch.setattr(store_mod, "DEFAULT_STORE", "disk")
        rt = resolve_runtime(None)
        assert (rt.backend, rt.workers, rt.executor, rt.store) == (
            "python", 3, "spawned", "disk"
        )

    def test_runtime_field_beats_env(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "DEFAULT_BACKEND", "python")
        monkeypatch.setattr(parallel_mod, "DEFAULT_WORKERS", 3)
        monkeypatch.setattr(store_mod, "DEFAULT_STORE", "disk")
        rt = resolve_runtime(
            Runtime(backend="batch", workers="serial", store="memory")
        )
        assert (rt.backend, rt.workers, rt.store) == ("batch", 0, "memory")

    def test_explicit_kwarg_beats_runtime_field(self):
        base = Runtime(backend="batch", workers=4, executor="thread")
        rt = resolve_runtime(
            base, backend="python", workers=0, executor="process"
        )
        assert (rt.backend, rt.workers, rt.executor) == (
            "python", 0, "process"
        )

    def test_resolved_runtime_is_idempotent(self, monkeypatch):
        rt = resolve_runtime(Runtime(workers=0, backend="python"))
        # Flipping the env layer afterwards must not leak back in: a
        # ResolvedRuntime's fields are concrete.
        monkeypatch.setattr(batch_mod, "DEFAULT_BACKEND", "batch")
        monkeypatch.setattr(parallel_mod, "DEFAULT_WORKERS", 8)
        again = resolve_runtime(rt)
        assert isinstance(again, ResolvedRuntime)
        assert (again.backend, again.workers) == ("python", 0)

    def test_seed_policy(self):
        assert resolve_runtime(Runtime(seed=5)).seed == 5
        assert resolve_runtime(Runtime(seed=5), seed=9).seed == 9
        assert resolve_runtime(None).seed is None

    def test_env_vars_actually_feed_the_layer(self):
        # A fresh interpreter with REPRO_* set must resolve through the
        # env layer — and an explicit Runtime field must still win.
        code = (
            "from repro.runtime import Runtime, resolve_runtime\n"
            "rt = resolve_runtime(None)\n"
            "assert (rt.backend, rt.workers, rt.executor, rt.store) == "
            "('python', 2, 'spawned', 'disk'), rt\n"
            "rt = resolve_runtime(Runtime(backend='batch', "
            "workers='serial', executor='thread', store='memory'))\n"
            "assert (rt.backend, rt.workers, rt.executor, rt.store) == "
            "('batch', 0, 'thread', 'memory'), rt\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={
                "PYTHONPATH": str(
                    pathlib.Path(repro.__file__).parents[1]
                ),
                "REPRO_BACKEND": "python",
                "REPRO_WORKERS": "2",
                "REPRO_EXECUTOR": "spawned",
                "REPRO_STORE": "disk",
            },
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_exactly_one_env_resolution_path(self):
        """No per-module REPRO_* parsing outside repro.runtime."""
        package_root = pathlib.Path(repro.__file__).parent
        # dist.py *copies* os.environ to compose a child worker
        # process's environment (subprocess launch) — it reads no
        # REPRO_* knob; the parse-once invariant is about config reads.
        allowed = {"sampling/dist.py"}
        offenders = []
        for path in sorted(package_root.rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            if path.name == "runtime.py" or rel in allowed:
                continue
            if "os.environ" in path.read_text(encoding="utf-8"):
                offenders.append(rel)
        assert not offenders, (
            f"env parsing outside repro.runtime: {offenders}"
        )


# --------------------------------------------------------------------------
# Entry validation: bad knobs fail at entry, everywhere, as ConfigError
# --------------------------------------------------------------------------


class TestEntryValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"executor": "fork"},
            {"backend": "numba"},
            {"store": "s3"},
            {"workers": -2},
            {"model": "sir"},
        ],
    )
    def test_every_entry_point_validates_at_entry(
        self, small_random_graph, small_campaign, piece_graph, bad
    ):
        adoption = AdoptionModel.from_ratio(0.5)
        rt_bad = pytest.raises(ConfigError)
        with rt_bad:
            MRRCollection.generate(
                small_random_graph, small_campaign, 10, seed=0,
                runtime=Runtime(**bad),
            )
        entry_points = [
            lambda: ris_influence_maximization(
                piece_graph, 2, 10, seed=0, **bad
            ),
        ]
        if "store" not in bad:
            # The simulators and CELF have no store knob; every other
            # execution kwarg is shared across all entry points.
            entry_points += [
                lambda: simulate_piece_spread(
                    piece_graph, [0], rounds=2, seed=0, **bad
                ),
                lambda: simulate_adoption_utility(
                    [piece_graph], [[0]], adoption, rounds=2, seed=0, **bad
                ),
                lambda: celf_greedy_im(
                    piece_graph, 1, rounds=2, seed=0, **bad
                ),
            ]
        for call in entry_points:
            with pytest.raises(ConfigError), pytest.warns(
                DeprecationWarning
            ):
                call()

    def test_serial_path_no_longer_ignores_bad_executor(
        self, small_random_graph, small_campaign
    ):
        # Historically only celf_greedy_im checked executor; a serial
        # generate silently accepted garbage.  Now it fails at entry.
        with pytest.raises(ConfigError):
            MRRCollection.generate(
                small_random_graph, small_campaign, 10, seed=0,
                runtime=Runtime(executor="fork"),
            )

    def test_single_graph_entries_reject_model_sequences(self, piece_graph):
        # Regression: a per-piece model list on a single-graph entry
        # point must fail at entry as ConfigError, not surface as a
        # SamplingError from deep inside resolve_models.
        rt = Runtime(model=("ic", "lt"))
        with pytest.raises(ConfigError, match="single influence graph"):
            celf_greedy_im(piece_graph, 1, rounds=2, seed=0, runtime=rt)
        with pytest.raises(ConfigError, match="single influence graph"):
            simulate_piece_spread(piece_graph, [0], rounds=2, runtime=rt)
        with pytest.raises(ConfigError, match="single influence graph"):
            ris_influence_maximization(
                piece_graph, 2, 10, seed=0, runtime=rt
            )
        # ...while a one-element sequence still resolves.
        spread = simulate_piece_spread(
            piece_graph, [0], rounds=2, seed=0, runtime=Runtime(model=("ic",))
        )
        assert spread >= 0.0

    def test_with_shard_subdir(self, tmp_path):
        rt = Runtime(store="disk", shard_dir=str(tmp_path))
        sub = rt.with_shard_subdir("cell", 3)
        assert sub.shard_dir == str(tmp_path / "cell" / "3")
        assert Runtime().with_shard_subdir("x").shard_dir is None
        resolved = resolve_runtime(rt).with_shard_subdir("y")
        assert resolved.shard_dir == str(tmp_path / "y")

    def test_adaptive_and_baseline_validate(
        self, small_random_graph, small_campaign
    ):
        adoption = AdoptionModel.from_ratio(0.5)
        probe = [[0] for _ in range(small_campaign.num_pieces)]
        with pytest.raises(ConfigError):
            generate_adaptive(
                small_random_graph, small_campaign, adoption, probe,
                initial_theta=10, max_theta=20, seed=0,
                runtime=Runtime(backend="numba"),
            )


# --------------------------------------------------------------------------
# Legacy kwargs: deprecation + bit-identity with the runtime path
# --------------------------------------------------------------------------


class TestLegacyBitIdentity:
    def test_generate_legacy_vs_runtime(
        self, small_random_graph, small_campaign
    ):
        with pytest.warns(DeprecationWarning, match="MRRCollection.generate"):
            legacy = MRRCollection.generate(
                small_random_graph, small_campaign, 200, seed=3,
                backend="python", workers=2,
            )
        new = MRRCollection.generate(
            small_random_graph, small_campaign, 200, seed=3,
            runtime=Runtime(backend="python", workers=2),
        )
        assert np.array_equal(legacy.roots, new.roots)
        for j in range(legacy.num_pieces):
            for a, b in zip(legacy.store.rr_arrays(j), new.store.rr_arrays(j)):
                assert np.array_equal(a, b)

    def test_generate_runtime_matches_no_knobs_default(
        self, small_random_graph, small_campaign
    ):
        bare = MRRCollection.generate(
            small_random_graph, small_campaign, 150, seed=5
        )
        via_runtime = MRRCollection.generate(
            small_random_graph, small_campaign, 150, seed=5,
            runtime=Runtime(),
        )
        for j in range(bare.num_pieces):
            for a, b in zip(
                bare.store.rr_arrays(j), via_runtime.store.rr_arrays(j)
            ):
                assert np.array_equal(a, b)

    def test_ris_legacy_vs_runtime(self, piece_graph):
        with pytest.warns(DeprecationWarning):
            seeds_legacy, spread_legacy = ris_influence_maximization(
                piece_graph, 3, 300, seed=11, backend="batch", workers=2
            )
        seeds_new, spread_new = ris_influence_maximization(
            piece_graph, 3, 300, seed=11,
            runtime=Runtime(backend="batch", workers=2),
        )
        assert seeds_legacy == seeds_new
        assert spread_legacy == spread_new

    def test_celf_legacy_vs_runtime(self, piece_graph):
        with pytest.warns(DeprecationWarning):
            seeds_legacy, spread_legacy = celf_greedy_im(
                piece_graph, 2, rounds=5, seed=4, backend="batch"
            )
        seeds_new, spread_new = celf_greedy_im(
            piece_graph, 2, rounds=5, seed=4, runtime=Runtime(backend="batch")
        )
        assert seeds_legacy == seeds_new
        assert spread_legacy == spread_new

    def test_simulators_legacy_vs_runtime(self, piece_graph):
        with pytest.warns(DeprecationWarning):
            legacy = simulate_piece_spread(
                piece_graph, [0, 1], rounds=8, seed=2, workers=2
            )
        new = simulate_piece_spread(
            piece_graph, [0, 1], rounds=8, seed=2, runtime=Runtime(workers=2)
        )
        assert legacy == new
        adoption = AdoptionModel.from_ratio(0.5)
        with pytest.warns(DeprecationWarning):
            legacy = simulate_adoption_utility(
                [piece_graph], [[0]], adoption, rounds=8, seed=2,
                backend="python",
            )
        new = simulate_adoption_utility(
            [piece_graph], [[0]], adoption, rounds=8, seed=2,
            runtime=Runtime(backend="python"),
        )
        assert legacy == new

    def test_store_knob_legacy_vs_runtime(
        self, small_random_graph, small_campaign, tmp_path
    ):
        with pytest.warns(DeprecationWarning):
            legacy = MRRCollection.generate(
                small_random_graph, small_campaign, 120, seed=9,
                store="disk", shard_dir=str(tmp_path / "legacy"),
            )
        new = MRRCollection.generate(
            small_random_graph, small_campaign, 120, seed=9,
            runtime=Runtime(store="disk", shard_dir=str(tmp_path / "new")),
        )
        assert legacy.store.kind == new.store.kind == "disk"
        for j in range(legacy.num_pieces):
            a = legacy.index_arrays(j)
            b = new.index_arrays(j)
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_runtime_store_and_workers_observable(
        self, small_random_graph, small_campaign, monkeypatch, tmp_path
    ):
        # store: a Runtime-selected disk store actually writes shards...
        shard_dir = tmp_path / "shards"
        mrr = MRRCollection.generate(
            small_random_graph, small_campaign, 60, seed=1,
            runtime=Runtime(store="disk", shard_dir=str(shard_dir)),
        )
        assert mrr.store.kind == "disk"
        assert any(shard_dir.glob("piece*.npz"))
        # ...and an explicit kwarg overrides the Runtime field back to
        # memory (precedence, observable end to end).
        with pytest.warns(DeprecationWarning):
            mem = MRRCollection.generate(
                small_random_graph, small_campaign, 60, seed=1,
                store="memory",
                runtime=Runtime(store="disk"),
            )
        assert mem.store.kind == "memory"
        # workers: the parallel runtime is engaged iff the resolved
        # width asks for it.
        calls = []
        original = parallel_mod.stream_piece_blocks

        def spy(*args, **kwargs):
            calls.append(kwargs.get("workers"))
            return original(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "stream_piece_blocks", spy)
        pinned = Runtime(workers=2, store="memory", artifacts="off")
        MRRCollection.generate(
            small_random_graph, small_campaign, 60, seed=1, runtime=pinned,
        )
        assert calls == [2]
        with pytest.warns(DeprecationWarning):
            MRRCollection.generate(
                small_random_graph, small_campaign, 60, seed=1,
                runtime=pinned, workers=0,
            )
        assert calls == [2, 1]  # explicit serial kwarg beat the field

    def test_no_warning_on_runtime_path(
        self, small_random_graph, small_campaign, recwarn
    ):
        MRRCollection.generate(
            small_random_graph, small_campaign, 30, seed=0,
            runtime=Runtime(backend="batch", workers=1),
        )
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations
