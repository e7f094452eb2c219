"""Runtime config: precedence, validation, and the runtime path.

The contract under test (repro.runtime):

* one resolution order everywhere — ``Runtime`` field > ``REPRO_*``
  env > library default, with a per-call ``seed=`` beating
  ``Runtime.seed``;
* every execution knob is validated at entry in *every* entry point
  (``ConfigError``), including knobs the taken path would historically
  have ignored (e.g. ``executor`` on a serial run), and ``runtime=``
  accepts nothing but a ``Runtime`` (or ``None``);
* the ``runtime=`` spelling matches the no-knobs default bit for bit;
* the ``REPRO_*`` variables are parsed in exactly one module.
"""

from __future__ import annotations

import functools
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
from repro.core.problem import OIPAProblem
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.simulate import (
    simulate_adoption_utility,
    simulate_piece_spread,
)
from repro.exceptions import ConfigError
from repro.im.baselines import im_baseline
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


def _im_baseline_call(graph, campaign, piece_graph):
    adoption = AdoptionModel.from_ratio(0.5)
    problem = OIPAProblem.with_random_pool(
        graph, campaign, adoption, 2, seed=0
    )
    mrr = MRRCollection.generate(graph, campaign, 10, seed=0)
    return functools.partial(im_baseline, problem, mrr, seed=0)


#: Every entry point that takes ``runtime=``, wired to a tiny valid
#: call (``seed=0``) so only the argument under test can fail.
ENTRY_POINTS = {
    "MRRCollection.generate": lambda g, c, pg: functools.partial(
        MRRCollection.generate, g, c, 10, seed=0
    ),
    "MRRCollection.generate_traced": lambda g, c, pg: functools.partial(
        MRRCollection.generate_traced, g, c, 10, seed=0
    ),
    "ris_influence_maximization": lambda g, c, pg: functools.partial(
        ris_influence_maximization, pg, 2, 10, seed=0
    ),
    "celf_greedy_im": lambda g, c, pg: functools.partial(
        celf_greedy_im, pg, 1, rounds=2, seed=0
    ),
    "simulate_piece_spread": lambda g, c, pg: functools.partial(
        simulate_piece_spread, pg, [0], rounds=2, seed=0
    ),
    "simulate_adoption_utility": lambda g, c, pg: functools.partial(
        simulate_adoption_utility,
        [pg], [[0]], AdoptionModel.from_ratio(0.5), rounds=2, seed=0,
    ),
    "generate_adaptive": lambda g, c, pg: functools.partial(
        generate_adaptive,
        g, c, AdoptionModel.from_ratio(0.5), [[0]] * c.num_pieces,
        initial_theta=10, max_theta=20, seed=0,
    ),
    "im_baseline": _im_baseline_call,
}


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
            {"executor": "process"},
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
            executor="spawned",
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

    def test_removed_executor_fails_at_import(self):
        # REPRO_EXECUTOR is parsed once, at import: the retired
        # "process" value must fail there, naming the variable.
        result = subprocess.run(
            [sys.executable, "-c", "import repro"],
            env={
                "PYTHONPATH": str(
                    pathlib.Path(repro.__file__).parents[1]
                ),
                "REPRO_EXECUTOR": "process",
            },
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0
        assert "ConfigError" in result.stderr
        assert "REPRO_EXECUTOR" in result.stderr

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
    # A bad Runtime field fails at construction, before any entry point
    # runs, so the bad value goes onto the env layer instead: the module
    # global each resolver consults (its re-export of the parsed
    # ``REPRO_*`` default).  A bare ``Runtime()`` then reaches every
    # entry point, and only resolution can fail.
    @pytest.mark.parametrize(
        "bad",
        [
            (parallel_mod, "DEFAULT_EXECUTOR", "fork"),
            (batch_mod, "DEFAULT_BACKEND", "numba"),
            (store_mod, "DEFAULT_STORE", "s3"),
            (parallel_mod, "DEFAULT_WORKERS", -2),
            (batch_mod, "DEFAULT_MODEL", "sir"),
        ],
    )
    def test_every_entry_point_validates_at_entry(
        self, small_random_graph, small_campaign, piece_graph, monkeypatch,
        bad,
    ):
        calls = {
            name: make(small_random_graph, small_campaign, piece_graph)
            for name, make in ENTRY_POINTS.items()
        }
        monkeypatch.setattr(*bad)
        for name, call in calls.items():
            with pytest.raises(ConfigError):
                call(runtime=Runtime())
                pytest.fail(f"{name} accepted {bad[1]}={bad[2]!r}")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad",
        [{"runtime": {"backend": "numba"}}, {"seed": -1}],
        ids=["non-runtime", "negative-seed"],
    )
    def test_entry_point_rejects_non_runtime_and_bad_seed(
        self, small_random_graph, small_campaign, piece_graph, entry, bad
    ):
        call = ENTRY_POINTS[entry](
            small_random_graph, small_campaign, piece_graph
        )
        with pytest.raises(ConfigError):
            call(**bad)

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


# --------------------------------------------------------------------------
# The runtime path: bit-identical to the no-knobs default, observable
# --------------------------------------------------------------------------


class TestLegacyBitIdentity:
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
