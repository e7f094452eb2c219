"""Unified execution policy: the :class:`Runtime` config and its resolver.

Four PRs of scaling work left the reproduction with seven execution
knobs (``backend``, ``model``, ``workers``, ``executor``, ``store``,
``shard_dir``, ``max_resident_bytes``) copy-pasted across every entry
point, each re-resolving its environment overrides on its own.  This
module is the single execution surface that replaces that scatter:

:class:`Runtime`
    A frozen dataclass owning all execution policy — sampling backend,
    diffusion model(s), worker pool + executor, sample store + shard
    directory + memory budget, and the default RNG seed.  Every field
    defaults to ``None`` ("defer to the next layer"), values are
    validated at construction (:class:`~repro.exceptions.ConfigError`),
    and one ``Runtime`` object travels through a whole pipeline instead
    of seven kwargs through every call.

:func:`resolve_runtime`
    The one resolution order, applied the same way by every entry
    point::

        Runtime field  >  REPRO_* env  >  default

    A per-call ``seed=`` is the only execution value an entry point
    takes beside ``runtime=``; it beats ``Runtime.seed``.

Environment overrides (``REPRO_BACKEND``, ``REPRO_WORKERS``,
``REPRO_EXECUTOR``, ``REPRO_STORE``) are parsed here, once, at import —
the *only* place in
the tree that reads them.  The sampling modules re-export the parsed
defaults (``repro.sampling.batch.DEFAULT_BACKEND`` and friends) as the
env layer of the resolution order, so CI matrices and tests keep their
existing override points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigError

__all__ = [
    "BACKENDS",
    "DEFAULT_ARTIFACTS",
    "DEFAULT_BACKEND",
    "DEFAULT_DIST_LAUNCH",
    "DEFAULT_EXECUTOR",
    "DEFAULT_MODEL",
    "DEFAULT_SERVICE_WORKERS",
    "DEFAULT_SPOOL_DIR",
    "DEFAULT_STORE",
    "DEFAULT_WORKERS",
    "EXECUTORS",
    "MODELS",
    "STORES",
    "ResolvedRuntime",
    "Runtime",
    "as_runtime",
    "parse_env_artifacts",
    "parse_env_choice",
    "parse_env_nonnegative_int",
    "parse_env_positive_int",
    "parse_env_workers",
    "resolve_runtime",
]

# --------------------------------------------------------------------------
# Canonical knob vocabularies.  The sampling modules import these instead
# of defining their own, so one registry feeds validation everywhere.
# --------------------------------------------------------------------------

BACKENDS = ("python", "batch", "native")
MODELS = ("ic", "lt")
EXECUTORS = ("thread", "process", "spawned")
STORES = ("memory", "disk")

DEFAULT_MODEL = "ic"


def parse_env_choice(
    name: str, text: str | None, choices: tuple[str, ...]
) -> str | None:
    """Parse a choice-valued env knob; ``None``/empty means unset.

    Returns the validated choice, or ``None`` when the variable is
    unset (the empty string supports the ``REPRO_X= cmd``
    unset-for-one-command shell idiom).  Anything else raises
    :class:`ConfigError` naming the variable and its legal values.
    """
    if not text:
        return None
    if text not in choices:
        raise ConfigError(
            f"{name} must be one of {choices}, got {text!r}"
        )
    return text


def parse_env_workers(text: str | None):
    """Parse ``REPRO_WORKERS``: serial / auto / a positive pool size.

    Returns ``None`` (serial default), ``"auto"``, or a positive int.
    ``"serial"`` and ``"0"`` are explicit serial requests; anything
    unparsable raises :class:`ConfigError` up front, so a typo in the
    CI matrix fails at entry instead of inside pool construction.
    """
    if not text:
        return None
    if text in ("serial", "0"):
        return None
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(
            "REPRO_WORKERS must be 'auto', 'serial', or a positive "
            f"integer, got {text!r}"
        )
    return value


def parse_env_positive_int(name: str, text: str | None) -> int | None:
    """Parse a positive-integer env knob; ``None``/empty means unset."""
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(
            f"{name} must be a positive integer, got {text!r}"
        )
    return value


def parse_env_nonnegative_int(name: str, text: str | None) -> int | None:
    """Parse a ``>= 0`` integer env knob; ``None``/empty means unset.

    Unlike :func:`parse_env_positive_int`, ``0`` is a legal explicit
    value — ``REPRO_DIST_LAUNCH=0`` means "launch no workers, rely on
    hand-started ones".
    """
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(
            f"{name} must be an integer >= 0, got {text!r}"
        )
    return value


def parse_env_artifacts(text: str | None):
    """Parse ``REPRO_ARTIFACTS``: off / memory / an artifact directory.

    Returns ``None`` (caching off — the default), ``"memory"``, or the
    directory path for an on-disk :class:`~repro.artifacts.DiskArtifactStore`.
    """
    if not text or text == "off":
        return None
    return text


# The env layer of the resolution order — the ONLY place in the tree
# that reads the REPRO_* variables.  An invalid value raises ConfigError
# here, at import, naming the variable; unset/empty means "library
# default".  The sampling modules re-export these (their module globals
# are what the check_*/resolve_* helpers consult, keeping the historical
# monkeypatch points for tests and the CI matrices).
DEFAULT_BACKEND = (
    parse_env_choice("REPRO_BACKEND", os.environ.get("REPRO_BACKEND"), BACKENDS)
    or "batch"
)
DEFAULT_WORKERS = parse_env_workers(os.environ.get("REPRO_WORKERS"))
DEFAULT_EXECUTOR = (
    parse_env_choice(
        "REPRO_EXECUTOR", os.environ.get("REPRO_EXECUTOR"), EXECUTORS
    )
    or "thread"
)
# Distributed-sampling coordinator: how many worker processes to launch
# (None = the resolved ``workers`` width; 0 = launch none and rely on
# hand-started ``python -m repro.sampling.worker`` processes).
DEFAULT_DIST_LAUNCH = parse_env_nonnegative_int(
    "REPRO_DIST_LAUNCH", os.environ.get("REPRO_DIST_LAUNCH")
)
DEFAULT_STORE = (
    parse_env_choice("REPRO_STORE", os.environ.get("REPRO_STORE"), STORES)
    or "memory"
)
DEFAULT_ARTIFACTS = parse_env_artifacts(os.environ.get("REPRO_ARTIFACTS"))

# Influence-service knobs (repro.service): worker-pool width of a
# JobQueue and the job-spool directory.  Parsed here — the single
# REPRO_* site — and consumed by repro.service as its env layer.
DEFAULT_SERVICE_WORKERS = (
    parse_env_positive_int(
        "REPRO_SERVICE_WORKERS", os.environ.get("REPRO_SERVICE_WORKERS")
    )
    or 2
)
DEFAULT_SPOOL_DIR = os.environ.get("REPRO_SPOOL") or None


# --------------------------------------------------------------------------
# Field validators (construction-time; resolution happens later).
# --------------------------------------------------------------------------


def _check_choice(name: str, value, choices: tuple[str, ...]):
    if value is None:
        return None
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _check_model_field(model):
    """Validate the ``model`` field: a name, a per-piece sequence, or None."""
    if model is None or model in MODELS:
        return model
    if isinstance(model, str):
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    try:
        models = tuple(model)
    except TypeError:
        raise ConfigError(
            f"model must be one of {MODELS} or a sequence of them, "
            f"got {model!r}"
        ) from None
    for m in models:
        _check_choice("model", m, MODELS)
    return models


def _check_workers_field(workers):
    """Validate the ``workers`` field without resolving 'auto' or env."""
    if workers is None or workers in ("auto", "serial"):
        return workers
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be None, 'auto', 'serial', or an int, "
            f"got {workers!r}"
        )
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return workers


def _check_store_field(store):
    if store is None or store in STORES:
        return store
    # A pre-constructed SampleStore instance is legal everywhere the
    # name is; imported lazily to keep this module a leaf.
    from repro.sampling.store import SampleStore

    if isinstance(store, SampleStore):
        return store
    raise ConfigError(
        f"store must be one of {STORES} or a SampleStore instance, "
        f"got {store!r}"
    )


def _check_artifacts_field(artifacts):
    """Validate the ``artifacts`` field: off/memory/path/instance/None."""
    if artifacts is None or artifacts in ("memory", "off"):
        return artifacts
    if isinstance(artifacts, (str, os.PathLike)):
        return os.fspath(artifacts)
    # A pre-constructed ArtifactStore instance; imported lazily to keep
    # this module a leaf.
    from repro.artifacts import ArtifactStore

    if isinstance(artifacts, ArtifactStore):
        return artifacts
    raise ConfigError(
        "artifacts must be None, 'off', 'memory', a directory path, or "
        f"an ArtifactStore instance, got {artifacts!r}"
    )


def _check_max_resident(value):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(
            f"max_resident_bytes must be a positive integer, got {value!r}"
        )
    return value


def _check_seed(seed):
    """Validate an RNG seed at the boundary; integers come back as ``int``.

    Allowed: ``None`` (fresh entropy), a non-negative integer (a
    reproducible draw), a ``numpy.random.Generator`` or a
    ``numpy.random.SeedSequence``.
    """
    if seed is None or isinstance(
        seed, (np.random.Generator, np.random.SeedSequence)
    ):
        return seed
    if (
        isinstance(seed, (bool, np.bool_))
        or not isinstance(seed, (int, np.integer))
        or seed < 0
    ):
        raise ConfigError(
            "seed must be None, a non-negative integer, a numpy "
            f"Generator or a SeedSequence, got {seed!r}"
        )
    return int(seed)


class _ShardDirKeying:
    """Shared helper: key the shard directory per generated collection.

    One runtime travels through a whole pipeline, but every generated
    collection needs its own shard directory (a reused directory with
    different dimensions fails the manifest check).  Every caller that
    generates several collections off one runtime — the session's
    opt/eval roles, the adaptive doubler's attempts, the harness's
    sweep cells — derives per-collection runtimes through this one
    helper instead of re-implementing the keying.
    """

    def with_shard_subdir(self, *parts):
        """A copy whose ``shard_dir`` gains a ``parts`` subdirectory.

        No-op when no shard directory is configured (private temp dirs
        are already per-collection).
        """
        if self.shard_dir is None:
            return self
        return self.replace(
            shard_dir=os.path.join(self.shard_dir, *map(str, parts))
        )


@dataclass(frozen=True)
class Runtime(_ShardDirKeying):
    """All execution policy for one pipeline, in one frozen object.

    Every field defaults to ``None``, meaning "defer to the next layer
    of the resolution order" (``REPRO_*`` env override, then the
    library default).  Invalid values fail at construction with
    :class:`ConfigError`, so a typo surfaces where the ``Runtime`` is
    built rather than deep inside pool or kernel setup.

    Fields
    ------
    backend:
        Sampling/cascade kernel engine — ``"batch"`` (vectorized,
        default), ``"python"`` (reference loops), or ``"native"``
        (Numba-compiled tier; falls back to ``"batch"`` with a
        one-time warning when Numba is not importable — see
        :mod:`repro.native`).
    model:
        Diffusion model(s): ``"ic"`` (default) / ``"lt"``, or a
        per-piece sequence for heterogeneous multiplex campaigns.
    workers:
        Parallel-runtime fan-out: ``"serial"``/``0`` run inline,
        ``"auto"`` sizes the pool to the machine, a positive int fixes
        the pool size.  ``None`` defers to ``REPRO_WORKERS`` (else
        inline) like every other field.  Every width draws the same
        samples.
    executor:
        Pool flavour — ``"thread"`` (default), ``"process"``, or
        ``"spawned"``.  ``"spawned"`` is the distributed runtime: disk
        generations are filled by N *independent* worker processes
        cooperating through work-leases next to the shard directory
        (launched by the coordinator, or started by hand with
        ``python -m repro.sampling.worker`` on machines sharing the
        filesystem — see DISTRIBUTED.md); entry points without a
        shard-store rendezvous degrade to a process pool.  ``None``
        defers to ``REPRO_EXECUTOR`` (else ``"thread"``).
    store:
        Sample-store layer — ``"memory"`` (default), ``"disk"``, or a
        pre-constructed :class:`~repro.sampling.store.SampleStore`.
        Names build a fresh store per generated collection; an
        *instance* is single-use (one generation — a second one fails
        loudly with :class:`~repro.exceptions.StoreError` instead of
        serving stale arrays), so pipelines that generate several
        collections off one runtime should pass a name.
    shard_dir:
        Root directory for disk-store shards (``None`` = private temp).
    max_resident_bytes:
        Resident ceiling for disk-store managed caches.
    artifacts:
        Content-addressed artifact cache — ``"memory"`` (process-wide
        dict), a directory path (on-disk store, survives processes),
        a pre-constructed :class:`~repro.artifacts.ArtifactStore`, or
        ``"off"`` to force caching off even when ``REPRO_ARTIFACTS``
        is set.  ``None`` defers to ``REPRO_ARTIFACTS`` (else off).
    seed:
        Default RNG seed policy: used whenever an entry point is not
        given a per-call ``seed``.  ``None``, a non-negative integer, a
        ``numpy.random.Generator`` or a ``SeedSequence``; anything else
        fails resolution with :class:`ConfigError`.
    """

    backend: str | None = None
    model: object = None
    workers: object = None
    executor: str | None = None
    store: object = None
    shard_dir: str | None = None
    max_resident_bytes: int | None = None
    artifacts: object = None
    seed: object = None

    def __post_init__(self) -> None:
        _check_choice("backend", self.backend, BACKENDS)
        object.__setattr__(self, "model", _check_model_field(self.model))
        _check_workers_field(self.workers)
        _check_choice("executor", self.executor, EXECUTORS)
        _check_store_field(self.store)
        _check_max_resident(self.max_resident_bytes)
        object.__setattr__(
            self, "artifacts", _check_artifacts_field(self.artifacts)
        )
        if self.shard_dir is not None:
            object.__setattr__(self, "shard_dir", os.fspath(self.shard_dir))

    def replace(self, **changes) -> "Runtime":
        """A copy with selected fields replaced (re-validated)."""
        return replace(self, **changes)

    def resolve(self, *, seed=None) -> "ResolvedRuntime":
        """Resolve this runtime (see :func:`resolve_runtime`)."""
        return resolve_runtime(self, seed=seed)


@dataclass(frozen=True)
class ResolvedRuntime(_ShardDirKeying):
    """A :class:`Runtime` with every layer of the order applied.

    All fields are concrete: ``backend``/``executor`` are validated
    names, ``workers`` is the resolved pool width (``0`` = inline),
    ``store`` is a validated name or a
    :class:`~repro.sampling.store.SampleStore` instance.  Re-resolving
    a ``ResolvedRuntime`` is idempotent — concrete fields never fall
    through to the env layer again — which lets an entry point resolve
    once and hand the result to its internal helpers.
    """

    backend: str
    model: object
    workers: int
    executor: str
    store: object
    shard_dir: str | None
    max_resident_bytes: int | None
    artifacts: object
    seed: object

    @property
    def pool_width(self) -> int | None:
        """Pool size for the parallel runtime (``None`` = inline)."""
        return self.workers or None

    def replace(self, **changes) -> "ResolvedRuntime":
        return replace(self, **changes)

    def models_for(self, num_pieces: int) -> tuple[str, ...]:
        """One validated diffusion-model name per piece."""
        from repro.sampling.mrr import resolve_models

        return resolve_models(self.model, num_pieces)

    def single_model(self) -> str:
        """The one diffusion model of a single-graph entry point.

        Scalars (and one-element sequences) resolve as usual; a
        longer per-piece sequence cannot describe a single influence
        graph and fails at entry with :class:`ConfigError`.
        """
        model = self.model
        if model is not None and not isinstance(model, str):
            if len(model) != 1:
                raise ConfigError(
                    "this entry point runs on a single influence graph "
                    f"and takes one diffusion model, got {model!r}"
                )
            model = model[0]
        from repro.sampling.batch import check_model

        return check_model(model)

    def cache_key(self) -> str:
        """The cache-relevant slice of this runtime, as a stable string.

        Only knobs that can change *results* participate: ``backend``
        (kernel engine), ``model`` (diffusion semantics), and ``seed``
        (the draw).  ``workers``/``executor`` are excluded because the
        parallel runtime is bit-identical across pool sizes and pool
        flavours — ``"spawned"`` (the distributed topology) folds in
        with thread/process pools for the same reason: the
        worker-count-independent task decomposition pins identical
        outputs for every topology — and
        ``store``/``shard_dir``/``max_resident_bytes``
        because the memory and disk stores hold the same collection —
        so a sweep may vary any of those and still share artifacts.
        ``"native"`` keys as ``"batch"``: the compiled tier is
        bit-identical to the batch kernels by contract (same draw
        order, same float accumulation — see :mod:`repro.native`), so
        the two engines share sample artifacts; ``"python"`` stays a
        distinct key because its multi-root realisations legitimately
        differ.  A non-integer seed is an unreproducible draw and keys
        as such; callers gate cache *writes* on reproducibility
        separately.
        """
        backend = "batch" if self.backend == "native" else self.backend
        model = self.model if self.model is not None else DEFAULT_MODEL
        if not isinstance(model, str):
            model = ",".join(model)
        if isinstance(self.seed, int) and not isinstance(self.seed, bool):
            seed = str(self.seed)
        else:
            seed = "unreproducible"
        return f"backend={backend}:model={model}:seed={seed}"

    def artifact_store(self):
        """The resolved artifact store instance, or ``None`` (off)."""
        from repro.artifacts import resolve_artifact_store

        return resolve_artifact_store(self.artifacts)

    def store_for_generate(self):
        """The store one generation fills: the caller's instance, or a
        fresh :class:`~repro.sampling.store.MemoryStore` /
        :class:`~repro.sampling.store.ShardStore` for a store name."""
        from repro.sampling.store import resolve_store

        return resolve_store(
            self.store,
            shard_dir=self.shard_dir,
            max_resident_bytes=self.max_resident_bytes,
        )


#: The all-defaults runtime every entry point falls back on.
_DEFAULT_RUNTIME = Runtime()


def as_runtime(runtime) -> Runtime:
    """Coerce ``None`` / :class:`Runtime` into a :class:`Runtime`."""
    if runtime is None:
        return _DEFAULT_RUNTIME
    if isinstance(runtime, (Runtime, ResolvedRuntime)):
        return runtime
    raise ConfigError(
        f"runtime must be a Runtime (or None), got {type(runtime).__name__}"
    )


def resolve_runtime(runtime=None, *, seed=None) -> ResolvedRuntime:
    """Apply the centralized resolution order and validate every knob.

    ``runtime`` is a :class:`Runtime`, a :class:`ResolvedRuntime`
    (idempotent pass-through), or ``None``.  Each unset field falls
    through to the ``REPRO_*`` env layer and finally the library
    default; a per-call ``seed``, when not ``None``, beats
    ``Runtime.seed``.  Every knob — including ones a given entry point
    never exercises — is validated here, raising :class:`ConfigError`,
    so a bad ``executor`` string — or a seed outside ``None`` /
    non-negative int / ``Generator`` / ``SeedSequence`` — fails at
    entry even on an inline path that would never touch it.
    """
    base = as_runtime(runtime)
    # env > default is applied by the check_*/resolve_* helpers of the
    # owning modules (their module globals re-export the env defaults
    # parsed above).
    from repro.sampling.batch import check_backend
    from repro.sampling.parallel import check_executor, resolve_workers
    from repro.sampling.store import SampleStore, check_store

    artifacts = base.artifacts
    if artifacts is None:
        # Module global, read at call time so tests can monkeypatch the
        # env layer off without touching os.environ.
        artifacts = DEFAULT_ARTIFACTS
    # NB: an explicit "off" stays "off" in the resolved field (it only
    # becomes None inside artifact_store()) — normalising it here would
    # let the REPRO_ARTIFACTS default leak back in when a resolved
    # runtime is re-resolved downstream.
    artifacts = _check_artifacts_field(artifacts)
    store = base.store
    if not isinstance(store, SampleStore):
        store = check_store(_check_store_field(store))
    return ResolvedRuntime(
        backend=check_backend(base.backend),
        model=_check_model_field(base.model),
        workers=resolve_workers(base.workers) or 0,
        executor=check_executor(base.executor),
        store=store,
        shard_dir=base.shard_dir,
        max_resident_bytes=_check_max_resident(base.max_resident_bytes),
        artifacts=artifacts,
        seed=_check_seed(seed if seed is not None else base.seed),
    )
