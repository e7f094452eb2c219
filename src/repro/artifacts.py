"""Content-addressed artifact cache behind the staged pipeline.

Every expensive product of the pipeline — a sampled RR collection, its
inverted index, a solved seed-set plan — is cached under an
:class:`ArtifactKey` built from *what produced it*: the graph content
fingerprint, the campaign fingerprint, the cache-relevant slice of the
resolved runtime (:meth:`ResolvedRuntime.cache_key`), the stage name,
and stage-specific extras (theta, solver options, ...).  Identical
inputs therefore hit the cache instead of resampling, and two solvers
over the same campaign share one sampled collection.

Two backends:

- :class:`MemoryArtifactStore` — a per-process dict; ``"memory"``
  resolves to one shared process-global instance so separate Sessions
  in one interpreter share artifacts.
- :class:`DiskArtifactStore` — an on-disk object store under
  ``root/objects/<digest[:2]>/<digest>/``.  Array payloads live in
  ``arrays.npz``; directory payloads (out-of-core shard collections)
  live in the object directory itself.  Producers build every object in
  a private staging directory under ``root/tmp/`` and the commit is one
  atomic directory rename, so concurrent workers missing the same key
  (the cold-start stampede) each build privately and the duplicate
  commit is a benign no-op — a half-written object can never be read as
  a hit because it is never visible under ``objects/`` at all.

The store keeps persistent hit/miss/put counters; each process writes
its own delta file under ``root/stats.d/`` (atomically, no shared
read-modify-write), and :meth:`DiskArtifactStore.stats` merges the
deltas — so N workers hammering one store lose no counts, and a
truncated legacy ``stats.json`` reads as empty instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
import uuid
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError, StoreError
from repro.utils.locks import FileLease

__all__ = [
    "Artifact",
    "ArtifactKey",
    "ArtifactStore",
    "DiskArtifactStore",
    "MemoryArtifactStore",
    "ProducerFlight",
    "piece_graphs_digest",
    "resolve_artifact_store",
]

_META = "meta.json"
_ARRAYS = "arrays.npz"
_STATS = "stats.json"
_STATS_DIR = "stats.d"
_STAGING_DIR = "tmp"
_FORMAT = 4
_STAT_FIELDS = ("hits", "misses", "puts")


def piece_graphs_digest(piece_graphs: Sequence) -> str:
    """Digest of projected per-piece graphs (sha256 hex).

    Sampling consumes the *projected* piece graphs, not the topic graph
    directly — LT pieces are weight-normalised, and callers may pass
    custom projections — so sample keys hash the actual structures that
    the samplers walk.
    """
    h = hashlib.sha256()
    h.update(f"pieces:v1:l={len(piece_graphs)}:".encode())
    for pg in piece_graphs:
        h.update(f"n={pg.n}:".encode())
        h.update(pg.out_ptr.tobytes())
        h.update(pg.out_dst.tobytes())
        h.update(pg.out_prob.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ArtifactKey:
    """What produced an artifact: the full causal input set, hashed.

    ``extra`` carries stage-specific discriminators (theta, method,
    solver options, ...) as ``"name=value"`` strings.
    """

    graph: str
    campaign: str
    runtime: str
    stage: str
    extra: tuple[str, ...] = ()

    @property
    def token(self) -> str:
        """Human-readable key string (also what gets hashed)."""
        parts = [
            f"v{_FORMAT}",
            f"graph={self.graph}",
            f"campaign={self.campaign}",
            f"runtime={self.runtime}",
            f"stage={self.stage}",
        ]
        parts.extend(self.extra)
        return ":".join(parts)

    @property
    def digest(self) -> str:
        """Content address of this key (sha256 hex of :attr:`token`)."""
        return hashlib.sha256(self.token.encode()).hexdigest()


@dataclass(frozen=True)
class Artifact:
    """A cached stage product: metadata, arrays, and/or a directory."""

    key: ArtifactKey
    meta: Mapping[str, object]
    arrays: Mapping[str, np.ndarray] = field(default_factory=dict)
    path: str | None = None


#: How long a flight waiter polls for the producer's commit before
#: giving up and producing privately (a benign duplicate).
DEFAULT_FLIGHT_TIMEOUT = 300.0
_FLIGHT_POLL = 0.05


class ProducerFlight:
    """Cross-process single-flight for one artifact key.

    On a cache miss, ``claim()`` decides whether this process produces
    the artifact (``True``) or should wait for whoever already claimed
    it; ``wait(fetch)`` polls ``fetch`` (typically ``lambda:
    store.get(key)``) until the producer commits, dies, or the timeout
    lapses.  ``wait`` returning ``None`` means *you are now the
    producer* — either the lease was inherited from a dead producer or
    the wait timed out and a private (benignly duplicated) production
    is the fallback.  ``release()`` is idempotent; callers put it in a
    ``finally`` around the production.

    This base class is the in-process store's trivial flight: claims
    always succeed (the Session layer already single-flights within a
    process), so behaviour without a disk store is unchanged.
    """

    def claim(self) -> bool:
        return True

    def wait(
        self,
        fetch,
        *,
        timeout: float = DEFAULT_FLIGHT_TIMEOUT,
        poll: float = _FLIGHT_POLL,
    ):
        return None

    def release(self) -> None:
        return None

    def __enter__(self) -> "ProducerFlight":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _DiskProducerFlight(ProducerFlight):
    """Lease-backed flight next to the disk store's staging area.

    The lock file lives under ``root/tmp/`` (the staging directory),
    keyed by the artifact digest, so any process sharing the store's
    filesystem participates.  A claimed flight starts a keepalive so a
    long production is never stolen from a live producer; waits sleep
    with jitter (plain ``time.sleep`` — Ctrl-C interrupts immediately).
    """

    def __init__(self, root: str, key: ArtifactKey) -> None:
        path = os.path.join(
            root, _STAGING_DIR, f"{key.digest}.flight.lock"
        )
        self._lease = FileLease(path, payload={"stage": key.stage})

    def claim(self) -> bool:
        if not self._lease.try_acquire():
            return False
        self._lease.keepalive()
        return True

    def wait(
        self,
        fetch,
        *,
        timeout: float = DEFAULT_FLIGHT_TIMEOUT,
        poll: float = _FLIGHT_POLL,
    ):
        deadline = time.monotonic() + float(timeout)
        while time.monotonic() < deadline:
            time.sleep(poll * (0.5 + random.random()))
            obj = fetch()
            if obj is not None:
                return obj
            if self._lease.try_acquire():
                # Producer vanished (released without committing, or
                # died and the lease expired).  One more fetch under
                # the lock — commit-then-release is not atomic — then
                # the caller inherits the production.
                obj = fetch()
                if obj is not None:
                    self.release()
                    return obj
                self._lease.keepalive()
                return None
        return None

    def release(self) -> None:
        self._lease.release()


class ArtifactStore:
    """Maps :class:`ArtifactKey` → cached stage product.

    Subclasses implement ``get``/``put``.  Stores that can host
    directory payloads (shard collections) set ``hosts_directories``
    and implement ``stage_dir``/``commit``: the producer writes into
    ``stage_dir(key)`` and the artifact only becomes visible once
    ``commit`` lands its metadata, so interrupted work is a plain miss.
    Cross-process coordination on a miss goes through
    :meth:`producer_flight` (a no-op claim for in-process stores).
    """

    kind = "abstract"
    hosts_directories = False

    def get(self, key: ArtifactKey) -> Artifact | None:
        raise NotImplementedError

    def put(
        self,
        key: ArtifactKey,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Artifact:
        raise NotImplementedError

    def stage_dir(self, key: ArtifactKey) -> str:
        raise StoreError(
            f"{type(self).__name__} cannot host directory artifacts"
        )

    def commit(self, key: ArtifactKey, meta: Mapping[str, object]) -> Artifact:
        raise StoreError(
            f"{type(self).__name__} cannot host directory artifacts"
        )

    def producer_flight(self, key: ArtifactKey) -> ProducerFlight:
        """A single-flight handle for producing ``key`` (see above)."""
        return ProducerFlight()

    def stats(self) -> dict[str, int]:
        raise NotImplementedError


class MemoryArtifactStore(ArtifactStore):
    """In-process artifact cache: a dict keyed by the key digest."""

    kind = "memory"
    hosts_directories = False

    def __init__(self) -> None:
        self._objects: dict[str, Artifact] = {}
        self._stats = {"hits": 0, "misses": 0, "puts": 0}

    def get(self, key: ArtifactKey) -> Artifact | None:
        found = self._objects.get(key.digest)
        if found is None:
            self._stats["misses"] += 1
            return None
        self._stats["hits"] += 1
        return found

    def put(self, key, meta, arrays=None):
        artifact = Artifact(
            key=key,
            meta=dict(meta),
            arrays={k: np.asarray(v) for k, v in dict(arrays or {}).items()},
        )
        self._objects[key.digest] = artifact
        self._stats["puts"] += 1
        return artifact

    def stats(self) -> dict[str, int]:
        return dict(self._stats)

    def __len__(self) -> int:
        return len(self._objects)


class DiskArtifactStore(ArtifactStore):
    """On-disk content-addressed artifact cache.

    Layout::

        root/
          stats.json         # legacy base counters (read, never written)
          stats.d/           # one delta file per writer process
          tmp/               # private staging dirs, renamed into place
          objects/<digest[:2]>/<digest>/
            meta.json        # records the full key token
            arrays.npz       # array payloads (absent for directory payloads)
            ...              # directory payloads write siblings here

    ``meta.json`` records the full key token, so a digest collision or
    a stale directory from an older key scheme is detected and treated
    as a miss rather than served.

    Multi-process contract: any number of processes may share one root.
    Objects become visible only through an atomic directory rename out
    of ``tmp/`` (a losing racer's commit is a benign no-op), and each
    writer owns a private counter file under ``stats.d/`` so counter
    updates are never a shared read-modify-write.
    """

    kind = "disk"
    hosts_directories = True

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
        os.makedirs(os.path.join(self.root, _STATS_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.root, _STAGING_DIR), exist_ok=True)
        # This writer's private counter deltas (see stats()).
        self._delta = dict.fromkeys(_STAT_FIELDS, 0)
        self._delta_path = os.path.join(
            self.root,
            _STATS_DIR,
            f"{os.getpid()}-{uuid.uuid4().hex[:8]}.json",
        )
        # Staging dirs handed out by stage_dir(), keyed by key digest,
        # consumed by commit().
        self._staging: dict[str, str] = {}

    # -- layout ---------------------------------------------------------

    def _object_dir(self, key: ArtifactKey) -> str:
        digest = key.digest
        return os.path.join(self.root, "objects", digest[:2], digest)

    def _new_staging_dir(self) -> str:
        return tempfile.mkdtemp(
            dir=os.path.join(self.root, _STAGING_DIR), prefix="stage-"
        )

    # -- stats ----------------------------------------------------------

    def _bump(self, field_name: str) -> None:
        """Count one event — private delta file, no shared writes.

        The historical implementation read ``stats.json``, incremented,
        and wrote it back; with several processes sharing a root that
        read-modify-write lost updates.  Each writer now owns one file
        under ``stats.d/`` rewritten atomically with *its own* totals,
        and readers merge.
        """
        self._delta[field_name] += 1
        fd, tmp = tempfile.mkstemp(
            dir=os.path.join(self.root, _STATS_DIR), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._delta, fh)
            os.replace(tmp, self._delta_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @staticmethod
    def _read_counters(path: str) -> dict:
        """Tolerant counter read: truncated/missing/partial == empty."""
        try:
            with open(path) as fh:
                stats = json.load(fh)
        except (OSError, ValueError):
            return {}
        return stats if isinstance(stats, dict) else {}

    def stats(self) -> dict[str, int]:
        """Store-wide counters: legacy base plus every writer's deltas."""
        totals = self._read_counters(os.path.join(self.root, _STATS))
        merged = {f: int(totals.get(f, 0)) for f in _STAT_FIELDS}
        stats_dir = os.path.join(self.root, _STATS_DIR)
        try:
            names = sorted(os.listdir(stats_dir))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            delta = self._read_counters(os.path.join(stats_dir, name))
            for f in _STAT_FIELDS:
                merged[f] += int(delta.get(f, 0))
        return merged

    # -- read -----------------------------------------------------------

    def get(self, key: ArtifactKey) -> Artifact | None:
        obj_dir = self._object_dir(key)
        meta_path = os.path.join(obj_dir, _META)
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            self._bump("misses")
            return None
        if meta.get("token") != key.token:
            # digest prefix collision or stale key scheme — not ours
            self._bump("misses")
            return None
        arrays: dict[str, np.ndarray] = {}
        arrays_path = os.path.join(obj_dir, _ARRAYS)
        if os.path.exists(arrays_path):
            with np.load(arrays_path) as payload:
                arrays = {name: payload[name] for name in payload.files}
        self._bump("hits")
        return Artifact(key=key, meta=meta, arrays=arrays, path=obj_dir)

    # -- write ----------------------------------------------------------

    def put(self, key, meta, arrays=None):
        staging = self._staging.get(key.digest)
        if staging is None:
            staging = self.stage_dir(key)
        if arrays:
            arrays = {k: np.asarray(v) for k, v in dict(arrays).items()}
            with open(os.path.join(staging, _ARRAYS), "wb") as fh:
                np.savez(fh, **arrays)
        return self.commit(key, meta)

    def stage_dir(self, key: ArtifactKey) -> str:
        """A *private* staging directory for one producer's payload.

        Every call hands out a fresh directory under ``root/tmp/``, so
        two workers building the same key never share scratch files
        (the stampede used to tear each other's index-build buckets);
        :meth:`commit` renames the whole staging directory into place
        atomically.
        """
        staging = self._new_staging_dir()
        self._staging[key.digest] = staging
        return staging

    def producer_flight(self, key: ArtifactKey) -> ProducerFlight:
        """Cross-process flight: a lease file next to the staging area.

        Any process sharing ``root`` participates, so N workers
        cold-starting on one key elect one producer and the rest poll
        :meth:`get` for its commit instead of all regenerating.
        Correctness never depends on it — a timed-out or inherited
        flight falls back to private production whose duplicate commit
        is the usual benign no-op.
        """
        return _DiskProducerFlight(self.root, key)

    def _committed_token_matches(self, obj_dir: str, key: ArtifactKey) -> bool:
        meta = self._read_counters(os.path.join(obj_dir, _META))
        return meta.get("token") == key.token

    def commit(self, key: ArtifactKey, meta: Mapping[str, object]) -> Artifact:
        """Atomically publish the staged payload under ``objects/``.

        Writes ``meta.json`` into the staging directory, then renames
        the directory into its content address — one atomic operation,
        so readers only ever see absent or complete objects.  When the
        destination already exists:

        - a matching token means another worker committed the same key
          first; identical keys produce identical payloads, so the
          duplicate commit is a benign no-op (the staging copy is
          discarded);
        - a mismatched/unreadable token is a stale object from an older
          key scheme occupying our address: it is swapped out (renamed
          aside, then deleted) and the new object swapped in.
        """
        staging = self._staging.pop(key.digest, None)
        if staging is None or not os.path.isdir(staging):
            staging = self._new_staging_dir()
        full_meta = dict(meta)
        full_meta["token"] = key.token
        with open(os.path.join(staging, _META), "w") as fh:
            json.dump(full_meta, fh)
        obj_dir = self._object_dir(key)
        os.makedirs(os.path.dirname(obj_dir), exist_ok=True)
        try:
            os.rename(staging, obj_dir)
        except OSError:
            if self._committed_token_matches(obj_dir, key):
                # concurrent winner with the same key: benign duplicate
                shutil.rmtree(staging, ignore_errors=True)
            else:
                # stale occupant (older key scheme / torn legacy write):
                # swap it aside, move ours in, then drop the old one.
                aside = self._new_staging_dir()
                try:
                    os.rename(obj_dir, os.path.join(aside, "old"))
                except OSError:
                    pass  # someone else already swapped it
                try:
                    os.rename(staging, obj_dir)
                except OSError:
                    if not self._committed_token_matches(obj_dir, key):
                        shutil.rmtree(aside, ignore_errors=True)
                        raise StoreError(
                            f"cannot commit artifact {key.digest[:16]}: "
                            f"{obj_dir} is occupied by an object that is "
                            "neither this key nor replaceable — remove it "
                            "or point REPRO_ARTIFACTS at a fresh directory"
                        )
                    shutil.rmtree(staging, ignore_errors=True)
                shutil.rmtree(aside, ignore_errors=True)
        self._bump("puts")
        return Artifact(key=key, meta=full_meta, arrays={}, path=obj_dir)


_MEMORY_SINGLETON: MemoryArtifactStore | None = None
_DISK_INSTANCES: dict[str, DiskArtifactStore] = {}


def resolve_artifact_store(spec) -> ArtifactStore | None:
    """Resolve an ``artifacts`` spec to a store instance (or None).

    - ``None`` / ``"off"`` → no caching.
    - ``"memory"`` → the shared process-global in-memory store.
    - a path string → a :class:`DiskArtifactStore` rooted there (one
      instance per resolved path, so stats accumulate coherently).
    - an :class:`ArtifactStore` instance → itself.
    """
    global _MEMORY_SINGLETON
    if spec is None or spec == "off":
        return None
    if isinstance(spec, ArtifactStore):
        return spec
    if spec == "memory":
        if _MEMORY_SINGLETON is None:
            _MEMORY_SINGLETON = MemoryArtifactStore()
        return _MEMORY_SINGLETON
    if isinstance(spec, (str, os.PathLike)):
        root = os.path.abspath(os.fspath(spec))
        store = _DISK_INSTANCES.get(root)
        if store is None:
            store = DiskArtifactStore(root)
            _DISK_INSTANCES[root] = store
        return store
    raise ConfigError(
        "artifacts must be None, 'off', 'memory', a directory path, or an "
        f"ArtifactStore instance, got {spec!r}"
    )
