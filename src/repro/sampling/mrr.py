"""Multi-Reverse-Reachable (MRR) collections — the paper's Sec. V-A.

The MRR method extends RR sampling to multifaceted campaigns: ``theta``
root users are drawn uniformly, and for each root one RR set is generated
*per piece*, under that piece's projected influence graph.  With
``I_i^{S_j} = I[R_i^j ∩ S_j ≠ ∅]``, the adoption utility of a plan
``S-bar`` is estimated (Eq. 6 + Eq. 1's zero branch, Lemma 2) as

    sigma(S-bar) ≈ (n / theta) * sum_i g(sum_j I_i^{S_j})

where ``g`` is the logistic adoption probability (zero when no piece
covers the sample).

Besides the raw sets, the collection maintains one inverted index per
piece (vertex -> sample ids whose RR set contains the vertex).  Every
solver in :mod:`repro.core` and every RIS baseline drives its coverage
bookkeeping through these indexes.

Where the arrays actually live is delegated to a pluggable
:class:`~repro.sampling.store.SampleStore`: the default
:class:`~repro.sampling.store.MemoryStore` keeps everything in RAM
(bit-for-bit the historical layout), while
:class:`~repro.sampling.store.ShardStore` spills root-block shards to
disk and serves queries through bounded reads — same indexes, same
estimates, theta beyond RAM.  Batch consumers that must stay
memory-bounded iterate :meth:`MRRCollection.iter_index_slabs` instead
of gathering a whole candidate pool's slabs at once.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.artifacts import ArtifactKey, piece_graphs_digest
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.exceptions import SamplingError, StoreBusyError, StoreError
from repro.graph.digraph import TopicGraph
from repro.sampling.batch import check_model
from repro.sampling.store import (
    MemoryStore,
    SampleStore,
    ShardStore,
    _chunk_bounds,
    store_fingerprint,
)
from repro.topics.distributions import Campaign
from repro.utils.validation import (
    check_index_array,
    check_piece_graphs_aligned,
    check_positive_int,
)

__all__ = [
    "MRRCollection",
    "generate_keyed",
    "resolve_models",
    "sample_key",
]


def resolve_models(model, num_pieces: int) -> tuple[str, ...]:
    """Normalise a diffusion-model choice into one name per piece.

    ``model`` may be ``None`` (the default model for every piece), a
    single name applied to every piece, or a sequence of per-piece
    names — the heterogeneous mixed-model workload of multiplex IM.
    """
    if model is None or isinstance(model, str):
        return (check_model(model),) * num_pieces
    models = tuple(check_model(m) for m in model)
    if len(models) != num_pieces:
        raise SamplingError(
            f"{len(models)} diffusion models for {num_pieces} pieces"
        )
    return models


class MRRCollection:
    """``theta`` MRR samples: per-piece RR sets sharing common roots."""

    __slots__ = ("n", "theta", "num_pieces", "roots", "store")

    def __init__(
        self,
        n: int,
        roots: np.ndarray,
        rr_ptr: Sequence[np.ndarray] | None = None,
        rr_nodes: Sequence[np.ndarray] | None = None,
        *,
        store: SampleStore | None = None,
    ) -> None:
        self.n = int(n)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.theta = int(self.roots.size)
        if store is not None:
            if rr_ptr is not None or rr_nodes is not None:
                raise SamplingError(
                    "pass raw (rr_ptr, rr_nodes) arrays or a store, not both"
                )
            if not store.finalized:
                raise StoreError(
                    "MRRCollection needs a finalized store — call "
                    "store.finalize() after committing every block"
                )
            if store.n != self.n or store.theta != self.theta:
                raise SamplingError(
                    f"store holds (n={store.n}, theta={store.theta}), "
                    f"expected (n={self.n}, theta={self.theta})"
                )
            self.num_pieces = store.num_pieces
            self.store = store
            return
        if not rr_ptr or len(rr_ptr) != len(rr_nodes):
            raise SamplingError("need one (ptr, nodes) pair per piece")
        self.num_pieces = len(rr_ptr)
        rr_ptr = [np.asarray(p, dtype=np.int64) for p in rr_ptr]
        rr_nodes = [np.asarray(x, dtype=np.int64) for x in rr_nodes]
        for j in range(self.num_pieces):
            if rr_ptr[j].shape != (self.theta + 1,):
                raise SamplingError(
                    f"piece {j}: ptr length {rr_ptr[j].shape} != theta+1"
                )
        self.store = MemoryStore.from_arrays(self.n, rr_ptr, rr_nodes)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        graph: TopicGraph,
        campaign: Campaign,
        theta: int,
        *,
        seed=None,
        piece_graphs: Sequence[PieceGraph] | None = None,
        runtime=None,
    ) -> "MRRCollection":
        """Generate ``theta`` MRR samples for ``campaign`` on ``graph``.

        Mirrors Sec. V-A: roots are uniform over ``V``; for each root one
        RR set per piece under the piece's projection.  Pass pre-computed
        ``piece_graphs`` to skip re-projection (the experiment harness
        reuses projections between the optimisation and evaluation
        collections).

        All execution policy — sampling ``backend``, diffusion
        ``model(s)``, the parallel runtime (``workers``/``executor``),
        and the sample-store layer (``store``/``shard_dir``/
        ``max_resident_bytes``) — lives on one
        :class:`repro.runtime.Runtime` passed as ``runtime=`` and is
        resolved with the centralized order (Runtime field >
        ``REPRO_*`` env > default; a per-call ``seed`` beats
        ``Runtime.seed``).  LT pieces should be weight-normalised first
        (:func:`repro.diffusion.threshold.normalize_lt_weights`).

        Every generation draws the one coordinate-keyed stream of
        :mod:`repro.sampling.parallel`: for a given seed the roots and
        RR sets are bit-identical across stores, worker counts and
        executors; disk stores additionally resume interrupted shard
        directories and reload finished ones.

        When the resolved runtime carries an artifact store
        (``Runtime(artifacts=...)`` / ``REPRO_ARTIFACTS``) and the
        generation is reproducible — integer seed, no caller-owned
        shard directory or store instance — the sampled collection is
        served from / written to the content-addressed cache; cached
        results are bit-identical to a fresh generation.
        """
        collection, _events, _key = cls.generate_traced(
            graph,
            campaign,
            theta,
            seed=seed,
            piece_graphs=piece_graphs,
            runtime=runtime,
        )
        return collection

    @classmethod
    def generate_traced(
        cls,
        graph: TopicGraph,
        campaign: Campaign,
        theta: int,
        *,
        seed=None,
        piece_graphs: Sequence[PieceGraph] | None = None,
        runtime=None,
        pool=None,
    ) -> tuple["MRRCollection", list[tuple[str, str]], ArtifactKey | None]:
        """:meth:`generate` plus its pipeline trace and artifact key.

        Returns ``(collection, events, key)`` where ``events`` is a
        list of ``(stage, action)`` pairs over the ``sample`` / ``index``
        stages (``action`` is ``"run"`` or ``"hit"``), and ``key`` is
        the sample-stage :class:`~repro.artifacts.ArtifactKey` when the
        generation was cache-eligible, else ``None``.  The Session
        records the events on its pipeline trace and folds the key
        digest into downstream solve-stage keys.  A freshly-sampled
        ``("sample", "run")`` event is a
        :class:`~repro.pipeline.TraceEvent` whose ``extra`` reports the
        stream entropy and the effective block geometry (the per-task
        root block and the adaptive kernel block).

        ``pool`` lends a caller-owned executor to the sampling tasks
        (the Session's warm pool); ownership and shutdown stay with the
        caller.
        """
        from repro.pipeline import TraceEvent
        from repro.runtime import resolve_runtime
        from repro.sampling.batch import adaptive_block_size, check_backend
        from repro.sampling.parallel import (
            keyed_roots,
            resolve_entropy,
            task_block_size,
        )

        rt = resolve_runtime(runtime, seed=seed)
        theta = check_positive_int("theta", theta)
        if graph.n == 0:
            raise SamplingError("cannot sample from an empty graph")
        if piece_graphs is None:
            piece_graphs = project_campaign(graph, campaign)
        elif len(piece_graphs) != campaign.num_pieces:
            raise SamplingError(
                f"{len(piece_graphs)} piece graphs for "
                f"{campaign.num_pieces} pieces"
            )
        check_piece_graphs_aligned(
            piece_graphs,
            graph.n,
            reference="the campaign graph",
            exc=SamplingError,
        )
        piece_graphs = list(piece_graphs)
        models = resolve_models(rt.model, campaign.num_pieces)
        graph_fp = graph.fingerprint()
        pieces_fp = piece_graphs_digest(piece_graphs)
        store_obj = rt.store_for_generate()
        entropy = resolve_entropy(rt.seed)
        block_size = task_block_size(theta)

        # -- content-addressed cache -----------------------------------
        # Eligible only when the draw is reproducible (integer seed) and
        # the caller did not pin where samples live: an explicit
        # shard_dir or store *instance* is caller-owned state the cache
        # must not alias, and a directory payload (out-of-core shards)
        # needs a store that can host directories.
        art_store = rt.artifact_store()
        disk = isinstance(store_obj, ShardStore)
        cacheable = (
            art_store is not None
            and isinstance(rt.seed, int)
            and rt.shard_dir is None
            and not isinstance(rt.store, SampleStore)
            and (not disk or art_store.hosts_directories)
        )
        key = None
        flight = None
        if cacheable:
            key = sample_key(
                rt, graph_fp, campaign, theta, pieces_fp, block_size
            )
            got = cls._cached_or_none(art_store, key, rt, store_obj)
            if got is not None:
                return got
            # Cold miss: elect one producer across every process
            # sharing the artifact store; the rest poll for its commit
            # instead of stampeding into N identical generations.
            flight = art_store.producer_flight(key)
            if not flight.claim():
                hit = flight.wait(lambda: art_store.get(key))
                if hit is not None:
                    try:
                        return cls._from_artifact(hit, rt, store_obj)
                    except StoreBusyError:
                        pass  # fall through: regenerate privately
                # wait() came back empty: this process inherited the
                # flight from a dead producer, or timed out — either
                # way it now produces (duplicate commits stay benign).

        try:
            events = [
                TraceEvent(
                    "sample",
                    "run",
                    {
                        "entropy": int(entropy),
                        "backend": check_backend(rt.backend),
                        "executor": rt.executor,
                        "workers": int(rt.pool_width or 1),
                        "task_block": int(block_size),
                        "block_roots": adaptive_block_size(
                            graph.n, min(block_size, theta)
                        ),
                        "block_n": int(graph.n),
                    },
                ),
                ("index", "run"),
            ]
            if cacheable and disk:
                # Host the shard directory inside the artifact object.
                # stage_dir() hands out a *private* staging directory
                # and commit() publishes it with one atomic rename, so
                # concurrent workers missing this key each generate
                # privately and the loser's commit is a benign no-op —
                # never two producers interleaving bucket files in one
                # directory.
                store_obj = ShardStore(
                    os.path.join(art_store.stage_dir(key), "shards"),
                    max_resident_bytes=rt.max_resident_bytes,
                )
            collection = generate_keyed(
                graph.n,
                piece_graphs,
                models,
                keyed_roots(entropy, graph.n, theta, block_size),
                entropy,
                backend=rt.backend,
                workers=rt.pool_width or 1,
                executor=rt.executor,
                store=store_obj,
                block_size=block_size,
                graph_fingerprint=graph_fp,
                pieces_fingerprint=pieces_fp,
                pool=pool,
            )
            if cacheable:
                publish_collection(art_store, key, collection)
            return collection, events, key
        finally:
            if flight is not None:
                flight.release()

    #: Bounded retry schedule for a busy (mid-commit) cached shard dir.
    _BUSY_RETRIES = 4
    _BUSY_BACKOFF = 0.05

    @classmethod
    def _cached_or_none(cls, art_store, key, rt, store_obj):
        """The cache-hit return triple, or ``None`` on a (final) miss.

        A hit whose shard directory is *busy* — a concurrent writer on
        a shared spool mid-commit, or a pre-rename-atomic layout — is
        retryable, not corrupt: retry with exponential backoff plus
        jitter (stdlib ``random`` — the numpy streams stay untouched)
        before giving up to private regeneration.  The waits are plain
        ``time.sleep``, so Ctrl-C interrupts them immediately.
        """
        for attempt in range(cls._BUSY_RETRIES):
            hit = art_store.get(key)
            if hit is None:
                return None
            try:
                return cls._from_artifact(hit, rt, store_obj)
            except StoreBusyError:
                if attempt + 1 < cls._BUSY_RETRIES:
                    time.sleep(
                        cls._BUSY_BACKOFF
                        * (2**attempt)
                        * (0.5 + random.random())
                    )
        return None

    @classmethod
    def _from_artifact(cls, hit, rt, store_obj):
        """Rebuild a collection from a cached sample artifact.

        Two payload formats, crossed with two requested store targets:
        ``"arrays"`` carries the finalized CSR + inverted-index arrays
        (a true hit for both the sample and index stages when the
        target is in-RAM), ``"shards"`` is a finished
        :class:`ShardStore` directory hosted inside the artifact object
        (reopened in place for a disk target — zero materialisation).
        The two cross-format paths convert: shards are materialised
        into RAM with their prebuilt indexes, and arrays are re-streamed
        into a shard store (which rebuilds indexes — the one path where
        the index stage runs on a hit).  Either way the collection keeps
        the generation's block geometry, so a later delta invalidates
        per block.
        """
        meta = hit.meta
        n = int(meta["n"])
        theta = int(meta["theta"])
        num_pieces = int(meta["num_pieces"])
        block_size = int(meta["block_size"])
        key = hit.key
        if meta.get("format") == "shards":
            shard = ShardStore.open(
                os.path.join(hit.path, "shards"),
                max_resident_bytes=rt.max_resident_bytes,
            )
            if isinstance(store_obj, ShardStore):
                collection = cls.from_store(shard)
            else:
                # memory target: materialise, indexes included
                rr = [shard.rr_arrays(j) for j in range(num_pieces)]
                idx = [shard.index_arrays(j) for j in range(num_pieces)]
                collection = cls(
                    n,
                    shard.load_roots(),
                    store=MemoryStore.from_finalized_arrays(
                        n,
                        [ptr for ptr, _ in rr],
                        [nodes for _, nodes in rr],
                        [ptr for ptr, _ in idx],
                        [samples for _, samples in idx],
                        block_size=block_size,
                    ),
                )
                shard.close()
            return collection, [("sample", "hit"), ("index", "hit")], key
        arrays = hit.arrays
        roots = np.asarray(arrays["roots"], dtype=np.int64)
        if isinstance(store_obj, ShardStore):
            # disk target from an arrays payload: re-stream the cached
            # blocks through the shard store (rebuilds indexes).
            store_obj.begin(n, num_pieces, theta, block_size)
            store_obj.save_roots(roots)
            if not store_obj.finalized:
                for j in range(num_pieces):
                    ptr = np.asarray(arrays[f"rr_ptr{j}"], dtype=np.int64)
                    nodes = np.asarray(arrays[f"rr_nodes{j}"], dtype=np.int64)
                    for b in range(store_obj.num_blocks):
                        lo, hi = store_obj._block_span(b)
                        store_obj.put_block(
                            j, b, ptr[lo : hi + 1] - ptr[lo],
                            nodes[ptr[lo] : ptr[hi]],
                        )
                store_obj.finalize()
            collection = cls(n, roots, store=store_obj)
            return collection, [("sample", "hit"), ("index", "run")], key
        collection = cls(
            n,
            roots,
            store=MemoryStore.from_finalized_arrays(
                n,
                [arrays[f"rr_ptr{j}"] for j in range(num_pieces)],
                [arrays[f"rr_nodes{j}"] for j in range(num_pieces)],
                [arrays[f"idx_ptr{j}"] for j in range(num_pieces)],
                [arrays[f"idx_samples{j}"] for j in range(num_pieces)],
                block_size=block_size,
            ),
        )
        return collection, [("sample", "hit"), ("index", "hit")], key

    @classmethod
    def from_store(
        cls, store: SampleStore, roots: np.ndarray | None = None
    ) -> "MRRCollection":
        """Rebuild a collection from a finalized store.

        ``roots`` defaults to the draw a :class:`ShardStore` persisted
        at generation time (``roots.npy``), so a finished shard
        directory round-trips with ``ShardStore.open`` alone.
        """
        if roots is None:
            if not isinstance(store, ShardStore):
                raise SamplingError(
                    f"{type(store).__name__} does not persist roots — "
                    "pass them explicitly"
                )
            roots = store.load_roots()
        return cls(store.n, roots, store=store)

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------

    def rr_set(self, piece: int, sample: int) -> np.ndarray:
        """The RR set of ``sample`` (0-based) for ``piece``."""
        self._check_piece(piece)
        if not (0 <= sample < self.theta):
            raise SamplingError(f"sample {sample} outside [0, {self.theta})")
        return self.store.rr_set(piece, sample)

    def samples_containing(self, piece: int, vertex: int) -> np.ndarray:
        """Sample ids whose RR set for ``piece`` contains ``vertex``.

        This is the inverted-index lookup at the heart of every marginal
        gain computation.
        """
        self._check_piece(piece)
        if not (0 <= vertex < self.n):
            raise SamplingError(f"vertex {vertex} outside [0, {self.n})")
        ptr = self.store.idx_ptr(piece)
        return self.store.read_index_range(
            piece, int(ptr[vertex]), int(ptr[vertex + 1])
        )

    def index_arrays(self, piece: int) -> tuple[np.ndarray, np.ndarray]:
        """One piece's raw CSR inverted index ``(idx_ptr, idx_samples)``.

        ``idx_samples[idx_ptr[v]:idx_ptr[v+1]]`` are the sample ids whose
        RR set contains ``v`` — the flat arrays the vectorized coverage
        kernels (:mod:`repro.core.coverage`) gather over.  Callers must
        treat both arrays as read-only.  On a disk store this
        materialises the whole index (O(total) RAM) — bounded consumers
        use :meth:`iter_index_slabs` instead.
        """
        self._check_piece(piece)
        return self.store.index_arrays(piece)

    def gather_index_slabs(
        self,
        piece: int,
        vertices,
        *,
        exc: type[Exception] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and gather many vertices' inverted-index slabs.

        The shared prologue of every batch coverage kernel: range-checks
        ``piece`` and ``vertices`` (raising ``exc``, default
        :class:`SamplingError`, so each layer keeps its own exception
        class), then returns ``(samples, deg)`` — the concatenation of
        each vertex's sample-id slab in vertex order, plus the per-vertex
        slab lengths for the caller's segmented reduction.
        """
        vertices = self._check_gather(piece, vertices, exc)
        return self.store.gather_index(piece, vertices)

    def iter_index_slabs(
        self,
        piece: int,
        vertices,
        *,
        exc: type[Exception] | None = None,
    ):
        """Chunked :meth:`gather_index_slabs`, bounded by the store.

        Yields ``(samples, deg, lo, hi)`` where ``samples``/``deg`` are
        the gathered slabs of ``vertices[lo:hi]``.  Chunk boundaries
        respect the store's gather budget
        (:attr:`~repro.sampling.store.SampleStore.gather_chunk_bytes`)
        so a whole-pool scan on a disk store never materialises more
        than ``max_resident_bytes`` of slab at once; the in-RAM store
        yields one chunk, preserving the historical single-dispatch
        path.  Per-vertex results are identical to the unchunked gather
        — every segmented reduction sees exactly its own slab.
        """
        vertices = self._check_gather(piece, vertices, exc)
        budget = self.store.gather_chunk_bytes
        if budget is None or vertices.size == 0:
            samples, deg = self.store.gather_index(piece, vertices)
            yield samples, deg, 0, int(vertices.size)
            return
        ptr = self.store.idx_ptr(piece)
        deg_all = ptr[vertices + 1] - ptr[vertices]
        bounds = _chunk_bounds(np.cumsum(deg_all * 8), budget)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            samples, deg = self.store.gather_index(piece, vertices[lo:hi])
            yield samples, deg, lo, hi

    def _check_gather(self, piece, vertices, exc) -> np.ndarray:
        exc = SamplingError if exc is None else exc
        if not (0 <= piece < self.num_pieces):
            raise exc(f"piece {piece} outside [0, {self.num_pieces})")
        vertices = np.asarray(vertices, dtype=np.int64)
        check_index_array("vertex", vertices, self.n, exc=exc)
        return vertices

    def rr_set_sizes(self, piece: int) -> np.ndarray:
        """Sizes of every RR set for ``piece``."""
        self._check_piece(piece)
        return self.store.rr_set_sizes(piece)

    def vertex_frequencies(self, piece: int) -> np.ndarray:
        """How many RR sets of ``piece`` contain each vertex.

        Proportional to each vertex's single-seed influence spread — the
        quantity whose power-law tail Lemma 4 leans on.
        """
        self._check_piece(piece)
        return np.diff(self.store.idx_ptr(piece))

    def _check_piece(self, piece: int) -> None:
        if not (0 <= piece < self.num_pieces):
            raise SamplingError(
                f"piece {piece} outside [0, {self.num_pieces})"
            )

    # ------------------------------------------------------------------
    # estimation (Lemma 2)
    # ------------------------------------------------------------------

    def coverage_counts(self, plan_seed_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Distinct-piece coverage count per sample for a full plan.

        ``counts[i] = sum_j I[R_i^j ∩ S_j ≠ ∅]`` — the argument of the
        logistic in Eq. 6.
        """
        if len(plan_seed_sets) != self.num_pieces:
            raise SamplingError(
                f"plan has {len(plan_seed_sets)} seed sets for "
                f"{self.num_pieces} pieces"
            )
        counts = np.zeros(self.theta, dtype=np.int64)
        covered = np.zeros(self.theta, dtype=bool)
        for j, seeds in enumerate(plan_seed_sets):
            seeds = np.asarray(list(seeds), dtype=np.int64)
            if seeds.size == 0:
                continue
            check_index_array("vertex", seeds, self.n, exc=SamplingError)
            covered[:] = False
            for samples, _deg, _lo, _hi in self.iter_index_slabs(j, seeds):
                covered[samples] = True
            counts += covered
        return counts

    def estimate(
        self,
        plan_seed_sets: Sequence[Iterable[int]],
        adoption: AdoptionModel,
    ) -> float:
        """Unbiased AU estimate of a plan (Eq. 6 with Eq. 1's zero branch)."""
        counts = self.coverage_counts(plan_seed_sets)
        return self.estimate_from_counts(counts, adoption)

    def estimate_from_counts(
        self, counts: np.ndarray, adoption: AdoptionModel
    ) -> float:
        """AU estimate given precomputed per-sample coverage counts."""
        if counts.shape != (self.theta,):
            raise SamplingError(
                f"counts must have shape ({self.theta},), got {counts.shape}"
            )
        return float(self.n / self.theta * adoption.probability(counts).sum())

    def __repr__(self) -> str:
        return (
            f"MRRCollection(theta={self.theta}, pieces={self.num_pieces}, "
            f"n={self.n}, store={self.store.kind})"
        )


def sample_key(
    rt, graph_fp: str, campaign: Campaign, theta: int, pieces_fp: str,
    block_size: int,
) -> ArtifactKey:
    """The sample-stage artifact key of one collection.

    The runtime slice carries the seed (the stream entropy of every
    cacheable draw); the block size pins the (piece, block) geometry
    the keyed streams hang off, so an incremental update's
    copy-on-write commit lands exactly where a cold generate of the
    new graph with that geometry looks.
    """
    return ArtifactKey(
        graph=graph_fp,
        campaign=campaign.fingerprint(),
        runtime=rt.cache_key(),
        stage="sample",
        extra=(
            f"theta={int(theta)}",
            f"pieces={pieces_fp[:16]}",
            f"block={int(block_size)}",
        ),
    )


def publish_collection(art_store, key: ArtifactKey, collection) -> None:
    """Commit a freshly generated collection under ``key``.

    A shard store was generated in ``art_store.stage_dir(key)``: the
    commit moves it to its content address (or loses the race to an
    identical twin) and the live store is repointed at the published
    copy.  An in-RAM collection is stored as its finalized CSR and
    inverted-index arrays.
    """
    store = collection.store
    meta = {
        "n": collection.n,
        "theta": collection.theta,
        "num_pieces": collection.num_pieces,
        "block_size": store.block_size,
    }
    if isinstance(store, ShardStore):
        artifact = art_store.commit(key, {"format": "shards", **meta})
        store.close()
        store.shard_dir = os.path.join(artifact.path, "shards")
        return
    arrays = {"roots": collection.roots}
    for j in range(collection.num_pieces):
        arrays[f"rr_ptr{j}"], arrays[f"rr_nodes{j}"] = store.rr_arrays(j)
        arrays[f"idx_ptr{j}"], arrays[f"idx_samples{j}"] = (
            store.index_arrays(j)
        )
    art_store.put(key, {"format": "arrays", **meta}, arrays)


def generate_keyed(
    n: int,
    piece_graphs,
    models,
    roots: np.ndarray,
    entropy: int,
    *,
    backend,
    workers: int,
    executor,
    store: SampleStore,
    block_size: int,
    graph_fingerprint: str | None = None,
    pieces_fingerprint: str | None = None,
    pool=None,
) -> MRRCollection:
    """Fill ``store`` with keyed (piece, root block) shards; the collection.

    The one store fill behind every generation: ``begin`` with the
    store fingerprint, stream the *missing* shards
    (``skip=store.has_block`` — how a resumed shard directory, or an
    updated store, samples only its holes), ``finalize``.  Shards are
    committed the moment their task finishes (task order, bounded
    in-flight window), so peak RAM during generation is
    O(workers x block) instead of O(theta), and a finalized shard
    directory reloads without sampling at all.

    ``executor="spawned"`` with an on-disk :class:`ShardStore` routes
    the fill through :mod:`repro.sampling.dist`: independent worker
    processes claim task leases and stream shards into the directory
    while this process polls for completion — the same keyed streams,
    so the same bytes.

    A store already begun under this exact fingerprint is a mid-update
    in-RAM store (``retarget`` / ``invalidate_blocks`` ran first) and
    is filled in place; any other store is begun here — which resumes
    or validates a shard directory, and rejects a reused finalized
    :class:`MemoryStore`.
    """
    from repro.sampling.parallel import stream_piece_blocks

    fingerprint = store_fingerprint(
        n,
        roots,
        models,
        backend,
        graph=graph_fingerprint,
        pieces=pieces_fingerprint,
        entropy=entropy,
    )
    if isinstance(store, ShardStore) or store.fingerprint != fingerprint:
        store.begin(
            n, len(piece_graphs), int(roots.size), int(block_size),
            fingerprint=fingerprint,
        )
    if isinstance(store, ShardStore) and not store.finalized:
        store.save_roots(roots)
    if not store.finalized:
        if (
            executor == "spawned"
            and isinstance(store, ShardStore)
            and store.shard_dir is not None
        ):
            from repro.runtime import DEFAULT_DIST_LAUNCH
            from repro.sampling.dist import fill_store_distributed

            fill_store_distributed(
                piece_graphs,
                models,
                roots,
                entropy,
                backend=backend,
                workers=workers,
                store=store,
                launch=DEFAULT_DIST_LAUNCH,
            )
        else:
            for piece, block, ptr, nodes in stream_piece_blocks(
                piece_graphs,
                models,
                roots,
                entropy,
                backend=backend,
                workers=workers,
                executor=executor,
                block_size=block_size,
                skip=store.has_block,
                pool=pool,
            ):
                store.put_block(piece, block, ptr, nodes)
        store.finalize()
    return MRRCollection(n, roots, store=store)
