"""Pluggable sample stores: where an MRR collection's arrays live.

The paper's sample complexity makes theta the memory wall: the
``(theta x l)`` MRR collection holds one CSR pair ``(rr_ptr, rr_nodes)``
plus one inverted index per piece, and both grow as
``theta * E[|RR set|]`` — at production scale they no longer fit in
RAM.  This module splits "what the collection stores" from "how the
solvers query it" behind one :class:`SampleStore` interface with two
implementations:

:class:`MemoryStore`
    Today's in-RAM arrays, bit-for-bit.  Zero overhead; the default.

:class:`ShardStore`
    Root-block shards spilled to disk.  ``stream_piece_blocks`` already
    decomposes generation into per-(piece, root block) tasks, and those
    blocks are exactly the shards: each is written to ``shard_dir`` as a
    ``.npz`` the moment it is sampled (so peak RAM during generation is
    one block, not theta), the per-piece inverted index is built from
    one read of the piece's shards (in RAM when the piece fits the
    ``max_resident_bytes`` build budget, else by a bucketed external
    sort), and queries read only the slabs they touch through explicit
    bounded file reads — never a whole-collection materialisation.  A
    manifest makes shard directories self-describing: interrupted
    generations resume from the committed shard files, finished ones
    reload without resampling, and mismatched or corrupted shards fail
    loudly (:class:`repro.exceptions.StoreError`).

Both stores produce identical inverted indexes for identical samples,
so every solver — coverage, tau bounds, BAB, RIS — returns bit-identical
seed sets and estimates regardless of where the samples live.  The
``REPRO_STORE`` environment variable flips the suite-wide default
(``memory``/``disk``) so CI can run everything out-of-core.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import uuid
import zlib
from collections import OrderedDict

import numpy as np

from repro import native as _native
from repro.exceptions import ConfigError, StoreBusyError, StoreError
from repro.native import kernels as _nk
from repro.runtime import DEFAULT_STORE, STORES
from repro.sampling.touch import summary_may_touch, touch_summary
from repro.utils.frontier import frontier_edge_slots, stable_key_order

__all__ = [
    "DEFAULT_MAX_RESIDENT_BYTES",
    "DEFAULT_STORE",
    "STORES",
    "MemoryStore",
    "SampleStore",
    "ShardStore",
    "check_store",
    "resolve_store",
    "store_fingerprint",
]

# STORES and the REPRO_STORE-aware DEFAULT_STORE are owned by
# repro.runtime (the single env-resolution site) and re-exported here;
# this module's globals are the layer check_store consults, keeping the
# historical monkeypatch points (CI's store axis).

#: Resident ceiling for a ShardStore's managed caches (block LRU, index
#: build buckets, gather chunks) when the caller does not pick one.
DEFAULT_MAX_RESIDENT_BYTES = 256 * 1024 * 1024

_MANIFEST = "manifest.json"
_FORMAT = 1
#: Manifest schema version, independent of the shard *payload* format
#: (``_FORMAT``, embedded in every store fingerprint — bumping it would
#: orphan every existing shard directory).  Version 2 adds per-shard
#: vertex-touch summaries; directories whose manifest predates the
#: field read as version 1 and degrade to "invalidate everything" on a
#: graph delta instead of raising.
_MANIFEST_VERSION = 2

#: Committed shard filenames — the on-disk source of truth for block
#: completion (see :meth:`ShardStore.rescan`).  ``.tmp`` staging files
#: never match, and rename-atomic commits mean a matching file is
#: always complete.
_SHARD_NAME = re.compile(r"piece(\d+)_block(\d+)\.npz$")

#: Default byte budget of the decompressed index-segment LRU as a
#: fraction of ``max_resident_bytes``, and its absolute ceiling.
_SEG_CACHE_FRACTION = 4
_SEG_CACHE_MAX_BYTES = 64 * 1024 * 1024
#: Share of ``max_resident_bytes`` the in-RAM touch summaries may hold
#: (beyond it, :meth:`ShardStore.block_touch` reads the shard file).
_TOUCH_CACHE_FRACTION = 4
#: Largest request pool the segment LRU serves; bigger scans go
#: straight to the vectorised coalescing reader, whose O(1)-ish read
#: count already wins there and whose per-entry cost is lower.  The
#: crossover (measured, tmpfs) sits near 100 vertices; 64 keeps a
#: comfortable margin on both sides and is the *starting point* of the
#: adaptive crossover (``ShardStore._adapt_seg_limit``), which re-fits
#: the limit from observed hit rate and segment sizes within
#: [_SEG_LIMIT_MIN, _SEG_LIMIT_MAX] every _SEG_ADAPT_EVERY lookups.
_SEG_POOL_LIMIT = 64
_SEG_LIMIT_MIN = 16
_SEG_LIMIT_MAX = 512
_SEG_ADAPT_EVERY = 1024

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def check_store(store: str | None) -> str:
    """Normalise a store choice; ``None`` means the (env) default."""
    if store is None:
        store = DEFAULT_STORE
    if store not in STORES:
        raise ConfigError(f"store must be one of {STORES}, got {store!r}")
    return store


def resolve_store(
    store=None,
    *,
    shard_dir: str | None = None,
    max_resident_bytes: int | None = None,
) -> "SampleStore":
    """Turn the ``store`` knob into a ready-to-write :class:`SampleStore`.

    ``store`` is a name (``"memory"``/``"disk"``, ``None`` = the
    ``REPRO_STORE`` default) or an already-constructed store instance
    (returned as-is).  ``shard_dir`` / ``max_resident_bytes`` configure
    the disk store and are rejected for the memory store, where they
    would silently do nothing.
    """
    if isinstance(store, SampleStore):
        return store
    kind = check_store(store)
    if kind == "disk":
        return ShardStore(shard_dir, max_resident_bytes=max_resident_bytes)
    if shard_dir is not None or max_resident_bytes is not None:
        raise ConfigError(
            "shard_dir / max_resident_bytes apply to store='disk', "
            f"but the resolved store is {kind!r}"
        )
    return MemoryStore()


def store_fingerprint(
    n: int,
    roots: np.ndarray,
    models,
    backend,
    *,
    graph: str | None = None,
    pieces: str | None = None,
    entropy: int | None = None,
) -> str:
    """Identity of one generation run, recorded in shard manifests.

    Two runs produce identical shards iff their graph, root draw,
    per-piece diffusion models, sampling backend and stream entropy
    agree — the fingerprint captures exactly that, so resuming against
    a shard directory from a *different* run fails loudly instead of
    silently mixing samples.  The backend is recorded *canonical* (``None``
    means the ``REPRO_BACKEND`` default, and ``"native"`` records as
    ``"batch"`` — the two engines are bit-identical by contract, so
    their shard directories are interchangeable), while a directory
    written under one env default still cannot be reloaded under a
    non-equivalent one.

    ``graph``/``pieces`` are the content fingerprints of the topic
    graph and the projected piece graphs, and ``entropy`` keys every
    task stream (:func:`repro.sampling.parallel.keyed_task_seed`).  The
    root draw depends only on ``(entropy, n)``, so without the graph
    segments a shard directory sampled from a *different graph or
    campaign of the same size* would resume cleanly and silently serve
    the wrong samples; generation always passes all three, while
    callers that only know the dimensions may omit them (the segments
    are then absent and never compared).
    """
    from repro.sampling.batch import canonical_backend

    roots = np.asarray(roots, dtype=np.int64)
    crc = zlib.crc32(roots.tobytes())
    fingerprint = (
        f"v{_FORMAT}:n={int(n)}:theta={roots.size}:roots={crc:08x}"
        f":models={','.join(models)}:backend={canonical_backend(backend)}"
    )
    if graph is not None:
        fingerprint += f":graph={graph[:16]}"
    if pieces is not None:
        fingerprint += f":pieces={pieces[:16]}"
    if entropy is not None:
        fingerprint += f":entropy={int(entropy)}"
    return fingerprint


def _chunk_bounds(cum_weights: np.ndarray, budget: int) -> list[int]:
    """Split ``[0, len)`` into runs whose weight is at most ``budget``.

    ``cum_weights`` is the inclusive prefix sum (``cum_weights[i]`` =
    total weight of items ``0..i``); runs always advance by at least one
    item, so a single item heavier than the budget gets its own run.
    """
    size = int(cum_weights.size)
    bounds = [0]
    while bounds[-1] < size:
        lo = bounds[-1]
        base = int(cum_weights[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum_weights, base + budget, side="right"))
        bounds.append(max(hi, lo + 1))
    return bounds


def _invert_csr(
    ptr: np.ndarray, nodes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One piece's inverted index ``(idx_ptr, idx_samples)`` from its RR
    sets in CSR form: sample ``i`` is ``nodes[ptr[i]:ptr[i + 1]]``.

    Vertex ``v``'s slab ``idx_samples[idx_ptr[v]:idx_ptr[v + 1]]`` lists
    the samples containing it in increasing order.  With the compiled
    tier live the transpose runs as one counting-scatter kernel
    (``repro.native.kernels.invert_index``), else as a radix-keyed
    stable sort; both give the identical index, so the kernel is used
    whenever it is compiled, independent of the backend knob.  Both
    stores build through here.
    """
    idx_ptr = np.zeros(n + 1, dtype=np.int64)
    if _native.compiled():
        idx_samples = np.empty(nodes.size, dtype=np.int64)
        _nk.invert_index(ptr, nodes, idx_ptr, idx_samples)
        return idx_ptr, idx_samples
    sample_of_slot = np.repeat(
        np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr)
    )
    idx_samples = sample_of_slot[stable_key_order(nodes, n)]
    np.cumsum(np.bincount(nodes, minlength=n), out=idx_ptr[1:])
    return idx_ptr, idx_samples


class SampleStore:
    """Interface between :class:`~repro.sampling.mrr.MRRCollection` and
    wherever its arrays live.

    Write protocol (driven by ``MRRCollection.generate``):
    :meth:`begin` fixes the dimensions, :meth:`put_block` commits one
    (piece, root block) shard as the sampler produces it, and
    :meth:`finalize` builds the per-piece inverted indexes.  Read
    protocol (driven by every solver): per-vertex slab gathers over the
    inverted index, per-sample RR-set access, and the O(n)/O(theta)
    structural arrays (``idx_ptr``, RR-set sizes) which always stay in
    RAM — shedding the ``theta * E[|RR set|]``-sized payloads is what
    the store layer is for.
    """

    kind = "abstract"

    def __init__(self) -> None:
        self.n = 0
        self.num_pieces = 0
        self.theta = 0
        self.block_size = 0
        self.num_blocks = 0
        self.finalized = False
        self.fingerprint: str | None = None

    # -- write protocol -------------------------------------------------

    def begin(
        self,
        n: int,
        num_pieces: int,
        theta: int,
        block_size: int,
        *,
        fingerprint: str | None = None,
    ) -> None:
        if n < 1 or num_pieces < 1 or theta < 1 or block_size < 1:
            raise StoreError(
                f"store dimensions must be positive, got n={n}, "
                f"pieces={num_pieces}, theta={theta}, block={block_size}"
            )
        self.n = int(n)
        self.num_pieces = int(num_pieces)
        self.theta = int(theta)
        self.block_size = int(block_size)
        self.num_blocks = -(-self.theta // self.block_size)
        self.fingerprint = fingerprint

    def has_block(self, piece: int, block: int) -> bool:
        """Is this shard already committed (resume support)?"""
        raise NotImplementedError

    def put_block(
        self, piece: int, block: int, ptr: np.ndarray, nodes: np.ndarray
    ) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        raise NotImplementedError

    def _block_span(self, block: int) -> tuple[int, int]:
        lo = block * self.block_size
        return lo, min(lo + self.block_size, self.theta)

    def _check_block(
        self, piece: int, block: int, ptr: np.ndarray, nodes: np.ndarray
    ) -> None:
        if not (0 <= piece < self.num_pieces):
            raise StoreError(
                f"piece {piece} outside [0, {self.num_pieces})"
            )
        if not (0 <= block < self.num_blocks):
            raise StoreError(
                f"block {block} outside [0, {self.num_blocks})"
            )
        lo, hi = self._block_span(block)
        if ptr.shape != (hi - lo + 1,):
            raise StoreError(
                f"piece {piece} block {block}: ptr length {ptr.shape} "
                f"!= block size + 1 = {hi - lo + 1}"
            )
        if nodes.shape != (int(ptr[-1]),):
            raise StoreError(
                f"piece {piece} block {block}: {nodes.shape} nodes for "
                f"ptr[-1] = {int(ptr[-1])}"
            )

    # -- incremental protocol -------------------------------------------

    @property
    def supports_touch(self) -> bool:
        """Whether this store carries per-shard vertex-touch summaries.

        ``False`` makes every delta invalidation conservative (all
        blocks dirty) — the contract for stores, or shard directories,
        that predate touch tracking.
        """
        return False

    def block_touch(self, piece: int, block: int) -> np.ndarray | None:
        """One shard's touch summary, or ``None`` when it has none."""
        return None

    def blocks_touching(self, piece: int, vertices: np.ndarray) -> list[int]:
        """Blocks whose RR sets may contain any of ``vertices``.

        The delta-invalidation query: a block absent from the result is
        *guaranteed* clean (no RR set in it contains a dirty vertex), a
        listed block may be a false positive.  Blocks without a touch
        summary — or any store with ``supports_touch`` false — are
        always listed, so degradation is conservative, never unsound.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return []
        out = []
        for block in range(self.num_blocks):
            summary = (
                self.block_touch(piece, block) if self.supports_touch else None
            )
            if summary is None or summary_may_touch(summary, vertices):
                out.append(block)
        return out

    def invalidate_blocks(self, pairs) -> None:
        """Discard the listed ``(piece, block)`` shards for resampling.

        De-finalizes the store: the caller must re-commit the dropped
        blocks via :meth:`put_block` and call :meth:`finalize` again.
        """
        raise StoreError(
            f"{type(self).__name__} does not support partial invalidation"
        )

    def retarget(self, theta: int, *, fingerprint: str | None = None) -> None:
        """Grow the store to a larger ``theta`` and/or new fingerprint.

        Existing full blocks survive; the caller appends the missing
        blocks and re-finalizes.  Shrinking is not supported.
        """
        raise StoreError(
            f"{type(self).__name__} does not support retargeting"
        )

    # -- read protocol --------------------------------------------------

    @property
    def gather_chunk_bytes(self) -> int | None:
        """Byte budget per index-gather chunk (``None`` = unbounded)."""
        return None

    @property
    def resident_bytes(self) -> int:
        """Bytes of sample payload currently held in RAM by this store."""
        raise NotImplementedError

    def idx_ptr(self, piece: int) -> np.ndarray:
        """One piece's inverted-index CSR pointer (O(n), in RAM)."""
        raise NotImplementedError

    def read_index_range(self, piece: int, lo: int, hi: int) -> np.ndarray:
        """``idx_samples[lo:hi]`` for one piece (one vertex's slab)."""
        raise NotImplementedError

    def gather_index(
        self, piece: int, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated index slabs of ``vertices`` plus slab lengths."""
        raise NotImplementedError

    def rr_set(self, piece: int, sample: int) -> np.ndarray:
        raise NotImplementedError

    def rr_set_sizes(self, piece: int) -> np.ndarray:
        """Sizes of every RR set for ``piece`` (O(theta), in RAM)."""
        raise NotImplementedError

    def rr_arrays(self, piece: int) -> tuple[np.ndarray, np.ndarray]:
        """One piece's full CSR ``(ptr, nodes)`` — O(total) RAM.

        Compatibility/diagnostic accessor: the disk store materialises
        the concatenation, so hot paths must not call this.
        """
        raise NotImplementedError

    def index_arrays(self, piece: int) -> tuple[np.ndarray, np.ndarray]:
        """One piece's full inverted index — O(total) RAM (see above)."""
        raise NotImplementedError

    def _check_finalized(self) -> None:
        if not self.finalized:
            raise StoreError(
                f"{type(self).__name__} queried before finalize()"
            )

    def stats(self) -> dict[str, int]:
        """Store-level counters (cache hits/misses...); may be empty."""
        return {}


class MemoryStore(SampleStore):
    """The in-RAM store: today's arrays, today's vectorized queries."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._pending: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        self._rr_ptr: list[np.ndarray] = []
        self._rr_nodes: list[np.ndarray] = []
        self._idx_ptr: list[np.ndarray] = []
        self._idx_samples: list[np.ndarray] = []
        # (piece, block) -> touch summary, computed on first query (see
        # block_touch) and kept across finalize() for later deltas.
        self._touch: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def from_arrays(cls, n, rr_ptr, rr_nodes) -> "MemoryStore":
        """Wrap already-assembled per-piece CSR arrays (zero copy)."""
        store = cls()
        theta = int(rr_ptr[0].size - 1)
        store.begin(n, len(rr_ptr), max(theta, 1), max(theta, 1))
        store.theta = theta  # allow theta == 0 for degenerate tests
        store._rr_ptr = list(rr_ptr)
        store._rr_nodes = list(rr_nodes)
        store._build_indexes()
        store.finalized = True
        return store

    @classmethod
    def from_finalized_arrays(
        cls, n, rr_ptr, rr_nodes, idx_ptr, idx_samples, *, block_size
    ) -> "MemoryStore":
        """Wrap a fully-built collection, inverted indexes included.

        The artifact-cache hit path: a cached sample artifact carries
        the finalized indexes, so reloading skips both sampling *and*
        the index build (the argsort is the expensive half at scale).
        ``block_size`` restores the generation's (piece, block) geometry
        so a later delta invalidates per block.
        """
        store = cls()
        theta = int(rr_ptr[0].size - 1)
        store.begin(n, len(rr_ptr), max(theta, 1), block_size)
        store.theta = theta
        store._pending = []
        store._rr_ptr = list(rr_ptr)
        store._rr_nodes = list(rr_nodes)
        store._idx_ptr = list(idx_ptr)
        store._idx_samples = list(idx_samples)
        store.finalized = True
        return store

    def begin(self, n, num_pieces, theta, block_size, *, fingerprint=None):
        # A memory store has no manifest to validate a reload against:
        # reusing a finalized instance for a second generation would
        # silently serve the first generation's arrays under the new
        # dimensions.  (ShardStore.begin resumes/reloads *matching*
        # directories and rejects mismatched ones — in RAM there is
        # nothing to resume, so any reuse is a caller bug.)
        if self.finalized:
            raise StoreError(
                "this MemoryStore already holds a finalized collection "
                "— build a fresh store (or pass store='memory') for "
                "each generation"
            )
        super().begin(n, num_pieces, theta, block_size, fingerprint=fingerprint)
        self._pending = [{} for _ in range(self.num_pieces)]

    def has_block(self, piece: int, block: int) -> bool:
        # A finalized store holds every in-range block (_pending was
        # folded into the CSR) — reached by a no-op incremental update
        # whose surgery invalidated nothing and grew nothing.
        if self.finalized:
            return 0 <= piece < self.num_pieces and 0 <= block < self.num_blocks
        return block in self._pending[piece]

    def put_block(self, piece, block, ptr, nodes) -> None:
        ptr = np.asarray(ptr, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        self._check_block(piece, block, ptr, nodes)
        self._pending[piece][block] = (ptr, nodes)

    @property
    def supports_touch(self) -> bool:
        return True

    def block_touch(self, piece: int, block: int) -> np.ndarray | None:
        # Summaries are built on first query from the block's nodes and
        # memoized: a collection that never sees a delta never pays.
        key = (piece, block)
        summary = self._touch.get(key)
        if summary is None:
            if self.finalized:
                ptr = self._rr_ptr[piece]
                lo, hi = self._block_span(block)
                nodes = self._rr_nodes[piece][ptr[lo] : ptr[hi]]
            elif block in self._pending[piece]:
                nodes = self._pending[piece][block][1]
            else:
                return None
            summary = self._touch[key] = touch_summary(nodes, self.n)
        return summary

    def _materialize_pending(self) -> None:
        """Re-slice the finalized CSR back into per-block shards.

        The inverse of :meth:`finalize`, run before a partial
        invalidation or theta growth: surviving blocks become pending
        again (copied — the finalized arrays are dropped), and the
        store can accept :meth:`put_block` for the holes.
        """
        if not self.finalized:
            return
        self._pending = []
        for j in range(self.num_pieces):
            ptr, nodes = self._rr_ptr[j], self._rr_nodes[j]
            blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for b in range(self.num_blocks):
                lo, hi = self._block_span(b)
                blocks[b] = (
                    (ptr[lo : hi + 1] - ptr[lo]).copy(),
                    nodes[ptr[lo] : ptr[hi]].copy(),
                )
            self._pending.append(blocks)
        self._rr_ptr = []
        self._rr_nodes = []
        self._idx_ptr = []
        self._idx_samples = []
        self.finalized = False

    def invalidate_blocks(self, pairs) -> None:
        pairs = sorted({(int(p), int(b)) for p, b in pairs})
        for piece, block in pairs:
            if not (
                0 <= piece < self.num_pieces and 0 <= block < self.num_blocks
            ):
                raise StoreError(
                    f"cannot invalidate (piece {piece}, block {block}) "
                    f"outside ({self.num_pieces}, {self.num_blocks})"
                )
        if not pairs:
            return
        self._materialize_pending()
        for key in pairs:
            self._pending[key[0]].pop(key[1], None)
            self._touch.pop(key, None)

    def retarget(self, theta, *, fingerprint=None) -> None:
        theta = int(theta)
        if theta < self.theta:
            raise StoreError(
                f"cannot shrink a store from theta={self.theta} to {theta}"
            )
        if fingerprint is not None:
            self.fingerprint = fingerprint
        if theta == self.theta:
            return
        self._materialize_pending()
        last = self.num_blocks - 1
        lo, old_hi = self._block_span(last)
        self.theta = theta
        self.num_blocks = -(-theta // self.block_size)
        if min(lo + self.block_size, theta) != old_hi:
            # The old tail block's span grew: its committed ptr no
            # longer matches, so it resamples with the appended range.
            for j in range(self.num_pieces):
                self._pending[j].pop(last, None)
                self._touch.pop((j, last), None)

    def finalize(self) -> None:
        if self.finalized:
            return
        for j, blocks in enumerate(self._pending):
            missing = [b for b in range(self.num_blocks) if b not in blocks]
            if missing:
                raise StoreError(
                    f"piece {j}: blocks {missing} were never committed"
                )
            chunk = [blocks[b] for b in range(self.num_blocks)]
            sizes = np.concatenate([np.diff(ptr) for ptr, _ in chunk])
            ptr = np.zeros(self.theta + 1, dtype=np.int64)
            np.cumsum(sizes, out=ptr[1:])
            self._rr_ptr.append(ptr)
            self._rr_nodes.append(np.concatenate([n for _, n in chunk]))
        self._pending = []
        self._build_indexes()
        self.finalized = True

    def _build_indexes(self) -> None:
        """Inverted index per piece: vertex -> sorted sample ids."""
        for j in range(len(self._rr_ptr)):
            idx_ptr, idx_samples = _invert_csr(
                self._rr_ptr[j], self._rr_nodes[j], self.n
            )
            self._idx_ptr.append(idx_ptr)
            self._idx_samples.append(idx_samples)

    # -- reads ----------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return sum(
            a.nbytes
            for arrays in (self._rr_nodes, self._idx_samples)
            for a in arrays
        )

    def idx_ptr(self, piece: int) -> np.ndarray:
        self._check_finalized()
        return self._idx_ptr[piece]

    def read_index_range(self, piece, lo, hi) -> np.ndarray:
        self._check_finalized()
        return self._idx_samples[piece][lo:hi]

    def gather_index(self, piece, vertices):
        self._check_finalized()
        slot_idx, deg = frontier_edge_slots(self._idx_ptr[piece], vertices)
        if slot_idx.size == 0:
            return np.zeros(0, dtype=np.int64), deg
        return self._idx_samples[piece][slot_idx], deg

    def rr_set(self, piece, sample) -> np.ndarray:
        self._check_finalized()
        ptr = self._rr_ptr[piece]
        return self._rr_nodes[piece][ptr[sample] : ptr[sample + 1]]

    def rr_set_sizes(self, piece) -> np.ndarray:
        self._check_finalized()
        return np.diff(self._rr_ptr[piece])

    def rr_arrays(self, piece):
        self._check_finalized()
        return self._rr_ptr[piece], self._rr_nodes[piece]

    def index_arrays(self, piece):
        self._check_finalized()
        return self._idx_ptr[piece], self._idx_samples[piece]

    def __repr__(self) -> str:
        return (
            f"MemoryStore(pieces={self.num_pieces}, theta={self.theta}, "
            f"resident={self.resident_bytes})"
        )


class ShardStore(SampleStore):
    """Root-block shards on disk, queried through bounded reads.

    Layout under ``shard_dir``::

        manifest.json                   dimensions, fingerprint, version,
                                        finalize marker (written at
                                        begin, invalidate_blocks,
                                        retarget and finalize — never
                                        per shard)
        roots.npy                       the shared root draw
        piece000_block00000.npz         one (piece, root block) shard
        piece000.idx_ptr.npy            inverted-index CSR pointer (O(n))
        piece000.sizes.npy              per-sample RR-set sizes (O(theta))
        piece000.idx.bin                inverted-index sample ids (raw
                                        int64; the big one — read by
                                        slab, never whole)

    ``max_resident_bytes`` bounds everything this store holds in RAM:
    the shard LRU cache serving :meth:`rr_set`, the index build (a piece
    whose entries fit ``max_resident_bytes // 32`` is inverted in RAM
    from the one read of its shards; a bigger one spills to a bucketed
    external sort with buckets of that size), the touch summaries kept
    for :meth:`blocks_touching`, and (via :attr:`gather_chunk_bytes`)
    the slab chunks the coverage kernels gather per dispatch.  OS page
    cache does the rest — all file traffic is explicit ``read()`` I/O,
    so cached pages are reclaimable and never count against the
    process's resident set the way a mapped index would.

    Passing ``shard_dir=None`` spills into a private temporary
    directory that lives as long as the store object does (the CI
    ``REPRO_STORE=disk`` axis runs the whole suite this way).

    **Shared-writer mode** (``shared_writer=True``) is the distributed
    worker's view of a shard directory several processes fill at once
    (:mod:`repro.sampling.dist`): this store commits shard files but
    never touches ``manifest.json`` — the coordinator alone owns the
    manifest and finalization — and completion truth is the set of
    committed shard *files* (:meth:`rescan`), so blocks arriving out of
    order and from foreign pids are all equally visible.
    """

    kind = "disk"

    #: Coalescing reader: merge slab ranges whose file gap is at most
    #: this many bytes, reading the gap and discarding it — one seek
    #: plus a slightly longer sequential read beats two seeks.
    _COALESCE_GAP_BYTES = 64 * 1024

    def __init__(
        self,
        shard_dir: str | None = None,
        *,
        max_resident_bytes: int | None = None,
        shared_writer: bool = False,
        index_cache_bytes: int | None = None,
    ) -> None:
        super().__init__()
        if max_resident_bytes is None:
            max_resident_bytes = DEFAULT_MAX_RESIDENT_BYTES
        if int(max_resident_bytes) < 1:
            raise ConfigError(
                f"max_resident_bytes must be positive, got {max_resident_bytes}"
            )
        self.max_resident_bytes = int(max_resident_bytes)
        self.shared_writer = bool(shared_writer)
        self._tmp = None
        if shard_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
            shard_dir = self._tmp.name
        self.shard_dir = str(shard_dir)
        os.makedirs(self.shard_dir, exist_ok=True)
        self._completed: set[tuple[int, int]] = set()
        self._cache: OrderedDict[
            tuple[int, int], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._cache_bytes = 0
        # (piece, block) -> touch summary of a committed shard, kept
        # from put_block (or the first read) for later deltas; bounded
        # by a share of max_resident_bytes, beyond which queries read
        # the shard file.
        self._touch: dict[tuple[int, int], np.ndarray] = {}
        self._touch_bytes = 0
        self._idx_ptr: dict[int, np.ndarray] = {}
        self._sizes: dict[int, np.ndarray] = {}
        self._idx_files: dict[int, object] = {}
        # Decompressed index-segment LRU: (piece, vertex) -> sample-id
        # slab, for hot vertices hit by repeated gathers (CELF re-scans
        # the same candidate pool every round).  0 disables.
        if index_cache_bytes is None:
            index_cache_bytes = min(
                self.max_resident_bytes // _SEG_CACHE_FRACTION,
                _SEG_CACHE_MAX_BYTES,
            )
        if int(index_cache_bytes) < 0:
            raise ConfigError(
                f"index_cache_bytes must be >= 0, got {index_cache_bytes}"
            )
        self._seg_budget = int(index_cache_bytes)
        self._seg_cache: OrderedDict[tuple[int, int], np.ndarray] = (
            OrderedDict()
        )
        self._seg_bytes = 0
        self._seg_hits = 0
        self._seg_misses = 0
        # Adaptive pool-size crossover: the largest request pool the
        # segment LRU serves, re-fit from observed hit rate and segment
        # sizes every _SEG_ADAPT_EVERY lookups (see _adapt_seg_limit).
        self._seg_limit = _SEG_POOL_LIMIT
        self._seg_adapt_mark = 0
        self.manifest_version = _MANIFEST_VERSION
        # (size, crc32) of the roots this store last wrote (save_roots).
        self._roots_key: tuple[int, int] | None = None

    # -- paths ----------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.shard_dir, name)

    def _block_path(self, piece: int, block: int) -> str:
        return self._path(f"piece{piece:03d}_block{block:05d}.npz")

    def _idx_ptr_path(self, piece: int) -> str:
        return self._path(f"piece{piece:03d}.idx_ptr.npy")

    def _sizes_path(self, piece: int) -> str:
        return self._path(f"piece{piece:03d}.sizes.npy")

    def _idx_bin_path(self, piece: int) -> str:
        return self._path(f"piece{piece:03d}.idx.bin")

    # -- manifest -------------------------------------------------------

    def _write_manifest(self) -> None:
        if self.shared_writer:
            # Workers never own the manifest: a worker rewriting it
            # could clobber the coordinator's finalize marker.  Shard
            # files alone carry their progress.
            return
        payload = {
            "format": _FORMAT,
            "version": self.manifest_version,
            "n": self.n,
            "num_pieces": self.num_pieces,
            "theta": self.theta,
            "block_size": self.block_size,
            "fingerprint": self.fingerprint,
            "finalized": self.finalized,
        }
        tmp = self._path(_MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self._path(_MANIFEST))

    def _read_manifest(self) -> dict | None:
        path = self._path(_MANIFEST)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as err:
            raise StoreError(f"unreadable shard manifest {path}: {err}") from err

    # -- write protocol -------------------------------------------------

    def begin(self, n, num_pieces, theta, block_size, *, fingerprint=None):
        super().begin(n, num_pieces, theta, block_size, fingerprint=fingerprint)
        manifest = self._read_manifest()
        if manifest is None:
            self._completed = set()
            self._touch.clear()
            self._touch_bytes = 0
            self._roots_key = None
            self.manifest_version = _MANIFEST_VERSION
            self._write_manifest()
            return
        # A manifest that predates the version field is version 1: its
        # shards carry no touch summaries, so delta invalidation must
        # degrade to all-blocks-dirty.  The version is *sticky* — a
        # resume never upgrades it, because resumed v1 shards stay
        # summary-less even though new commits would carry summaries.
        self.manifest_version = int(manifest.get("version", 1))
        expected = {
            "n": self.n,
            "num_pieces": self.num_pieces,
            "theta": self.theta,
            "block_size": self.block_size,
        }
        found = {key: manifest.get(key) for key in expected}
        if found != expected or (
            fingerprint is not None
            and manifest.get("fingerprint") not in (None, fingerprint)
        ):
            raise StoreError(
                f"shard dir {self.shard_dir} holds a different collection "
                f"(manifest {found}, fingerprint "
                f"{manifest.get('fingerprint')!r}; expected {expected}, "
                f"{fingerprint!r}) — point at an empty directory or remove "
                f"the stale shards"
            )
        # Resume: completion truth is the committed shard *files* (the
        # manifest lists no blocks) — a scan picks up both blocks whose
        # files survived and blocks committed by other writers (foreign
        # pids in a distributed fill).  Summaries of blocks whose files
        # are gone are dropped with them.
        self._completed = set()
        self.rescan()
        for key in [k for k in self._touch if k not in self._completed]:
            self._forget_touch(key)
        self.finalized = bool(manifest.get("finalized")) and all(
            os.path.exists(p)
            for j in range(self.num_pieces)
            for p in (
                self._idx_ptr_path(j),
                self._sizes_path(j),
                self._idx_bin_path(j),
            )
        )
        self._write_manifest()

    def has_block(self, piece: int, block: int) -> bool:
        return (piece, block) in self._completed

    def rescan(self) -> int:
        """Union completion state with the shard files on disk.

        The distributed fill's polling primitive: shards commit through
        rename-atomic writes, so a matching filename *is* a completed
        block — whoever wrote it, in whatever order.  Returns the
        completed-block count.  Files outside this store's dimensions
        (from some other run's debris) are ignored, never trusted.
        """
        try:
            names = os.listdir(self.shard_dir)
        except OSError:
            return len(self._completed)
        for name in names:
            match = _SHARD_NAME.fullmatch(name)
            if match is None:
                continue
            piece, block = int(match.group(1)), int(match.group(2))
            if 0 <= piece < self.num_pieces and 0 <= block < self.num_blocks:
                self._completed.add((piece, block))
        return len(self._completed)

    def put_block(self, piece, block, ptr, nodes) -> None:
        ptr = np.asarray(ptr, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        self._check_block(piece, block, ptr, nodes)
        if self.has_block(piece, block):
            return
        touch = touch_summary(nodes, self.n)
        # Writer-unique staging name: two processes racing on the same
        # block (a stolen-but-alive lease) must not interleave one .tmp
        # file; both renames land identical bytes, so the duplicate
        # commit is a benign no-op.  The touch member rides along in
        # every shard; readers that predate it load only ptr/nodes and
        # never see it, and v1 directories ignore it via the manifest
        # version.  The manifest is not rewritten: the committed file
        # is the only record of completion (see rescan).
        self._atomic_write(
            self._block_path(piece, block),
            lambda fh: np.savez(fh, ptr=ptr, nodes=nodes, touch=touch),
        )
        self._completed.add((piece, block))
        self._remember_touch((piece, block), touch)

    @property
    def supports_touch(self) -> bool:
        return self.manifest_version >= 2

    def block_touch(self, piece: int, block: int) -> np.ndarray | None:
        # Summaries put_block computed, or an earlier query read, are
        # served from RAM; the shard file is opened only on a miss.
        key = (piece, block)
        summary = self._touch.get(key)
        if summary is not None:
            return summary
        try:
            with np.load(self._block_path(piece, block)) as payload:
                if "touch" not in payload.files:
                    return None
                summary = payload["touch"].astype(np.int64, copy=False)
        except Exception:  # noqa: BLE001 — unreadable summary = dirty
            return None
        self._remember_touch(key, summary)
        return summary

    def _remember_touch(self, key: tuple[int, int], summary) -> None:
        """Keep one shard's summary in RAM while they fit the budget."""
        self._forget_touch(key)
        budget = self.max_resident_bytes // _TOUCH_CACHE_FRACTION
        if self._touch_bytes + summary.nbytes <= budget:
            self._touch[key] = summary
            self._touch_bytes += summary.nbytes

    def _forget_touch(self, key: tuple[int, int]) -> None:
        old = self._touch.pop(key, None)
        if old is not None:
            self._touch_bytes -= old.nbytes

    def _load_block_file(
        self, piece: int, block: int
    ) -> tuple[np.ndarray, np.ndarray]:
        path = self._block_path(piece, block)
        try:
            with np.load(path) as payload:
                return (
                    payload["ptr"].astype(np.int64, copy=False),
                    payload["nodes"].astype(np.int64, copy=False),
                )
        except Exception as err:  # noqa: BLE001 — any load failure is fatal
            raise StoreError(
                f"shard {path} is missing or corrupted: {err}"
            ) from err

    def _check_mutable(self, what: str) -> None:
        if self.shared_writer:
            raise StoreError(
                f"a shared-writer store cannot {what} — only the "
                f"coordinator owns store mutation"
            )

    def _drop_piece_index(self, piece: int) -> None:
        """Remove one piece's index files — the staleness marker.

        :meth:`finalize` rebuilds exactly the pieces whose index files
        are missing, so dropping them here and deleting the stale
        shards is the whole invalidation protocol; a crash between the
        two steps leaves a directory that simply rebuilds more.
        """
        fh = self._idx_files.pop(piece, None)
        if fh is not None:
            fh.close()
        self._idx_ptr.pop(piece, None)
        self._sizes.pop(piece, None)
        for path in (
            self._idx_ptr_path(piece),
            self._sizes_path(piece),
            self._idx_bin_path(piece),
        ):
            try:
                os.remove(path)
            except OSError:
                pass
        for key in [k for k in self._seg_cache if k[0] == piece]:
            seg = self._seg_cache.pop(key)
            self._seg_bytes -= seg.nbytes

    def _piece_index_ready(self, piece: int) -> bool:
        """Whether one piece's full index triple is on disk.

        Committed shards are immutable, so an existing index triple is
        always consistent with the shard files — the only way a piece
        goes stale is through :meth:`_drop_piece_index`, which removes
        the files (and the index writes themselves are rename-atomic).
        """
        return all(
            os.path.exists(p)
            for p in (
                self._idx_ptr_path(piece),
                self._sizes_path(piece),
                self._idx_bin_path(piece),
            )
        )

    def _drop_block(self, piece: int, block: int) -> None:
        try:
            os.remove(self._block_path(piece, block))
        except OSError:
            pass
        self._completed.discard((piece, block))
        self._forget_touch((piece, block))
        hit = self._cache.pop((piece, block), None)
        if hit is not None:
            self._cache_bytes -= hit[0].nbytes + hit[1].nbytes

    def invalidate_blocks(self, pairs) -> None:
        self._check_mutable("invalidate blocks")
        pairs = sorted({(int(p), int(b)) for p, b in pairs})
        for piece, block in pairs:
            if not (
                0 <= piece < self.num_pieces and 0 <= block < self.num_blocks
            ):
                raise StoreError(
                    f"cannot invalidate (piece {piece}, block {block}) "
                    f"outside ({self.num_pieces}, {self.num_blocks})"
                )
        if not pairs:
            return
        for piece, block in pairs:
            self._drop_block(piece, block)
        for piece in sorted({p for p, _ in pairs}):
            self._drop_piece_index(piece)
        self.finalized = False
        self._write_manifest()

    def retarget(self, theta, *, fingerprint=None) -> None:
        self._check_mutable("retarget")
        theta = int(theta)
        if theta < self.theta:
            raise StoreError(
                f"cannot shrink a store from theta={self.theta} to {theta}"
            )
        if theta == self.theta:
            if fingerprint is not None and fingerprint != self.fingerprint:
                self.fingerprint = fingerprint
                self._write_manifest()
            return
        last = self.num_blocks - 1
        lo, old_hi = self._block_span(last)
        self.theta = theta
        self.num_blocks = -(-theta // self.block_size)
        if min(lo + self.block_size, theta) != old_hi:
            for j in range(self.num_pieces):
                self._drop_block(j, last)
        # Every piece index covers the old theta (sizes is O(theta)):
        # all of them rebuild over the appended range.
        for j in range(self.num_pieces):
            self._drop_piece_index(j)
        if fingerprint is not None:
            self.fingerprint = fingerprint
        self.finalized = False
        self._write_manifest()

    def finalize(self) -> None:
        if self.finalized:
            return
        # Foreign writers commit shard files without touching this
        # instance's in-memory set — pick them up before deciding
        # anything is missing (out-of-order arrival is fine; the index
        # build below visits blocks in root order regardless).
        self.rescan()
        missing = [
            (j, b)
            for j in range(self.num_pieces)
            for b in range(self.num_blocks)
            if not self.has_block(j, b)
        ]
        if missing:
            raise StoreError(
                f"cannot finalize: {len(missing)} shard(s) never "
                f"committed, first {missing[:4]}"
            )
        for j in range(self.num_pieces):
            # Partial re-finalize: only pieces whose index files were
            # dropped (delta invalidation, theta growth, a torn earlier
            # finalize) rebuild — committed shards are immutable, so a
            # surviving index triple is still exact.
            if not self._piece_index_ready(j):
                self._build_piece_index(j)
        self.finalized = True
        self._write_manifest()

    def _build_piece_index(self, piece: int) -> None:
        """One piece's inverted index, reading each shard file once.

        The read pass records per-sample sizes and keeps each shard's
        nodes while the piece fits one bucket of the build budget (32
        bytes/entry within ``max_resident_bytes``: the nodes plus the
        inversion's scratch; ~8M entries at the default).  Such a piece
        is inverted in RAM by :func:`_invert_csr`, the construction
        :class:`MemoryStore` uses, and written out: no second read, no
        spill.  A piece that overflows the bucket drops what it kept,
        counts per-vertex entries instead and goes through
        :meth:`_external_sort`.  Shards are visited in root order, so
        either way each vertex's slab lists sample ids in increasing
        order and the index files are byte-identical.
        """
        sizes = np.empty(self.theta, dtype=np.int64)
        bucket_entries = max(self.max_resident_bytes // 32, 4096)
        kept: list[np.ndarray] = []
        counts = None
        total = 0
        for b in range(self.num_blocks):
            lo, hi = self._block_span(b)
            block_ptr, nodes = self._load_block_file(piece, b)
            sizes[lo:hi] = np.diff(block_ptr)
            total += nodes.size
            if counts is None:
                if total <= bucket_entries:
                    kept.append(nodes)
                    continue
                counts = np.zeros(self.n, dtype=np.int64)
                for part in kept:
                    counts += np.bincount(part, minlength=self.n)
                kept = []
            if nodes.size:
                counts += np.bincount(nodes, minlength=self.n)
        if counts is None:
            nodes = np.concatenate(kept)
            del kept
            ptr = np.zeros(self.theta + 1, dtype=np.int64)
            np.cumsum(sizes, out=ptr[1:])
            idx_ptr, idx_samples = _invert_csr(ptr, nodes, self.n)
            del nodes
            self._atomic_write(self._idx_bin_path(piece), idx_samples.tofile)
        else:
            idx_ptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=idx_ptr[1:])
            self._external_sort(piece, idx_ptr, bucket_entries)
        self._atomic_save(self._idx_ptr_path(piece), idx_ptr)
        self._atomic_save(self._sizes_path(piece), sizes)
        self._idx_ptr[piece] = idx_ptr
        self._sizes[piece] = sizes

    def _external_sort(
        self, piece: int, idx_ptr: np.ndarray, bucket_entries: int
    ) -> None:
        """Write ``idx.bin`` of a piece too big for one in-RAM bucket.

        A second pass over the shards splits each shard's (vertex,
        sample) pairs into vertex-range buckets on disk, each holding at
        most ``bucket_entries`` entries (a single heavier vertex gets a
        bucket of its own); each bucket is then loaded alone, stably
        sorted by vertex, and appended to ``idx.bin``.  Both stable
        sorts are radix-keyed (``stable_key_order``), or with the
        compiled tier live the counting-sort kernel
        ``repro.native.kernels.sort_pairs_by_vertex``: O(pairs + n),
        identical output.
        """
        use_native = _native.compiled()
        bounds = _chunk_bounds(idx_ptr[1:], bucket_entries)
        names = [
            (
                self._path(f".bucket{piece:03d}_{i:04d}.v"),
                self._path(f".bucket{piece:03d}_{i:04d}.s"),
            )
            for i in range(len(bounds) - 1)
        ]
        bucket_v = [open(v, "wb") for v, _ in names]
        bucket_s = [open(s, "wb") for _, s in names]

        def write_buckets(out) -> None:
            for v_path, s_path in names:
                v = np.fromfile(v_path, dtype=np.int64)
                s = np.fromfile(s_path, dtype=np.int64)
                if use_native:
                    sv = np.empty(v.size, dtype=np.int64)
                    ss = np.empty(s.size, dtype=np.int64)
                    _nk.sort_pairs_by_vertex(v, s, self.n, sv, ss)
                    ss.tofile(out)
                else:
                    s[stable_key_order(v, self.n)].tofile(out)

        try:
            for b in range(self.num_blocks):
                lo, _ = self._block_span(b)
                ptr, nodes = self._load_block_file(piece, b)
                samples = lo + np.repeat(
                    np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr)
                )
                if use_native:
                    sv = np.empty(nodes.size, dtype=np.int64)
                    ss = np.empty(nodes.size, dtype=np.int64)
                    _nk.sort_pairs_by_vertex(nodes, samples, self.n, sv, ss)
                else:
                    order = stable_key_order(nodes, self.n)
                    sv, ss = nodes[order], samples[order]
                cuts = np.searchsorted(sv, bounds)
                for i in range(len(bounds) - 1):
                    a, z = cuts[i], cuts[i + 1]
                    if a < z:
                        sv[a:z].tofile(bucket_v[i])
                        ss[a:z].tofile(bucket_s[i])
            for fh in bucket_v + bucket_s:
                fh.close()
            self._atomic_write(self._idx_bin_path(piece), write_buckets)
        finally:
            for fh in bucket_v + bucket_s:
                fh.close()
            for pair in names:
                for path in pair:
                    try:
                        os.remove(path)
                    except OSError:
                        pass

    def _atomic_write(self, path: str, write) -> None:
        """Rename-atomic file write: ``write(fh)`` fills a writer-unique
        staging file that then replaces ``path`` — a torn write never
        half-replaces a file another process may be reading (or that
        :meth:`_piece_index_ready` would trust)."""
        tmp = f"{path}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
        try:
            with open(tmp, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _atomic_save(self, path: str, arr: np.ndarray) -> None:
        """Rename-atomic ``np.save`` (see :meth:`_atomic_write`)."""
        self._atomic_write(path, lambda fh: np.save(fh, arr))

    # -- reload ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        shard_dir: str,
        *,
        max_resident_bytes: int | None = None,
        index_cache_bytes: int | None = None,
    ) -> "ShardStore":
        """Reopen a finalized shard directory for querying."""
        store = cls(
            shard_dir,
            max_resident_bytes=max_resident_bytes,
            index_cache_bytes=index_cache_bytes,
        )
        manifest = store._read_manifest()
        if manifest is None:
            raise StoreError(f"no shard manifest in {shard_dir}")
        store.begin(
            manifest["n"],
            manifest["num_pieces"],
            manifest["theta"],
            manifest["block_size"],
            fingerprint=manifest.get("fingerprint"),
        )
        if not store.finalized:
            if manifest.get("finalized"):
                # The commit marker is there but the index files are
                # not: the payload was deleted or torn after finalize —
                # genuine corruption, not a retryable in-progress write.
                raise StoreError(
                    f"shard dir {shard_dir} is marked finalized but its "
                    f"index files are missing — the directory is "
                    f"corrupted; remove it and regenerate"
                )
            # The manifest matches but carries no finalize marker yet:
            # another worker is — or was — still writing.  This is
            # incomplete, not corrupt: retry later, resume the
            # generation against the same directory, or regenerate
            # elsewhere.  (Mismatched manifests and torn shard/index
            # files keep raising the parent StoreError.)
            raise StoreBusyError(
                f"shard dir {shard_dir} is incomplete — no finalize "
                f"marker yet (a concurrent generation may still be "
                f"writing); retry, resume, or regenerate"
            )
        return store

    def save_roots(self, roots: np.ndarray) -> None:
        """Persist the root draw; a no-op when this store last wrote
        these very roots and the file is still there.

        The roots change only in a fresh directory or when theta grows,
        so an update at the same theta skips the O(theta) rewrite.
        """
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        key = (roots.size, zlib.crc32(roots))
        path = self._path("roots.npy")
        if key == self._roots_key and os.path.exists(path):
            return
        self._atomic_save(path, roots)
        self._roots_key = key

    def load_roots(self) -> np.ndarray:
        path = self._path("roots.npy")
        try:
            return np.load(path).astype(np.int64, copy=False)
        except Exception as err:  # noqa: BLE001
            raise StoreError(
                f"roots array {path} is missing or corrupted: {err}"
            ) from err

    # -- reads ----------------------------------------------------------

    @property
    def gather_chunk_bytes(self) -> int:
        return max(self.max_resident_bytes, 4096)

    @property
    def resident_bytes(self) -> int:
        return self._cache_bytes + self._seg_bytes + self._touch_bytes

    def stats(self) -> dict[str, int]:
        """Managed-cache counters: the segment LRU and the block LRU."""
        return {
            "index_cache_hits": self._seg_hits,
            "index_cache_misses": self._seg_misses,
            "index_cache_entries": len(self._seg_cache),
            "index_cache_bytes": self._seg_bytes,
            "index_cache_pool_limit": self._seg_limit,
            "block_cache_bytes": self._cache_bytes,
        }

    def _structural(self, piece: int) -> tuple[np.ndarray, np.ndarray]:
        self._check_finalized()
        if piece not in self._idx_ptr:
            try:
                self._idx_ptr[piece] = np.load(self._idx_ptr_path(piece))
                self._sizes[piece] = np.load(self._sizes_path(piece))
            except Exception as err:  # noqa: BLE001
                raise StoreError(
                    f"piece {piece} index of {self.shard_dir} is missing "
                    f"or corrupted: {err}"
                ) from err
        return self._idx_ptr[piece], self._sizes[piece]

    def idx_ptr(self, piece: int) -> np.ndarray:
        return self._structural(piece)[0]

    def rr_set_sizes(self, piece: int) -> np.ndarray:
        return self._structural(piece)[1]

    def _idx_file(self, piece: int):
        fh = self._idx_files.get(piece)
        if fh is None:
            try:
                fh = open(self._idx_bin_path(piece), "rb")
            except OSError as err:
                raise StoreError(
                    f"inverted index {self._idx_bin_path(piece)} is "
                    f"missing: {err}"
                ) from err
            self._idx_files[piece] = fh
        return fh

    def _read_slab(self, fh, out_bytes: memoryview, lo: int, hi: int) -> None:
        fh.seek(8 * lo)
        want = 8 * (hi - lo)
        got = fh.readinto(out_bytes[: want])
        if got != want:
            raise StoreError(
                f"inverted index truncated: wanted {want} bytes at "
                f"offset {8 * lo}, got {got}"
            )

    def read_index_range(self, piece, lo, hi) -> np.ndarray:
        self._check_finalized()
        out = np.empty(hi - lo, dtype=np.int64)
        if hi > lo:
            self._read_slab(
                self._idx_file(piece), memoryview(out).cast("B"), lo, hi
            )
        return out

    def gather_index(self, piece, vertices):
        """Coalescing slab gather: one read per merged offset run.

        The naive reader seeks once per vertex; on a whole-pool scan
        that is |pool| syscalls over a file laid out in vertex order.
        Requested slabs are instead sorted by file offset (= vertex
        order), adjacent-or-near ranges are merged — gaps up to
        :data:`_COALESCE_GAP_BYTES` are read through and discarded,
        trading a little sequential over-read for a seek — and each
        merged run is fetched with a single ``read()``.  Results are
        scattered back into request order, so output is byte-identical
        to the per-vertex reader for any vertex order or multiplicity.

        The merged-run buffer counts against the store's resident
        contract: when gap read-through would push (output + buffer)
        past :attr:`gather_chunk_bytes` the merge retries without
        read-through (adjacent/overlapping ranges only, buffer <=
        output), and if even that is too sparse-and-huge the gather
        falls back to the per-vertex direct reads — bounded memory
        first, saved seeks second.

        A bounded LRU of decompressed index segments sits in front of
        the file reads (``index_cache_bytes``; hit/miss counters in
        :meth:`stats`): repeated gathers over a hot candidate pool —
        CELF re-scoring the same vertices every round — are served from
        RAM, with only the cold subset going through the coalescing
        reader.  Output is byte-identical either way.
        """
        self._check_finalized()
        ptr = self.idx_ptr(piece)
        deg = ptr[vertices + 1] - ptr[vertices]
        total = int(deg.sum())
        if not total:
            return np.zeros(0, dtype=np.int64), deg
        # The segment LRU pays O(pool) Python-level bookkeeping, which
        # only beats the vectorised coalescing reader for the small hot
        # pools solvers hammer (CELF marginal re-scores, BAB child
        # evaluations); large scans go straight to the file path.  The
        # crossover starts at the measured-on-tmpfs default and adapts
        # to the observed hit rate and segment sizes; both paths return
        # byte-identical output, so the switch point never changes
        # results.
        if self._seg_budget <= 0 or vertices.size > self._seg_limit:
            return self._gather_slabs(piece, ptr, vertices, deg, total), deg
        return self._gather_via_segments(piece, ptr, vertices, deg, total), deg

    def _adapt_seg_limit(self) -> None:
        """Re-fit the segment-LRU pool-size crossover from live stats.

        A hot cache (high hit rate) means the Python-level bookkeeping
        is amortised by avoided reads, so the crossover moves up — a
        cold one pushes it back toward the coalescing reader.  The
        limit is additionally capped so one served pool cannot exceed
        the cache budget at the observed average segment size (admitting
        a pool that can never fit just churns the LRU).
        """
        lookups = self._seg_hits + self._seg_misses
        if not lookups:
            return
        hit_rate = self._seg_hits / lookups
        limit = int(_SEG_POOL_LIMIT * (0.5 + 2.0 * hit_rate))
        if self._seg_cache:
            avg_bytes = max(self._seg_bytes // len(self._seg_cache), 1)
            limit = min(limit, max(self._seg_budget // avg_bytes, 1))
        self._seg_limit = int(
            min(max(limit, _SEG_LIMIT_MIN), _SEG_LIMIT_MAX)
        )

    def _gather_via_segments(self, piece, ptr, vertices, deg, total):
        """Serve hot slabs from the segment LRU, read the rest, merge.

        Positions are assembled strictly in request order, so the
        concatenation is byte-identical to a pure file gather for any
        vertex order or multiplicity.
        """
        cache = self._seg_cache
        vlist = vertices.tolist()
        slabs: list[np.ndarray | None] = [None] * len(vlist)
        miss_pos: list[int] = []
        hits = 0
        for pos, (v, d) in enumerate(zip(vlist, deg.tolist())):
            if d == 0:
                slabs[pos] = _EMPTY_I64
                continue
            seg = cache.get((piece, v))
            if seg is None:
                miss_pos.append(pos)
            else:
                cache.move_to_end((piece, v))
                slabs[pos] = seg
                hits += 1
        self._seg_hits += hits
        self._seg_misses += len(miss_pos)
        lookups = self._seg_hits + self._seg_misses
        if lookups - self._seg_adapt_mark >= _SEG_ADAPT_EVERY:
            self._seg_adapt_mark = lookups
            self._adapt_seg_limit()
        if miss_pos:
            sub = vertices[miss_pos]
            sub_deg = deg[miss_pos]
            sub_samples = self._gather_slabs(
                piece, ptr, sub, sub_deg, int(sub_deg.sum())
            )
            offsets = np.zeros(len(miss_pos) + 1, dtype=np.int64)
            np.cumsum(sub_deg, out=offsets[1:])
            for i, pos in enumerate(miss_pos):
                seg = sub_samples[offsets[i] : offsets[i + 1]]
                slabs[pos] = seg
                self._admit_segment(piece, vlist[pos], seg)
            self._evict_segments()
        if len(slabs) == 1:
            return np.asarray(slabs[0])
        return np.concatenate(slabs)

    def _admit_segment(self, piece: int, vertex: int, seg: np.ndarray) -> None:
        """Admit one vertex's slab (copied — the cache owns its bytes)."""
        nbytes = seg.nbytes
        if nbytes == 0 or nbytes > max(self._seg_budget // 8, 1):
            # one huge slab must not flush the whole cache
            return
        key = (piece, int(vertex))
        old = self._seg_cache.pop(key, None)
        if old is not None:
            self._seg_bytes -= old.nbytes
        self._seg_cache[key] = seg.copy()
        self._seg_bytes += nbytes

    def _evict_segments(self) -> None:
        # The segment LRU honours both its own budget and the store-wide
        # resident ceiling shared with the block LRU and touch summaries.
        while self._seg_cache and (
            self._seg_bytes > self._seg_budget
            or self.resident_bytes > self.max_resident_bytes
        ):
            _, old = self._seg_cache.popitem(last=False)
            self._seg_bytes -= old.nbytes

    def _gather_slabs(self, piece, ptr, vertices, deg, total):
        """The file-reading gather: coalesced runs, bounded fallbacks."""
        # Offset order == vertex order (the index file is a vertex-major
        # CSR payload); stable sort keeps duplicates adjacent.
        order = np.argsort(vertices, kind="stable")
        order = order[deg[order] > 0]
        los = ptr[vertices[order]]
        his = los + deg[order]
        run_hi = np.maximum.accumulate(his)
        # The run buffer itself must respect the resident budget: with
        # read-through it can dwarf the requested bytes on sparse
        # pools, so retry gapless (buffer <= requested bytes, dedup
        # only shrinks it); if the request alone is over budget — a
        # caller bypassing iter_index_slabs' chunking — keep the
        # historical 1x-output per-vertex reads.
        budget = self.gather_chunk_bytes
        runs = None
        for gap in (max(self._COALESCE_GAP_BYTES // 8, 0), 0):
            candidate = self._merge_runs(los, run_hi, gap)
            if 8 * int(candidate[2][-1]) <= budget:
                runs = candidate
                break
        if runs is None:
            return self._gather_per_vertex(piece, ptr, vertices, deg, total)
        run_lo, run_end, buf_base = runs
        buf = np.empty(int(buf_base[-1]), dtype=np.int64)
        fh = self._idx_file(piece)
        view = memoryview(buf).cast("B")
        for r in range(run_lo.size):
            self._read_slab(
                fh,
                view[8 * int(buf_base[r]) : 8 * int(buf_base[r + 1])],
                int(run_lo[r]),
                int(run_end[r]),
            )
        # Scatter back into request order.  Compiled tier: one typed
        # loop that binary-searches each slab's owning run and copies it
        # (identical to the searchsorted + repeat-shift gather below).
        if _native.compiled():
            out = np.empty(total, dtype=np.int64)
            _nk.gather_scatter_runs(
                buf, ptr[vertices], deg, run_lo, buf_base, out
            )
            return out
        # NumPy form: per-vertex file positions (frontier_edge_slots)
        # shifted by the owning run's file-offset -> buffer-offset delta.
        run_of = np.searchsorted(run_lo, ptr[vertices], side="right") - 1
        run_of = np.clip(run_of, 0, run_lo.size - 1)
        shift = buf_base[run_of] - run_lo[run_of]
        slot_idx, _ = frontier_edge_slots(ptr, vertices)
        return buf[slot_idx + np.repeat(shift, deg)]

    @staticmethod
    def _merge_runs(los, run_hi, gap):
        """Segment offset-sorted slabs into merged read runs.

        A new run starts where the next slab lies past the previous
        run's high-water mark by more than ``gap`` entries.
        (Overlapping slabs — duplicate vertices — always merge, so
        every requested slab is wholly contained in exactly one run.)
        Returns ``(run_lo, run_end, buf_base)`` with ``buf_base`` the
        exclusive prefix sum of run lengths.
        """
        starts = np.empty(los.size, dtype=bool)
        starts[0] = True
        np.greater(los[1:], run_hi[:-1] + gap, out=starts[1:])
        run_first = np.flatnonzero(starts)
        run_lo = los[run_first]
        run_end = run_hi[np.append(run_first[1:] - 1, los.size - 1)]
        buf_base = np.zeros(run_lo.size + 1, dtype=np.int64)
        np.cumsum(run_end - run_lo, out=buf_base[1:])
        return run_lo, run_end, buf_base

    def _gather_per_vertex(self, piece, ptr, vertices, deg, total):
        """The historical reader: seek + read per vertex, 1x output RAM."""
        out = np.empty(total, dtype=np.int64)
        fh = self._idx_file(piece)
        view = memoryview(out).cast("B")
        pos = 0
        for v, d in zip(vertices.tolist(), deg.tolist()):
            if d == 0:
                continue
            lo = int(ptr[v])
            self._read_slab(fh, view[pos : pos + 8 * d], lo, lo + d)
            pos += 8 * d
        return out

    def _cached_block(self, piece, block) -> tuple[np.ndarray, np.ndarray]:
        key = (piece, block)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        ptr, nodes = self._load_block_file(piece, block)
        self._cache[key] = (ptr, nodes)
        self._cache_bytes += ptr.nbytes + nodes.nbytes
        while (
            self.resident_bytes > self.max_resident_bytes
            and len(self._cache) > 1
        ):
            _, (old_ptr, old_nodes) = self._cache.popitem(last=False)
            self._cache_bytes -= old_ptr.nbytes + old_nodes.nbytes
        if self.resident_bytes > self.max_resident_bytes:
            self._evict_segments()
        return ptr, nodes

    def rr_set(self, piece, sample) -> np.ndarray:
        self._check_finalized()
        block, local = divmod(int(sample), self.block_size)
        ptr, nodes = self._cached_block(piece, block)
        return nodes[ptr[local] : ptr[local + 1]]

    def rr_arrays(self, piece):
        self._check_finalized()
        sizes = self.rr_set_sizes(piece)
        ptr = np.zeros(self.theta + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        nodes = np.concatenate(
            [
                self._load_block_file(piece, b)[1]
                for b in range(self.num_blocks)
            ]
        )
        return ptr, nodes

    def index_arrays(self, piece):
        ptr = self.idx_ptr(piece)
        return ptr, self.read_index_range(piece, 0, int(ptr[-1]))

    def close(self) -> None:
        """Release file handles and drop the managed caches."""
        for fh in self._idx_files.values():
            fh.close()
        self._idx_files = {}
        self._cache.clear()
        self._cache_bytes = 0
        self._seg_cache.clear()
        self._seg_bytes = 0
        self._touch.clear()
        self._touch_bytes = 0

    def __repr__(self) -> str:
        return (
            f"ShardStore(dir={self.shard_dir!r}, pieces={self.num_pieces}, "
            f"theta={self.theta}, resident={self.resident_bytes}/"
            f"{self.max_resident_bytes})"
        )
