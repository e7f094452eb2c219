"""Coalescing ShardStore.gather_index micro-benchmark.

The disk store's inverted-index file is a vertex-major CSR payload, so
a candidate pool's slabs are scattered-but-ordered ranges of one file.
The historical reader issued one ``seek`` + ``read`` per vertex; the
coalescing reader sorts the requested slabs by file offset and merges
adjacent-or-near ranges (gaps up to 64 KiB are read through) before
reading, collapsing a whole-pool gather into a handful of sequential
reads.  This benchmark pins

* correctness: coalesced output byte-identical to a per-vertex
  reference reader for shuffled, duplicated, and sparse pools;
* the syscall collapse: a dense whole-pool gather must issue far fewer
  reads than vertices (the win survives even on page-cached tmpfs,
  where per-read overhead, not head movement, is the cost);

and records the measured wall-clock ratio in
``benchmarks/out/store_gather_coalesce.txt``.

The coalescing reader is the only path from the solvers to the index
file: there is no slab cache in front of it.  An earlier in-RAM
segment LRU, and its repeated-gather speed gate, went once local
search stopped re-gathering the same small pool for every candidate
move (it scores moves from a per-solve ``PoolIndex``, as BAB and
BAB-P do), which left the cache nothing to serve.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.datasets.registry import load_dataset
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.sampling.store import ShardStore
from repro.topics.distributions import Campaign

THETA = 4_000
PIECES = 2


@pytest.fixture(scope="module")
def disk_mrr(tmp_path_factory):
    bundle = load_dataset("lastfm", scale=0.5)
    campaign = Campaign.sample_unit(
        PIECES, bundle.graph.num_topics, seed=3
    )
    shard_dir = str(tmp_path_factory.mktemp("gather-shards"))
    mrr = MRRCollection.generate(
        bundle.graph,
        campaign,
        THETA,
        seed=3,
        runtime=Runtime(store="disk", shard_dir=shard_dir),
    )
    return mrr


def _reference_gather(store: ShardStore, piece: int, vertices: np.ndarray):
    """The historical per-vertex seek/read loop."""
    ptr = store.idx_ptr(piece)
    deg = ptr[vertices + 1] - ptr[vertices]
    out = np.empty(int(deg.sum()), dtype=np.int64)
    view = memoryview(out).cast("B")
    fh = store._idx_file(piece)
    pos = 0
    for v, d in zip(vertices.tolist(), deg.tolist()):
        if d == 0:
            continue
        lo = int(ptr[v])
        store._read_slab(fh, view[pos : pos + 8 * d], lo, lo + d)
        pos += 8 * d
    return out, deg


@pytest.mark.parametrize("shape", ["shuffled", "duplicated", "sparse"])
def test_coalesced_gather_matches_reference(disk_mrr, shape):
    store = disk_mrr.store
    rng = np.random.default_rng(11)
    n = disk_mrr.n
    if shape == "shuffled":
        vertices = rng.permutation(n).astype(np.int64)
    elif shape == "duplicated":
        vertices = rng.integers(0, n, size=2 * n, dtype=np.int64)
    else:
        vertices = np.sort(
            rng.choice(n, size=max(n // 17, 4), replace=False)
        ).astype(np.int64)
    for piece in range(disk_mrr.num_pieces):
        got, got_deg = store.gather_index(piece, vertices)
        want, want_deg = _reference_gather(store, piece, vertices)
        np.testing.assert_array_equal(got_deg, want_deg)
        np.testing.assert_array_equal(got, want)


def _count_reads(store, piece, vertices, monkeypatch):
    calls = {"n": 0}
    original = ShardStore._read_slab

    def counting(self, fh, view, lo, hi):
        calls["n"] += 1
        return original(self, fh, view, lo, hi)

    monkeypatch.setattr(ShardStore, "_read_slab", counting)
    store.gather_index(piece, vertices)
    monkeypatch.undo()
    return calls["n"]


def test_gather_read_coalescing(disk_mrr, monkeypatch, artifact_dir):
    """Whole-pool gathers collapse to a handful of reads; record timing."""
    store = disk_mrr.store
    vertices = np.arange(disk_mrr.n, dtype=np.int64)
    reads = _count_reads(store, 0, vertices, monkeypatch)
    populated = int(
        (disk_mrr.vertex_frequencies(0) > 0).sum()
    )
    # A dense in-order pool is one contiguous byte range: the merged-run
    # reader must use a small constant number of reads, not O(pool).
    assert reads <= max(populated // 16, 4), (
        f"{reads} reads for {populated} populated vertices — "
        "coalescing regressed to per-vertex seeks"
    )

    def timed(fn, *args):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        return best

    shuffled = np.random.default_rng(7).permutation(disk_mrr.n).astype(
        np.int64
    )
    rows = []
    for label, pool in (("dense", vertices), ("shuffled", shuffled)):
        t_coalesced = timed(store.gather_index, 0, pool)
        t_reference = timed(_reference_gather, store, 0, pool)
        rows.append(
            f"{label:>9}: reference {t_reference * 1e3:8.3f} ms   "
            f"coalesced {t_coalesced * 1e3:8.3f} ms   "
            f"speedup {t_reference / t_coalesced:5.2f}x"
        )
    text = (
        "ShardStore.gather_index coalescing "
        f"(theta={THETA}, pieces={PIECES}, n={disk_mrr.n})\n"
        f"whole-pool reads: {reads} (populated vertices: {populated})\n"
        + "\n".join(rows)
    )
    write_artifact(artifact_dir, "store_gather_coalesce", text)
