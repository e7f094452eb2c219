"""Benchmarks of the batched sampling engine vs the reference loops.

Times ``sample_many`` of the batch engines against the per-vertex
oracle of :mod:`repro.sampling.reference` (IC *and* LT) across graph
sizes, full MRR-collection construction across piece counts, and the
vectorized coverage marginal-gain kernel against its per-candidate loop
reference, so every batch-engine speedup is recorded in the perf
trajectory.  The headline checks, all on the largest micro-kernel graph
size (n=2000, the :mod:`bench_micro_kernels` world):

* batched IC RR sampling >= 5x over the Python reference loop;
* batched LT RR sampling >= 5x over the reference weighted walk;
* vectorized coverage marginal-gain >= 5x over the per-candidate loop;
* copy-on-write branch cloning (``CoverageState.copy`` + ``add_many``
  on per-piece byte rows) >= 5x over the dense bool baseline the seed
  shipped (the BAB branching micro-benchmark);
* greedy max-coverage seed sets identical across selection paths on
  every collection, and between the batch engine and the reference
  loop in the stream-preserving (single-root-block) configuration.

The speedup tables also record the (adaptive) block size each batch
sampler chose, so block-heuristic changes show up in the artifacts.

Run:
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_sampling.py -q
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import write_artifact
from repro.core.coverage import CoverageState, coverage_gains
from repro.diffusion.projection import project_campaign
from repro.diffusion.threshold import normalize_lt_weights
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.im.ris import max_coverage_seeds
from repro.sampling import reference
from repro.sampling.batch import BACKENDS, BatchLTSampler, BatchRRSampler
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign
from repro.utils.rng import as_generator
from repro.utils.tables import format_table

SIZES = [500, 2000]
LARGEST = max(SIZES)
PIECE_COUNTS = [1, 3]
THETA = 2000


@pytest.fixture(scope="module")
def worlds():
    """One micro-kernel-shaped world per graph size (n=2000 matches
    :mod:`bench_micro_kernels` exactly)."""
    built = {}
    for n in SIZES:
        src, dst = preferential_attachment_digraph(n, 5, seed=41)
        graph = build_topic_graph(
            n, src, dst, 8, topics_per_edge=2.0, prob_mean=0.1, seed=42
        )
        campaign = Campaign.sample_unit(max(PIECE_COUNTS), 8, seed=43)
        piece_graphs = project_campaign(graph, campaign)
        roots = as_generator(45).integers(0, n, size=THETA)
        built[n] = (graph, campaign, piece_graphs, roots)
    return built


def _ic_engines(pg):
    """The reference reverse BFS and the batch engine, as
    ``sample_many(roots, rng)`` callables."""
    return {
        "reference": lambda roots, rng: reference.ic_rr_sets(pg, roots, rng),
        "batch": BatchRRSampler(pg).sample_many,
    }


def _lt_engines(pg):
    """The reference weighted walk and the batch LT engine."""
    return {
        "reference": lambda roots, rng: reference.lt_rr_sets(pg, roots, rng),
        "batch": BatchLTSampler(pg).sample_many,
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine", ["reference", "batch"])
def test_sample_many_backend(benchmark, worlds, n, engine):
    _, _, piece_graphs, roots = worlds[n]
    sample_many = _ic_engines(piece_graphs[0])[engine]
    rng = as_generator(7)
    ptr, _ = benchmark(sample_many, roots, rng)
    assert ptr[-1] >= roots.size  # every RR set holds at least its root


@pytest.mark.parametrize("pieces", PIECE_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_mrr_generate_backend(benchmark, worlds, pieces, backend):
    graph, campaign, piece_graphs, _ = worlds[LARGEST]
    sub_campaign = Campaign(list(campaign)[:pieces])
    mrr = benchmark(
        MRRCollection.generate,
        graph,
        sub_campaign,
        THETA,
        seed=9,
        piece_graphs=piece_graphs[:pieces],
        runtime=Runtime(backend=backend),
    )
    assert mrr.theta == THETA


def _best_time(sample_many, roots, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        rng = as_generator(7)
        start = time.perf_counter()
        sample_many(roots, rng)
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_speedup_target(worlds, artifact_dir, kernel_bench):
    """The acceptance bar: >= 5x over the reference loop at n=2000."""
    rows = []
    speedups = {}
    for n in SIZES:
        _, _, piece_graphs, roots = worlds[n]
        pg = piece_graphs[0]
        reference_s = _best_time(
            lambda roots, rng: reference.ic_rr_sets(pg, roots, rng), roots
        )
        engine = BatchRRSampler(pg)
        batch_s = _best_time(engine.sample_many, roots)
        speedups[n] = reference_s / batch_s
        if n == LARGEST:
            kernel_bench(
                "rr_sample_many", "reference", reference_s, theta=THETA, n=n
            )
            kernel_bench(
                "rr_sample_many", "batch", batch_s,
                speedup=speedups[n], theta=THETA, n=n,
            )
        rows.append(
            [
                n,
                pg.num_edges,
                engine.block_size,  # the adaptive choice for this batch
                reference_s * 1e3,
                batch_s * 1e3,
                speedups[n],
            ]
        )
    text = format_table(
        ["n", "edges", "block", "reference (ms)", "batch (ms)", "speedup"],
        rows,
        title=f"sample_many backends, theta={THETA} roots",
    )
    write_artifact(artifact_dir, "batch_sampling_speedup", text)
    assert speedups[LARGEST] >= 5.0, (
        f"batch backend only {speedups[LARGEST]:.1f}x faster at n={LARGEST}"
    )


@pytest.fixture(scope="module")
def lt_worlds(worlds):
    """The same micro-kernel worlds with LT-normalised weights."""
    return {
        n: normalize_lt_weights(piece_graphs[0])
        for n, (_, _, piece_graphs, _) in worlds.items()
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine", ["reference", "batch"])
def test_lt_sample_many_backend(benchmark, worlds, lt_worlds, n, engine):
    _, _, _, roots = worlds[n]
    sample_many = _lt_engines(lt_worlds[n])[engine]
    rng = as_generator(7)
    ptr, _ = benchmark(sample_many, roots, rng)
    assert ptr[-1] >= roots.size  # every walk holds at least its root


def test_lt_batch_speedup_target(worlds, lt_worlds, artifact_dir, kernel_bench):
    """The LT acceptance bar: >= 5x over the reference walk at n=2000."""
    rows = []
    speedups = {}
    for n in SIZES:
        _, _, _, roots = worlds[n]
        pg = lt_worlds[n]
        reference_s = _best_time(
            lambda roots, rng: reference.lt_rr_sets(pg, roots, rng), roots
        )
        engine = BatchLTSampler(pg)
        batch_s = _best_time(engine.sample_many, roots)
        speedups[n] = reference_s / batch_s
        if n == LARGEST:
            kernel_bench(
                "lt_sample_many", "reference", reference_s, theta=THETA, n=n
            )
            kernel_bench(
                "lt_sample_many", "batch", batch_s,
                speedup=speedups[n], theta=THETA, n=n,
            )
        rows.append(
            [
                n,
                pg.num_edges,
                engine.block_size,  # the adaptive choice for this batch
                reference_s * 1e3,
                batch_s * 1e3,
                speedups[n],
            ]
        )
    text = format_table(
        ["n", "edges", "block", "reference (ms)", "batch (ms)", "speedup"],
        rows,
        title=f"LT sample_many backends, theta={THETA} walks",
    )
    write_artifact(artifact_dir, "lt_batch_sampling_speedup", text)
    assert speedups[LARGEST] >= 5.0, (
        f"LT batch backend only {speedups[LARGEST]:.1f}x faster at n={LARGEST}"
    )


def _loop_gains(mrr, piece, pool, covered):
    """The per-candidate marginal-gain loop the kernel replaced."""
    return np.array(
        [
            int((~covered[mrr.samples_containing(piece, int(v))]).sum())
            for v in pool
        ],
        dtype=np.int64,
    )


def test_coverage_gain_speedup_target(worlds, artifact_dir, kernel_bench):
    """The coverage bar: the vectorized marginal-gain kernel is >= 5x
    faster than the per-candidate loop at n=2000, with equal output."""
    graph, campaign, piece_graphs, roots = worlds[LARGEST]
    sub_campaign = Campaign(list(campaign)[:1])
    mrr = MRRCollection.generate(
        graph,
        sub_campaign,
        THETA,
        seed=9,
        piece_graphs=piece_graphs[:1],
    )
    pool = np.arange(graph.n, dtype=np.int64)
    covered = np.zeros(mrr.theta, dtype=bool)
    covered[mrr.samples_containing(0, int(pool[7]))] = True
    loop_s, vec_s = float("inf"), float("inf")
    for _ in range(5):
        start = time.perf_counter()
        loop = _loop_gains(mrr, 0, pool, covered)
        loop_s = min(loop_s, time.perf_counter() - start)
        start = time.perf_counter()
        vec = coverage_gains(mrr, 0, pool, covered)
        vec_s = min(vec_s, time.perf_counter() - start)
    assert np.array_equal(loop, vec)
    speedup = loop_s / vec_s
    kernel_bench("coverage_gains", "python", loop_s, theta=mrr.theta)
    kernel_bench(
        "coverage_gains", "batch", vec_s, speedup=speedup, theta=mrr.theta
    )
    text = format_table(
        ["n", "theta", "loop (ms)", "kernel (ms)", "speedup"],
        [[graph.n, mrr.theta, loop_s * 1e3, vec_s * 1e3, speedup]],
        title="coverage marginal-gain kernel vs per-candidate loop",
    )
    write_artifact(artifact_dir, "coverage_gain_speedup", text)
    assert speedup >= 5.0, (
        f"coverage kernel only {speedup:.1f}x faster at n={graph.n}"
    )


class _DenseCoverageState:
    """The seed's CoverageState: dense (theta, l) bool + int64 counts.

    Kept here verbatim as the branching baseline — `copy` materialises
    the full matrix, exactly the per-node cost the copy-on-write
    coverage rows replaced.
    """

    __slots__ = ("mrr", "covered", "counts")

    def __init__(self, mrr):
        self.mrr = mrr
        self.covered = np.zeros((mrr.theta, mrr.num_pieces), dtype=bool)
        self.counts = np.zeros(mrr.theta, dtype=np.int64)

    def copy(self):
        clone = _DenseCoverageState.__new__(_DenseCoverageState)
        clone.mrr = self.mrr
        clone.covered = self.covered.copy()
        clone.counts = self.counts.copy()
        return clone

    def add_many(self, vertices, piece):
        samples, _ = self.mrr.gather_index_slabs(piece, vertices)
        if samples.size == 0:
            return samples
        samples = np.unique(samples)
        fresh = samples[~self.covered[samples, piece]]
        if fresh.size:
            self.covered[fresh, piece] = True
            self.counts[fresh] += 1
        return fresh


BRANCH_THETA = 200_000
BRANCH_PIECES = 16
BRANCH_OPS = 12
#: Trails per timed sample: one trail of the row engine is ~1.5 ms, short
#: enough that scheduler noise alone moved the ratio across the bar.
BRANCH_TRAILS = 4


def _branch_trail(state, ops):
    """A BAB-shaped workload: clone the node, commit one assignment."""
    for vertices, piece in ops:
        clone = state.copy()
        clone.add_many(vertices, piece)
    return clone


def _timed_trails(state, ops):
    start = time.perf_counter()
    for _ in range(BRANCH_TRAILS):
        clone = _branch_trail(state, ops)
    return time.perf_counter() - start, clone


def test_bitset_branch_speedup_target(worlds, artifact_dir):
    """The branching bar: copy-on-write ``copy`` + ``add_many`` >= 5x
    over the dense bool baseline at theta=200k, l=16, with identical
    coverage.

    Each branch clones the node state and commits one (vertex, piece)
    assignment — exactly the include-child step of Algorithm 1.  The
    dense baseline pays the full (theta x l) bool copy per clone; the
    coverage engine shares its per-piece byte rows copy-on-write and
    only duplicates the one row the branch dirties.  Each timed sample
    runs the trail ``BRANCH_TRAILS`` times; the best of five samples
    per side is compared.
    """
    graph, _, _, _ = worlds[LARGEST]
    campaign = Campaign.sample_unit(BRANCH_PIECES, 8, seed=47)
    mrr = MRRCollection.generate(graph, campaign, BRANCH_THETA, seed=48)
    rng = as_generator(49)
    ops = [
        (
            rng.integers(0, graph.n, size=1).astype(np.int64),
            int(rng.integers(0, BRANCH_PIECES)),
        )
        for _ in range(BRANCH_OPS)
    ]
    rows_state = CoverageState(mrr)
    dense_state = _DenseCoverageState(mrr)
    # Warm both (seed a little prior coverage so branches are typical).
    for vertices, piece in ops[:4]:
        rows_state.add_many(vertices, piece)
        dense_state.add_many(vertices, piece)
    dense_s, rows_s = float("inf"), float("inf")
    for _ in range(5):
        elapsed, dense_clone = _timed_trails(dense_state, ops)
        dense_s = min(dense_s, elapsed)
        elapsed, rows_clone = _timed_trails(rows_state, ops)
        rows_s = min(rows_s, elapsed)
    np.testing.assert_array_equal(
        np.asarray(rows_clone.counts, dtype=np.int64), dense_clone.counts
    )
    clone_piece = ops[-1][1]
    np.testing.assert_array_equal(
        rows_clone.bits.to_bool()[:, clone_piece],
        dense_clone.covered[:, clone_piece],
    )
    speedup = dense_s / rows_s
    per_branch_cols = [
        "theta",
        "pieces",
        "branches",
        "dense (ms)",
        "cow rows (ms)",
        "speedup",
    ]
    text = format_table(
        per_branch_cols,
        [
            [
                BRANCH_THETA,
                BRANCH_PIECES,
                BRANCH_OPS * BRANCH_TRAILS,
                dense_s * 1e3,
                rows_s * 1e3,
                speedup,
            ]
        ],
        title="BAB branching: copy-on-write rows copy+add_many vs dense "
        "bool baseline",
    )
    write_artifact(artifact_dir, "bitset_branch_speedup", text)
    assert speedup >= 5.0, (
        f"copy-on-write branch cloning only {speedup:.1f}x faster than the "
        f"dense baseline at theta={BRANCH_THETA}, l={BRANCH_PIECES}"
    )


# ----------------------------------------------------------------------
# sample-store peak RSS: the out-of-core memory claim, measured
# ----------------------------------------------------------------------

#: Each measurement runs in a fresh subprocess so ru_maxrss (a process
#: high-water mark) is clean per (store, theta) configuration.
_RSS_SCRIPT = """
import json, resource, sys

def peak_rss_kb():
    # VmHWM belongs to the post-exec image; ru_maxrss is inherited
    # across fork+exec and would report the *parent's* high water
    # when the parent (pytest) is already fat.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import numpy as np
from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.graph.generators import (
    build_topic_graph, preferential_attachment_digraph,
)
from repro.im.ris import max_coverage_seeds
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign

store, theta, shard_dir, ceiling = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3] or None, int(sys.argv[4])
)
src, dst = preferential_attachment_digraph(2000, 5, seed=41)
graph = build_topic_graph(
    2000, src, dst, 8, topics_per_edge=2.0, prob_mean=0.1, seed=42
)
campaign = Campaign.sample_unit(3, 8, seed=43)
kwargs = {}
if store == "disk":
    kwargs = {"shard_dir": shard_dir, "max_resident_bytes": ceiling}
from repro.runtime import Runtime
mrr = MRRCollection.generate(
    graph, campaign, theta, seed=45,
    runtime=Runtime(workers=1, store=store, **kwargs),
)
# Coverage + RIS exercise the query path at full-theta scale.
state = CoverageState.from_plan(
    mrr, AssignmentPlan([{1, 7}, {3}, {11, 13}])
)
seeds, _ = max_coverage_seeds(
    mrr, 0, np.arange(0, graph.n, 4, dtype=np.int64), 8
)
payload = sum(
    int(mrr.rr_set_sizes(j).sum()) * 16 for j in range(mrr.num_pieces)
)  # rr_nodes + inverted index, 8 bytes each per entry
print(json.dumps({
    "peak_rss_kb": peak_rss_kb(),
    "store_resident": mrr.store.resident_bytes,
    "payload_bytes": payload,
    "seeds": seeds,
}))
"""

#: At both thetas the sampler's own scratch is the same: each piece's
#: tasks run in groups of at most ``_GROUP_ROOTS`` roots whose visited
#: sets (sorted keys past the stamp ceiling) do not grow with theta.
#: At 600k a task (18 750 roots) outgrows half the group budget and
#: runs alone on the thread's int32 stamp array (2^23 cells, 32 MB),
#: which both stores share; the gate's 2x margin absorbs it.
STORE_RSS_THETAS = (150_000, 600_000)
STORE_RSS_CEILING = 8 * 1024 * 1024


def _measure_store_rss(store: str, theta: int, shard_dir: str) -> dict:
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_STORE", None)  # the script pins the store explicitly
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_SCRIPT,
            store,
            str(theta),
            shard_dir if store == "disk" else "",
            str(STORE_RSS_CEILING),
        ],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_store_peak_rss_bounded(artifact_dir, tmp_path_factory):
    """The out-of-core bar: growing theta 6x grows the memory store's
    peak RSS with the sample payload, while the disk store's stays
    bounded — its managed caches never exceed ``max_resident_bytes``
    and its RSS growth is a fraction of the memory store's.  Seed sets
    must agree exactly between the stores at every theta."""
    rows = []
    deltas = {}
    seeds_by_store = {}
    for store in ("memory", "disk"):
        results = []
        for theta in STORE_RSS_THETAS:
            shard_dir = str(
                tmp_path_factory.mktemp(f"shards-{store}-{theta}")
            )
            out = _measure_store_rss(store, theta, shard_dir)
            results.append(out)
            rows.append(
                [
                    store,
                    theta,
                    out["payload_bytes"] // 1024,
                    out["peak_rss_kb"],
                    out["store_resident"] // 1024,
                ]
            )
            assert out["store_resident"] <= max(
                STORE_RSS_CEILING, out["payload_bytes"]
            )
            if store == "disk":
                assert out["store_resident"] <= STORE_RSS_CEILING
        deltas[store] = results[-1]["peak_rss_kb"] - results[0]["peak_rss_kb"]
        seeds_by_store[store] = [out["seeds"] for out in results]
    # Same workload, same seeds, either store — at every theta.
    assert seeds_by_store["memory"] == seeds_by_store["disk"]
    text = format_table(
        ["store", "theta", "payload (KiB)", "peak RSS (KiB)", "resident (KiB)"],
        rows,
        title=(
            f"sample-store peak RSS, ceiling="
            f"{STORE_RSS_CEILING // (1024 * 1024)} MiB "
            f"(RSS delta: memory +{deltas['memory']} KiB, "
            f"disk +{deltas['disk']} KiB)"
        ),
    )
    write_artifact(artifact_dir, "store_peak_rss", text)
    assert deltas["memory"] > 0, "memory-store RSS should grow with theta"
    assert deltas["disk"] <= 0.5 * deltas["memory"], (
        f"disk-store RSS grew {deltas['disk']} KiB vs memory's "
        f"{deltas['memory']} KiB — the resident ceiling is not holding"
    )


def test_greedy_seed_sets_identical_across_backends(worlds, lt_worlds):
    """Pinned instances: identical greedy seed sets between the batch
    engine and the reference loop in the stream-preserving
    configuration, and across selection paths on every collection.

    Multi-root batch blocks interleave the roots' rng draws, so their
    sample *realisations* legitimately differ from the reference loop's
    (they agree in distribution only).  Engine-vs-reference seed
    identity is therefore asserted where the two are bit-for-bit equal
    — a ``block_size=1`` batch engine against the reference — for both
    IC and LT; lazy-vs-dense selection identity is asserted on the
    default multi-root collections as well.
    """
    graph, campaign, piece_graphs, _ = worlds[LARGEST]
    pool = np.arange(0, graph.n, 4, dtype=np.int64)
    roots = as_generator(31).integers(0, graph.n, size=500)
    single_block = {
        "ic": (
            reference.ic_rr_sets,
            lambda pg, *args: BatchRRSampler(pg, block_size=1).sample_many(
                *args
            ),
        ),
        "lt": (
            reference.lt_rr_sets,
            lambda pg, *args: BatchLTSampler(pg, block_size=1).sample_many(
                *args
            ),
        ),
    }
    for model, pg in (("ic", piece_graphs[0]), ("lt", lt_worlds[LARGEST])):
        make_reference, make_batch = single_block[model]
        seeds_by_backend = {}
        for name, draw in (
            ("reference", make_reference), ("batch", make_batch)
        ):
            ptr, nodes = draw(pg, roots, as_generator(13))
            mrr = MRRCollection(graph.n, roots, [ptr], [nodes])
            lazy, s_lazy = max_coverage_seeds(mrr, 0, pool, 8, lazy=True)
            dense, s_dense = max_coverage_seeds(mrr, 0, pool, 8, lazy=False)
            assert lazy == dense, (model, name)
            assert s_lazy == pytest.approx(s_dense)
            seeds_by_backend[name] = lazy
        assert seeds_by_backend["reference"] == seeds_by_backend["batch"], (
            model
        )
    for model, pgs in (("ic", piece_graphs[:1]), ("lt", [lt_worlds[LARGEST]])):
        mrr = MRRCollection.generate(
            graph,
            Campaign(list(campaign)[:1]),
            500,
            seed=11,
            piece_graphs=pgs,
            runtime=Runtime(backend="batch", model=model),
        )
        lazy, _ = max_coverage_seeds(mrr, 0, pool, 8, lazy=True)
        dense, _ = max_coverage_seeds(mrr, 0, pool, 8, lazy=False)
        assert lazy == dense, model
