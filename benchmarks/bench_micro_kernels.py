"""Micro-benchmarks of the sampling and bound kernels.

These are the true pytest-benchmark timings (multiple rounds) of the
operations everything else is built from: RR-set generation, MRR
estimation, coverage updates and tau marginal gains.  They track the
reproduction's performance envelope — the reason the paper's
theta = 1e6 is substituted at Python scale (see
``repro.experiments.config``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import native
from repro.core.bitset import SampleBitset
from repro.core.coverage import CoverageState, coverage_gains
from repro.core.plan import AssignmentPlan
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import TauState
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.threshold import normalize_lt_weights
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.sampling.batch import (
    BatchLTSampler,
    BatchRRSampler,
    NativeLTSampler,
    NativeRRSampler,
)
from repro.sampling.mrr import MRRCollection
from repro.sampling.rr import ReverseReachableSampler
from repro.topics.distributions import Campaign
from repro.utils.rng import as_generator


@pytest.fixture(scope="module")
def kernel_world():
    src, dst = preferential_attachment_digraph(2000, 5, seed=41)
    graph = build_topic_graph(
        2000, src, dst, 8, topics_per_edge=2.0, prob_mean=0.1, seed=42
    )
    campaign = Campaign.sample_unit(3, 8, seed=43)
    adoption = AdoptionModel(alpha=2.0, beta=1.0)
    mrr = MRRCollection.generate(graph, campaign, theta=4000, seed=44)
    return graph, campaign, adoption, mrr


def test_rr_set_sampling_throughput(benchmark, kernel_world):
    graph, campaign, _, _ = kernel_world
    pg = project_campaign(graph, campaign)[0]
    sampler = ReverseReachableSampler(pg)
    rng = as_generator(45)
    roots = np.arange(0, 2000, 4)

    def draw_batch():
        return sampler.sample_many(roots, rng)

    ptr, _ = benchmark(draw_batch)
    assert ptr[-1] >= roots.size  # every RR set holds at least its root


def test_mrr_estimate_speed(benchmark, kernel_world):
    _, _, adoption, mrr = kernel_world
    plan = [[1, 10, 100], [2, 20], [3, 30, 300]]
    value = benchmark(mrr.estimate, plan, adoption)
    assert value >= 0.0


def test_coverage_add_speed(benchmark, kernel_world):
    _, _, _, mrr = kernel_world

    def build_and_fill():
        state = CoverageState(mrr)
        for v in range(0, 200, 5):
            state.add(v, v % mrr.num_pieces)
        return state

    state = benchmark(build_and_fill)
    assert state.counts.sum() >= 0


def test_tau_marginal_gain_speed(benchmark, kernel_world):
    _, _, adoption, mrr = kernel_world
    table = MajorantTable(adoption, mrr.num_pieces)
    base = CoverageState.from_plan(
        mrr, AssignmentPlan([{1}, {2}, {3}])
    )
    tau = TauState(mrr, table, base, adoption)

    def evaluate_many():
        total = 0.0
        for v in range(0, 400, 2):
            total += tau.marginal_gain(v, v % mrr.num_pieces)
        return total

    total = benchmark(evaluate_many)
    assert total >= 0.0


def test_majorant_table_construction_speed(benchmark, kernel_world):
    _, _, adoption, _ = kernel_world
    table = benchmark(MajorantTable, adoption, 5)
    assert table.num_pieces == 5


# ----------------------------------------------------------------------
# native compiled tier: the >= 5x-over-batch acceptance gates
# ----------------------------------------------------------------------

#: The gate scale from the acceptance criteria: theta >= 200k roots
#: (sampling) / samples (marginal gains).
NATIVE_THETA = 200_000

needs_native = pytest.mark.skipif(
    not native.compiled(),
    reason="numba unavailable — no compiled tier to gate",
)


def _best_sample_time(engine, roots, repeats: int = 3) -> float:
    """Min-of-N wall clock; the first repeat absorbs any JIT warm-up."""
    best = float("inf")
    for _ in range(repeats):
        rng = as_generator(7)
        start = time.perf_counter()
        engine.sample_many(roots, rng)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def native_world(kernel_world):
    graph, campaign, _, _ = kernel_world
    pg = project_campaign(graph, campaign)[0]
    roots = as_generator(46).integers(0, graph.n, size=NATIVE_THETA)
    return graph, campaign, pg, roots


@needs_native
def test_native_rr_expansion_gate(native_world, kernel_bench):
    """Compiled RR frontier expansion >= 5x over the NumPy batch tier,
    bit-identical output, at theta >= 200k."""
    _, _, pg, roots = native_world
    batch = BatchRRSampler(pg)
    compiled = NativeRRSampler(pg)
    bp, bn = batch.sample_many(roots[:2000], as_generator(3))
    cp, cn = compiled.sample_many(roots[:2000], as_generator(3))
    assert np.array_equal(bp, cp) and np.array_equal(bn, cn)
    batch_s = _best_sample_time(batch, roots)
    native_s = _best_sample_time(compiled, roots)
    speedup = batch_s / native_s
    kernel_bench(
        "rr_frontier_expansion", "batch", batch_s, theta=NATIVE_THETA
    )
    kernel_bench(
        "rr_frontier_expansion", "native", native_s,
        speedup=speedup, theta=NATIVE_THETA,
    )
    assert speedup >= 5.0, (
        f"native RR expansion only {speedup:.1f}x over batch "
        f"at theta={NATIVE_THETA}"
    )


@needs_native
def test_native_lt_walk_gate(native_world, kernel_bench):
    """Compiled LT walk step >= 5x over the NumPy batch tier,
    bit-identical output, at theta >= 200k."""
    _, _, pg, roots = native_world
    lt_pg = normalize_lt_weights(pg)
    batch = BatchLTSampler(lt_pg)
    compiled = NativeLTSampler(lt_pg)
    bp, bn = batch.sample_many(roots[:2000], as_generator(3))
    cp, cn = compiled.sample_many(roots[:2000], as_generator(3))
    assert np.array_equal(bp, cp) and np.array_equal(bn, cn)
    batch_s = _best_sample_time(batch, roots)
    native_s = _best_sample_time(compiled, roots)
    speedup = batch_s / native_s
    kernel_bench("lt_frontier_walk", "batch", batch_s, theta=NATIVE_THETA)
    kernel_bench(
        "lt_frontier_walk", "native", native_s,
        speedup=speedup, theta=NATIVE_THETA,
    )
    assert speedup >= 5.0, (
        f"native LT walk only {speedup:.1f}x over batch "
        f"at theta={NATIVE_THETA}"
    )


@needs_native
def test_native_marginal_gain_gate(native_world, kernel_bench, monkeypatch):
    """Fused compiled marginal-gain scan >= 5x over the NumPy segmented
    sum, integer-identical gains, at theta >= 200k samples."""
    graph, campaign, _, _ = native_world
    mrr = MRRCollection.generate(
        graph,
        Campaign(list(campaign)[:1]),
        NATIVE_THETA,
        seed=46,
        piece_graphs=project_campaign(graph, campaign)[:1],
    )
    pool = np.arange(graph.n, dtype=np.int64)
    covered = SampleBitset(mrr.theta)
    covered.set_many(mrr.samples_containing(0, 7))

    def best_gains(repeats: int = 5):
        best, gains = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            gains = coverage_gains(mrr, 0, pool, covered)
            best = min(best, time.perf_counter() - start)
        return best, gains

    native_s, native_gains = best_gains()
    monkeypatch.setattr(native, "COMPILED", False)
    batch_s, batch_gains = best_gains()
    assert np.array_equal(native_gains, batch_gains)
    speedup = batch_s / native_s
    kernel_bench(
        "coverage_marginal_gain", "batch", batch_s, theta=NATIVE_THETA
    )
    kernel_bench(
        "coverage_marginal_gain", "native", native_s,
        speedup=speedup, theta=NATIVE_THETA,
    )
    assert speedup >= 5.0, (
        f"native marginal-gain scan only {speedup:.1f}x over batch "
        f"at theta={NATIVE_THETA}"
    )
