"""Bit-identity pins for the branch-and-bound solvers' pool index.

The solver gathers the promoter pool's inverted-index slabs once per
solve and every bound reads them from there (see
:mod:`repro.core.upper_bound`).  That is an evaluation-order-preserving
rewrite, so every :class:`~repro.core.bab.SolverResult` must keep its
bytes: the plan, the utility and upper bound (compared as float hex),
and every :class:`~repro.core.bab.SolverDiagnostics` counter except the
wall-clock ``elapsed_seconds``.  The pins below were computed before the
index existed, by the slab-per-call kernels, over BAB and BAB-P, cold
and warm (``incumbent=``), lazy and plain greedy, tangent and chord
majorants.  They must hold on the in-RAM store and on a disk store whose
one-byte resident budget forces the index onto its streamed fallback.
Every solve below stops on its node budget; the pins were re-taken once
when a budget stop stopped counting the popped-but-unexpanded node
(``nodes_expanded`` went from ``max_nodes + 1`` to ``max_nodes``; plans,
bounds and every other counter kept their values).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.bab import BranchAndBoundSolver, SolverDiagnostics
from repro.core.coverage import CoverageState
from repro.core.problem import OIPAProblem
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import PoolIndex, TauState
from repro.exceptions import SolverError
from repro.diffusion.adoption import AdoptionModel
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign

CONFIGS = {
    "bab-plain": dict(bound="greedy", lazy=False),
    "bab-lazy": dict(bound="greedy", lazy=True),
    "babp-eps0.5": dict(bound="progressive", epsilon=0.5),
    "babp-eps0.1": dict(bound="progressive", epsilon=0.1),
}
MAJORANTS = ("tangent", "chord")

#: sha256 prefixes of :func:`_fingerprint`, one per (config, majorant,
#: cold|warm) solve.
PINNED = {
    "bab-plain/tangent/cold": "58ebd5ff94c6fe3e",
    "bab-plain/tangent/warm": "b79021b72076456e",
    "bab-plain/chord/cold": "96f5c7b495d048ea",
    "bab-plain/chord/warm": "d6db3c157c05add7",
    "bab-lazy/tangent/cold": "45b1222179dca82d",
    "bab-lazy/tangent/warm": "41ba1687070ab43b",
    "bab-lazy/chord/cold": "b8ae4db3f95515ef",
    "bab-lazy/chord/warm": "e2608222839e75ba",
    "babp-eps0.5/tangent/cold": "3e1a578f062569e9",
    "babp-eps0.5/tangent/warm": "a78ac9d525134df1",
    "babp-eps0.5/chord/cold": "c8cecc58479846d9",
    "babp-eps0.5/chord/warm": "9ebf0c182abd09ef",
    "babp-eps0.1/tangent/cold": "394901ca7deb8d28",
    "babp-eps0.1/tangent/warm": "e1a32c84c7417af0",
    "babp-eps0.1/chord/cold": "0046394d59124568",
    "babp-eps0.1/chord/warm": "6ed38ef3abe71ac5",
}


def _fingerprint(result) -> str:
    diag = result.diagnostics
    fields = [
        getattr(diag, f.name)
        for f in dataclasses.fields(SolverDiagnostics)
        if f.name != "elapsed_seconds"
    ]
    payload = repr(
        (
            result.plan.seed_lists(),
            float(result.utility).hex(),
            float(result.upper_bound).hex(),
            fields,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _world():
    src, dst = preferential_attachment_digraph(150, 3, seed=71)
    graph = build_topic_graph(
        150, src, dst, 4, topics_per_edge=2.0, prob_mean=0.15, seed=72
    )
    campaign = Campaign.sample_unit(3, 4, seed=73)
    adoption = AdoptionModel.from_ratio(0.3)
    problem = OIPAProblem(
        graph, campaign, adoption, k=5, pool=np.arange(1, 150, 6)
    )
    return graph, campaign, problem


@pytest.fixture(scope="module")
def world():
    return _world()


def _collection(world, **store):
    graph, campaign, _ = world
    runtime = Runtime(
        backend="batch", workers=1, artifacts="off", **store
    )
    return MRRCollection.generate(
        graph, campaign, 2500, seed=74, runtime=runtime
    )


@pytest.fixture(scope="module")
def memory_mrr(world):
    return _collection(world, store="memory")


@pytest.fixture(scope="module")
def disk_mrr(world, tmp_path_factory):
    shard_dir = tmp_path_factory.mktemp("pool-index") / "shards"
    return _collection(
        world, store="disk", shard_dir=str(shard_dir), max_resident_bytes=1
    )


def _solve_matrix(problem, mrr) -> dict[str, str]:
    out = {}
    for name, options in CONFIGS.items():
        for majorant in MAJORANTS:
            def solve(max_nodes, **extra):
                return BranchAndBoundSolver(
                    problem,
                    mrr,
                    majorant=majorant,
                    gap_tolerance=0.0,
                    max_nodes=max_nodes,
                    **options,
                    **extra,
                ).solve()

            cold = solve(30)
            # Primed with the cold answer, a longer search starts from
            # an adopted incumbent and prunes against it.
            warm = solve(60, incumbent=cold.plan)
            out[f"{name}/{majorant}/cold"] = _fingerprint(cold)
            out[f"{name}/{majorant}/warm"] = _fingerprint(warm)
    return out


def test_memory_store_matches_pins(world, memory_mrr):
    assert _solve_matrix(world[2], memory_mrr) == PINNED


def test_streamed_disk_store_matches_pins(world, disk_mrr):
    index = PoolIndex(disk_mrr, world[2].pool)
    assert not index.resident  # the one-byte budget streams every scan
    assert _solve_matrix(world[2], disk_mrr) == PINNED


def test_memory_index_is_resident(world, memory_mrr):
    index = PoolIndex(memory_mrr, world[2].pool)
    assert index.resident
    pool = world[2].pool
    for piece in range(memory_mrr.num_pieces):
        for v in pool[:5]:
            np.testing.assert_array_equal(
                index.slab(piece, int(v)),
                memory_mrr.samples_containing(piece, int(v)),
            )


def _tau(mrr, problem, index=None):
    base = CoverageState(mrr)
    base.add_many(problem.pool[:3], 0)
    base.add_many(problem.pool[2:6], 1)
    table = MajorantTable(problem.adoption, mrr.num_pieces)
    return TauState(mrr, table, base, problem.adoption, index=index)


@pytest.mark.parametrize("store", ["memory", "disk"])
def test_index_gains_equal_unindexed_kernels(world, memory_mrr, disk_mrr, store):
    """Pool scans, one-slab gains and commits through the index equal
    the unindexed kernels bit for bit, resident or streamed."""
    mrr = memory_mrr if store == "memory" else disk_mrr
    problem = world[2]
    pool = problem.pool
    plain = _tau(mrr, problem)
    indexed = _tau(mrr, problem, PoolIndex(mrr, pool))
    available = np.ones((mrr.num_pieces, pool.size), dtype=bool)
    available[1, ::4] = False
    scanned = indexed.pool_gains(available)
    for j in range(mrr.num_pieces):
        expected = plain.marginal_gains(pool, j)
        expected[~available[j]] = 0.0
        np.testing.assert_array_equal(scanned[j], expected)
    assert indexed.evaluations == np.count_nonzero(available)
    for v in pool[:8].tolist():
        for j in range(mrr.num_pieces):
            assert indexed.marginal_gain(v, j) == plain.marginal_gain(v, j)
            assert indexed.add(v, j) == plain.add(v, j)
    assert indexed.value == plain.value
    np.testing.assert_array_equal(indexed.counts, plain.counts)


def test_index_validates_and_falls_back(world, memory_mrr):
    problem = world[2]
    with pytest.raises(SolverError, match="vertex"):
        PoolIndex(memory_mrr, np.array([0, memory_mrr.n]))
    index = PoolIndex(memory_mrr, problem.pool)
    outside = 0  # not in the pool: read through the collection
    assert outside not in problem.pool
    np.testing.assert_array_equal(
        index.slab(1, outside), memory_mrr.samples_containing(1, outside)
    )
    with pytest.raises(SolverError, match="another collection"):
        _tau(_collection(world, store="memory"), problem, index)
