"""The bitset coverage engine: primitives, CoW isolation, bit-identity.

Three layers of guarantees:

* the primitives (:mod:`repro.core.bitset`) agree with dense bool
  arrays on every operation, including duplicate / unsorted id batches,
  empty batches and word-boundary positions, and the flat majorant-gain
  lookup agrees with the 2-D table at every count up to l = 250;
* copy-on-write cloning is *isolating* — no mutation of a clone ever
  reaches its parent (the BAB-branch regression) and no mutation of the
  parent ever reaches a clone, for the cell rows and the counts alike;
* the refactored solvers are **bit-identical** to the historical dense
  kernels: ``compute_bound`` reproduces a dense reference
  implementation of Algorithm 2 field-for-field, and the BAB driver's
  branch-clone bases give exactly the same search as per-node
  ``from_plan`` rebuilds, on the running example and a synthetic
  instance, and exclude children that inherit their parent's initial
  pool scan give exactly the search that rescans every bound, on the
  in-RAM store and on a streamed disk store.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bab import BranchAndBoundSolver, SolverDiagnostics
from repro.core.bitset import (
    PieceBitMatrix,
    SampleBitset,
    pack_bool,
    popcount,
    unpack_words,
)
from repro.core.compute_bound import CandidateSpace, compute_bound
from repro.core.coverage import CoverageState
from repro.core.plan import AssignmentPlan
from repro.core.problem import OIPAProblem
from repro.core.progressive import compute_bound_progressive
from repro.core.tangent import MajorantTable
from repro.core.upper_bound import TauState
from repro.datasets.running_example import running_example_problem
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import SolverError
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign


@pytest.fixture(scope="module")
def example():
    problem = running_example_problem(k=2)
    mrr = MRRCollection.generate(
        problem.graph, problem.campaign, theta=2500, seed=11
    )
    return problem, mrr


# ----------------------------------------------------------------------
# packed primitives
# ----------------------------------------------------------------------


class TestBitsetPrimitives:
    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 130, 1000])
    def test_pack_unpack_roundtrip(self, size):
        rng = np.random.default_rng(size)
        mask = rng.random(size) < 0.3
        words = pack_bool(mask)
        np.testing.assert_array_equal(unpack_words(words, size), mask)
        assert popcount(words) == int(mask.sum())

    def test_set_many_duplicates_and_unsorted(self):
        bits = SampleBitset(200)
        idx = np.array([199, 0, 63, 64, 0, 199, 128, 63], dtype=np.int64)
        bits.set_many(idx)
        assert bits.count() == 5
        np.testing.assert_array_equal(
            bits.test(np.arange(200, dtype=np.int64)),
            np.isin(np.arange(200), idx),
        )

    def test_test_aligns_with_input_order(self):
        bits = SampleBitset(100)
        bits.set_many(np.array([7, 64], dtype=np.int64))
        query = np.array([64, 3, 7, 7, 99], dtype=np.int64)
        np.testing.assert_array_equal(
            bits.test(query), [True, False, True, True, False]
        )

    def test_matrix_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        theta, pieces = 300, 3
        matrix = PieceBitMatrix(pieces, theta)
        dense = np.zeros((theta, pieces), dtype=bool)
        for _ in range(20):
            j = int(rng.integers(pieces))
            samples = rng.integers(0, theta, size=rng.integers(1, 40))
            matrix.set_many(j, samples.astype(np.int64))
            dense[samples, j] = True
        np.testing.assert_array_equal(matrix.to_bool(), dense)
        assert matrix.count_cells() == int(dense.sum())


@st.composite
def _matrix_scripts(draw):
    """A (theta, l) shape and a script of copy / set_many / test ops.

    Each op names a state by index (modulo the states alive when it
    runs), so writes and reads land on both sides of every clone.
    """
    theta = draw(st.integers(1, 200))
    pieces = draw(st.integers(1, 4))
    ids = st.lists(st.integers(0, theta - 1), max_size=24)
    op = st.tuples(
        st.sampled_from(["copy", "set", "test"]),
        st.integers(0, 7),
        st.integers(0, pieces - 1),
        ids,
    )
    return theta, pieces, draw(st.lists(op, max_size=40))


@settings(max_examples=150, deadline=None)
@given(script=_matrix_scripts())
def test_matrix_matches_dense_oracle_across_clones(script):
    """Byte-row ``PieceBitMatrix`` vs a dense ``(theta, l)`` bool oracle
    under interleaved copy / set_many / test on parents and clones,
    with duplicate, unsorted and empty id batches."""
    theta, pieces, ops = script
    states = [(PieceBitMatrix(pieces, theta), np.zeros((theta, pieces), bool))]
    for kind, which, piece, ids in ops:
        matrix, dense = states[which % len(states)]
        samples = np.asarray(ids, dtype=np.int64)
        if kind == "copy":
            states.append((matrix.copy(), dense.copy()))
        elif kind == "set":
            matrix.set_many(piece, samples)
            dense[samples, piece] = True
        else:
            np.testing.assert_array_equal(
                matrix.test(piece, samples), dense[samples, piece]
            )
    for matrix, dense in states:
        np.testing.assert_array_equal(matrix.to_bool(), dense)
        assert matrix.count_cells() == int(dense.sum())


@pytest.mark.parametrize("method", ["tangent", "chord"])
@pytest.mark.parametrize("pieces", [1, 5, 180, 181, 250])
def test_flat_gains_lookup_matches_table(method, pieces):
    """``gains_at`` equals ``gains[b, c]`` on int16 count arrays, also
    past l = 181, where ``b * (l + 1) + c`` no longer fits in int16."""
    table = MajorantTable(
        AdoptionModel.from_ratio(0.3), pieces, method=method
    )
    base, count = np.meshgrid(
        np.arange(pieces + 1), np.arange(pieces + 1), indexing="ij"
    )
    keep = base <= count  # a sample's count never drops below its base
    base = base[keep].astype(np.int16)
    count = count[keep].astype(np.int16)
    got = table.gains_at(base, count)
    np.testing.assert_array_equal(got, table.gains[base, count])
    assert got.dtype == np.float64
    # The real gains are ~0 at high counts, where a wrapped index would
    # also read ~0; distinct entries expose any misplaced read.
    table.gains[...] = np.arange(table.gains.size).reshape(table.gains.shape)
    np.testing.assert_array_equal(
        table.gains_at(base, count), table.gains[base, count]
    )


# ----------------------------------------------------------------------
# copy-on-write isolation (the BAB-branch regression)
# ----------------------------------------------------------------------


class TestCopyOnWrite:
    def test_branch_clone_never_aliases_parent(self, example):
        """Simulated BAB branch: the include child's mutations must not
        leak into the parent node's state through any shared slab."""
        _, mrr = example
        parent = CoverageState.from_plan(mrr, AssignmentPlan([{0}, {4}]))
        before_counts = parent.counts.copy()
        before_covered = parent.covered.copy()

        include = parent.copy()  # branch on (vertex 2, piece 1)
        include.add(2, 1)
        include.add_many(np.array([1, 3], dtype=np.int64), 0)

        np.testing.assert_array_equal(parent.counts, before_counts)
        np.testing.assert_array_equal(parent.covered, before_covered)

    def test_parent_mutation_never_reaches_clone(self, example):
        _, mrr = example
        parent = CoverageState.from_plan(mrr, AssignmentPlan([{0}, set()]))
        clone = parent.copy()
        snap_counts = clone.counts.copy()
        snap_covered = clone.covered.copy()
        parent.add(4, 1)
        parent.add(2, 0)
        np.testing.assert_array_equal(clone.counts, snap_counts)
        np.testing.assert_array_equal(clone.covered, snap_covered)

    def test_grandchildren_stay_independent(self, example):
        """Re-sharing an already-shared row (clone of a clone) still
        isolates every state in the chain."""
        _, mrr = example
        root = CoverageState(mrr)
        child = root.copy()
        child.add(0, 0)
        grandchild = child.copy()
        grandchild.add(4, 1)
        child_snap = child.covered.copy()
        grandchild.add(2, 0)
        assert not root.covered.any()
        np.testing.assert_array_equal(child.covered, child_snap)

    def test_tau_growth_never_mutates_base(self, example):
        problem, mrr = example
        table = MajorantTable(problem.adoption, problem.num_pieces)
        base = CoverageState.from_plan(mrr, AssignmentPlan([{0}, set()]))
        snap_counts = base.counts.copy()
        snap_covered = base.covered.copy()
        tau = TauState(mrr, table, base, problem.adoption)
        tau.add(4, 1)
        tau.add(2, 0)
        np.testing.assert_array_equal(base.counts, snap_counts)
        np.testing.assert_array_equal(base.covered, snap_covered)


# ----------------------------------------------------------------------
# dense-reference bit-identity of the solvers
# ----------------------------------------------------------------------


class _DenseTau:
    """The seed's dense TauState: bool (theta, l) matrix, scalar loops."""

    def __init__(self, mrr, table, plan, adoption):
        self.mrr = mrr
        self.table = table
        self.covered = np.zeros((mrr.theta, mrr.num_pieces), dtype=bool)
        counts = np.zeros(mrr.theta, dtype=np.int64)
        for j, seeds in enumerate(plan.seed_lists()):
            for v in seeds:
                samples = mrr.samples_containing(j, int(v))
                fresh = samples[~self.covered[samples, j]]
                self.covered[fresh, j] = True
                counts[fresh] += 1
        self.base_counts = counts.copy()
        self.counts = counts
        self.scale = mrr.n / mrr.theta
        self.evaluations = 0
        # Anchor sum via the count histogram against the majorant
        # diagonal — the same O(l) fold TauState performs (the one
        # deliberate departure from the seed's per-sample
        # `values[b, b]` gather, whose pairwise sum rounds differently;
        # everything downstream of the anchor is compared exactly).
        hist = np.bincount(
            self.base_counts, minlength=mrr.num_pieces + 1
        ).astype(np.float64)
        self.value = float(self.scale * (hist * table.anchor_diag).sum())

    def marginal_gain(self, vertex, piece):
        self.evaluations += 1
        samples = self.mrr.samples_containing(piece, vertex)
        if samples.size == 0:
            return 0.0
        fresh = samples[~self.covered[samples, piece]]
        if fresh.size == 0:
            return 0.0
        gains = self.table.gains[self.base_counts[fresh], self.counts[fresh]]
        return float(self.scale * gains.sum())

    def add(self, vertex, piece):
        samples = self.mrr.samples_containing(piece, vertex)
        fresh = samples[~self.covered[samples, piece]]
        if fresh.size == 0:
            return
        gains = self.table.gains[self.base_counts[fresh], self.counts[fresh]]
        self.value += float(self.scale * gains.sum())
        self.covered[fresh, piece] = True
        self.counts[fresh] += 1

    def utility(self, adoption):
        return self.mrr.estimate_from_counts(
            self.counts.astype(np.int64), adoption
        )


def _dense_compute_bound(mrr, table, adoption, plan, candidates, k):
    """Algorithm 2 exactly as the seed ran it: dense state, plain rescan."""
    tau = _DenseTau(mrr, table, plan, adoption)
    budget = k - plan.size
    pairs = candidates.pairs(plan)
    picks = []
    chosen = set()
    for _ in range(budget):
        remaining = [pair for pair in pairs if pair not in chosen]
        if not remaining:
            break
        gains = np.array(
            [tau.marginal_gain(v, j) for v, j in remaining], dtype=np.float64
        )
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            break
        best_pair = remaining[best]
        tau.add(*best_pair)
        chosen.add(best_pair)
        picks.append(best_pair)
    out = plan
    for v, j in picks:
        out = out.with_assignment(v, j)
    return {
        "plan": out,
        "lower": tau.utility(adoption),
        "upper": tau.value,
        "first_pick": picks[0] if picks else None,
        "evaluations": tau.evaluations,
        "selected": len(picks),
    }


def _partial_plans(problem):
    yield problem.empty_plan()
    pool = [int(v) for v in problem.pool]
    yield AssignmentPlan(
        [{pool[0]}] + [set() for _ in range(problem.num_pieces - 1)]
    )
    if len(pool) > 1 and problem.num_pieces > 1:
        yield AssignmentPlan(
            [{pool[0]}, {pool[1]}]
            + [set() for _ in range(problem.num_pieces - 2)]
        )


class TestDenseBitIdentity:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_compute_bound_matches_dense_reference(self, example, lazy):
        problem, mrr = example
        table = MajorantTable(problem.adoption, problem.num_pieces)
        space = CandidateSpace(problem.pool, problem.num_pieces)
        for plan in _partial_plans(problem):
            expected = _dense_compute_bound(
                mrr, table, problem.adoption, plan, space, problem.k
            )
            got = compute_bound(
                mrr,
                table,
                problem.adoption,
                plan,
                space,
                problem.k,
                lazy=lazy,
            )
            assert got.plan == expected["plan"]
            assert got.lower == expected["lower"]
            assert got.upper == expected["upper"]
            assert got.first_pick == expected["first_pick"]
            assert got.selected == expected["selected"]
            if not lazy:  # the lazy variant legitimately evaluates less
                assert got.evaluations == expected["evaluations"]

    def test_branch_clone_base_equals_rebuild(self, example):
        """The BAB driver's cloned bases reproduce `from_plan` exactly."""
        problem, mrr = example
        table = MajorantTable(problem.adoption, problem.num_pieces)
        space = CandidateSpace(problem.pool, problem.num_pieces)
        plan = problem.empty_plan()
        root = compute_bound(
            mrr, table, problem.adoption, plan, space, problem.k
        )
        v_star, j_star = root.first_pick
        node_cov = CoverageState.from_plan(mrr, plan)
        include_cov = node_cov.copy()
        include_cov.add(v_star, j_star)
        include_plan = plan.with_assignment(v_star, j_star)
        child_space = space.without(v_star, j_star)
        for child_plan, base in (
            (include_plan, include_cov),
            (plan, node_cov),
        ):
            fresh = compute_bound(
                mrr,
                table,
                problem.adoption,
                child_plan,
                child_space,
                problem.k,
            )
            cloned = compute_bound(
                mrr,
                table,
                problem.adoption,
                child_plan,
                child_space,
                problem.k,
                base=base,
            )
            assert cloned.plan == fresh.plan
            assert cloned.lower == fresh.lower
            assert cloned.upper == fresh.upper
            assert cloned.evaluations == fresh.evaluations

    @pytest.mark.parametrize("bound", ["greedy", "progressive"])
    def test_solver_branch_clones_match_rebuild_path(
        self, example, bound, monkeypatch
    ):
        """Full search, clone-based bases vs per-child rebuilds: the
        whole SolverResult (plan, bounds, work counters) must agree."""
        problem, mrr = example

        def make_solver():
            return BranchAndBoundSolver(
                problem, mrr, bound=bound, gap_tolerance=0.0
            )

        clone_result = make_solver().solve()

        original = BranchAndBoundSolver._compute_bound

        def rebuild_only(self, plan, candidates, base=None, initial=None):
            return original(self, plan, candidates, None, initial)

        monkeypatch.setattr(
            BranchAndBoundSolver, "_compute_bound", rebuild_only
        )
        rebuild_result = make_solver().solve()

        assert clone_result.plan == rebuild_result.plan
        assert clone_result.utility == rebuild_result.utility
        assert clone_result.upper_bound == rebuild_result.upper_bound
        for field in (
            "nodes_expanded",
            "nodes_pruned",
            "bounds_computed",
            "tau_evaluations",
            "incumbent_updates",
        ):
            assert getattr(clone_result.diagnostics, field) == getattr(
                rebuild_result.diagnostics, field
            ), field

    def test_progressive_bound_accepts_base(self, example):
        problem, mrr = example
        table = MajorantTable(problem.adoption, problem.num_pieces)
        space = CandidateSpace(problem.pool, problem.num_pieces)
        plan = problem.empty_plan()
        fresh = compute_bound_progressive(
            mrr, table, problem.adoption, plan, space, problem.k
        )
        via_base = compute_bound_progressive(
            mrr,
            table,
            problem.adoption,
            plan,
            space,
            problem.k,
            base=CoverageState.from_plan(mrr, plan),
        )
        assert via_base.plan == fresh.plan
        assert via_base.lower == fresh.lower
        assert via_base.upper == fresh.upper


# ----------------------------------------------------------------------
# exclude-child scan reuse
# ----------------------------------------------------------------------

SOLVERS = {
    "bab-plain": dict(bound="greedy", lazy=False),
    "bab-lazy": dict(bound="greedy", lazy=True),
    "bab-p": dict(bound="progressive", epsilon=0.5),
}


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A searchable instance on the in-RAM store and on a disk store
    whose one-byte resident budget streams every pool scan."""
    src, dst = preferential_attachment_digraph(150, 3, seed=81)
    graph = build_topic_graph(
        150, src, dst, 4, topics_per_edge=2.0, prob_mean=0.15, seed=82
    )
    campaign = Campaign.sample_unit(3, 4, seed=83)
    problem = OIPAProblem(
        graph,
        campaign,
        AdoptionModel.from_ratio(0.3),
        k=5,
        pool=np.arange(1, 150, 6),
    )

    def collection(**store):
        runtime = Runtime(
            backend="batch", workers=1, artifacts="off", **store
        )
        return MRRCollection.generate(
            graph, campaign, 2500, seed=84, runtime=runtime
        )

    shard_dir = tmp_path_factory.mktemp("scan-reuse") / "shards"
    return problem, {
        "memory": collection(store="memory"),
        "disk": collection(
            store="disk", shard_dir=str(shard_dir), max_resident_bytes=1
        ),
    }


@pytest.mark.parametrize("store", ["memory", "disk"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_exclude_child_scan_reuse_matches_rescan(
    synthetic, solver, store, monkeypatch
):
    """Exclude children inheriting their parent's initial scan give the
    same search as rescanning every bound: plan, utility, upper bound
    and every work counter, ``tau_evaluations`` included."""
    problem, collections = synthetic
    mrr = collections[store]

    def solve():
        return BranchAndBoundSolver(
            problem, mrr, gap_tolerance=0.0, max_nodes=30, **SOLVERS[solver]
        ).solve()

    original = BranchAndBoundSolver._compute_bound
    inherited = []

    def counting(self, plan, candidates, base=None, initial=None):
        inherited.append(initial is not None)
        return original(self, plan, candidates, base, initial)

    monkeypatch.setattr(BranchAndBoundSolver, "_compute_bound", counting)
    reuse = solve()
    assert sum(inherited) > 1  # the reuse path really ran

    def rescan(self, plan, candidates, base=None, initial=None):
        return original(self, plan, candidates, base, None)

    monkeypatch.setattr(BranchAndBoundSolver, "_compute_bound", rescan)
    oracle = solve()

    assert reuse.plan == oracle.plan
    assert float(reuse.utility).hex() == float(oracle.utility).hex()
    assert float(reuse.upper_bound).hex() == float(oracle.upper_bound).hex()
    for f in dataclasses.fields(SolverDiagnostics):
        if f.name != "elapsed_seconds":
            assert getattr(reuse.diagnostics, f.name) == getattr(
                oracle.diagnostics, f.name
            ), f.name


def test_inherited_scan_is_charged_and_validated(example):
    """An inherited scan counts one evaluation per available cell, as
    the scan it replaces would, and must match the candidate space."""
    problem, mrr = example
    table = MajorantTable(problem.adoption, problem.num_pieces)
    space = CandidateSpace(problem.pool, problem.num_pieces)
    plan = problem.empty_plan()
    fresh = compute_bound_progressive(
        mrr, table, problem.adoption, plan, space, problem.k
    )
    again = compute_bound_progressive(
        mrr, table, problem.adoption, plan, space, problem.k,
        initial=fresh.scan,
    )
    assert again.plan == fresh.plan
    assert again.upper == fresh.upper
    assert again.evaluations == fresh.evaluations
    with pytest.raises(SolverError, match="initial scan"):
        compute_bound(
            mrr, table, problem.adoption, plan, space, problem.k,
            initial=fresh.scan[:, :-1],
        )
