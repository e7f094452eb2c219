"""Ablations on the bound machinery.

Three design choices get isolated measurements on one shared instance:

1. **Plain vs lazy greedy** inside ComputeBound (Algorithm 2): both must
   select the *same* plan; lazy needs far fewer tau evaluations.
2. **Progressive vs plain greedy** (Algorithm 3 vs 2): the paper's
   Theorem 4 claim — progressive cuts evaluations by a large factor at
   bounded quality loss.
3. **Tangent vs chord majorant** (Fig. 2's construction vs the tighter
   discrete envelope): the chord bound is never looser, so the search
   tree it induces is never larger.
"""

from __future__ import annotations

import pytest
from conftest import write_artifact

from repro.core.bab import BranchAndBoundSolver
from repro.core.compute_bound import CandidateSpace, compute_bound
from repro.core.progressive import compute_bound_progressive
from repro.core.tangent import MajorantTable
from repro.experiments.runner import prepare_instance
from repro.utils.tables import format_table


@pytest.fixture(scope="module")
def session(profile):
    # The hard regime: the search tree is non-trivial there.
    return prepare_instance(
        "lastfm", profile, k=8, num_pieces=4, beta_over_alpha=0.3
    )


def test_plain_vs_lazy_greedy(benchmark, session, artifact_dir):
    problem, mrr = session.problem, session.mrr
    table = MajorantTable(problem.adoption, problem.num_pieces)
    space = CandidateSpace(problem.pool, problem.num_pieces)

    plain = compute_bound(
        mrr, table, problem.adoption, problem.empty_plan(), space,
        problem.k, lazy=False,
    )
    lazy = benchmark.pedantic(
        compute_bound,
        args=(mrr, table, problem.adoption, problem.empty_plan(), space,
              problem.k),
        kwargs={"lazy": True},
        rounds=1,
        iterations=1,
    )
    write_artifact(
        artifact_dir,
        "ablation_lazy",
        format_table(
            ["variant", "tau evals", "upper", "lower"],
            [
                ["plain", plain.evaluations, plain.upper, plain.lower],
                ["lazy", lazy.evaluations, lazy.upper, lazy.lower],
            ],
            title="Algorithm 2: plain vs lazy greedy (one bound call)",
        ),
    )
    assert lazy.plan == plain.plan
    assert lazy.upper == pytest.approx(plain.upper)
    assert lazy.evaluations < plain.evaluations


def test_progressive_vs_plain_evaluations(benchmark, session, artifact_dir):
    problem, mrr = session.problem, session.mrr
    table = MajorantTable(problem.adoption, problem.num_pieces)
    space = CandidateSpace(problem.pool, problem.num_pieces)

    plain = compute_bound(
        mrr, table, problem.adoption, problem.empty_plan(), space,
        problem.k, lazy=False,
    )
    prog = benchmark.pedantic(
        compute_bound_progressive,
        args=(mrr, table, problem.adoption, problem.empty_plan(), space,
              problem.k),
        kwargs={"epsilon": 0.5},
        rounds=1,
        iterations=1,
    )
    write_artifact(
        artifact_dir,
        "ablation_progressive",
        format_table(
            ["variant", "tau evals", "upper", "selected"],
            [
                ["plain greedy", plain.evaluations, plain.upper, plain.selected],
                ["progressive", prog.evaluations, prog.upper, prog.selected],
            ],
            title="Algorithm 3 vs 2: evaluations per bound call (Theorem 4)",
        ),
    )
    assert prog.evaluations < plain.evaluations / 2
    # Theorem 3's floor at eps = 0.5.
    assert prog.upper >= (1 - 1 / 2.718281828 - 0.5) * plain.upper


def test_tangent_vs_chord_majorant(benchmark, session, artifact_dir):
    problem, mrr = session.problem, session.mrr

    def solve(majorant):
        solver = BranchAndBoundSolver(
            problem, mrr, majorant=majorant, max_nodes=60,
        )
        return solver.solve()

    tangent = solve("tangent")
    chord = benchmark.pedantic(
        solve, args=("chord",), rounds=1, iterations=1
    )
    write_artifact(
        artifact_dir,
        "ablation_majorant",
        format_table(
            ["majorant", "utility", "upper", "nodes", "tau evals"],
            [
                [
                    "tangent",
                    tangent.utility,
                    tangent.upper_bound,
                    tangent.diagnostics.nodes_expanded,
                    tangent.diagnostics.tau_evaluations,
                ],
                [
                    "chord",
                    chord.utility,
                    chord.upper_bound,
                    chord.diagnostics.nodes_expanded,
                    chord.diagnostics.tau_evaluations,
                ],
            ],
            title="Fig. 2 tangent vs discrete chord envelope (BAB)",
        ),
    )
    # The chord bound is tighter, so its reported upper bound can only
    # be lower (or equal) and its incumbent no worse than noise allows.
    assert chord.upper_bound <= tangent.upper_bound + 1e-6
    assert chord.utility >= 0.9 * tangent.utility
