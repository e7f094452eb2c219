"""The public API surface: a snapshot of exports and entry signatures.

Everything advertised in ``__all__`` imports and works, and — since the
`Runtime`/`Session` redesign made the execution surface part of the
compatibility contract — the export list and the parameter lists of the
main entry points are pinned verbatim.  A change here is an API change:
update the snapshot *deliberately*, in the same commit that documents
the new surface.
"""

from __future__ import annotations

import inspect

import repro

#: The exact export list (sorted).  Additions are append-and-sort;
#: removals/renames are breaking changes.
PUBLIC_EXPORTS = [
    "AdoptionModel",
    "ArtifactStore",
    "AssignmentPlan",
    "BaselineResult",
    "BatchRRSampler",
    "BranchAndBoundSolver",
    "BudgetExhaustedError",
    "Campaign",
    "CliqueReduction",
    "ConfigError",
    "DatasetError",
    "DeltaError",
    "DiskArtifactStore",
    "EdgeOp",
    "ExperimentError",
    "GraphDelta",
    "GraphError",
    "GraphFormatError",
    "IncrementalTrace",
    "InfluenceServer",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "MRRCollection",
    "MemoryArtifactStore",
    "MemoryStore",
    "OIPAProblem",
    "ParameterError",
    "Piece",
    "PieceGraph",
    "PipelineTrace",
    "ReproError",
    "Runtime",
    "STAGES",
    "SamplingError",
    "Session",
    "SessionResult",
    "ShardStore",
    "SolverError",
    "SolverResult",
    "Stage",
    "StageEvent",
    "StoreBusyError",
    "StoreError",
    "TopicError",
    "TopicGraph",
    "UpdateResult",
    "__version__",
    "apply_delta",
    "available_solvers",
    "brute_force_oipa",
    "create_server",
    "im_baseline",
    "load_dataset",
    "load_topic_graph",
    "project_campaign",
    "register_solver",
    "resolve_artifact_store",
    "resolve_runtime",
    "save_topic_graph",
    "simulate_adoption_utility",
    "solve_bab",
    "solve_bab_progressive",
    "stage",
    "tim_baseline",
    "uniform_piece",
    "unit_piece",
]

#: Parameter-name snapshots of the execution surface.  Every entry point
#: takes its execution policy as ``runtime=`` (plus a per-call ``seed=``)
#: and no other execution kwarg; dropping or reordering a name breaks
#: callers.
ENTRY_SIGNATURES = {
    "MRRCollection.generate": [
        "graph", "campaign", "theta", "seed", "piece_graphs", "runtime",
    ],
    "MRRCollection.generate_traced": [
        "graph", "campaign", "theta", "seed", "piece_graphs", "runtime",
    ],
    "ris_influence_maximization": [
        "piece_graph", "k", "theta", "pool", "seed", "runtime",
    ],
    "celf_greedy_im": [
        "piece_graph", "k", "pool", "rounds", "seed", "runtime",
    ],
    "simulate_piece_spread": [
        "piece_graph", "seeds", "rounds", "seed", "runtime", "pool",
    ],
    "simulate_adoption_utility": [
        "piece_graphs", "plan_seed_sets", "adoption", "rounds", "seed",
        "return_std", "runtime",
    ],
    "generate_adaptive": [
        "graph", "campaign", "adoption", "probe_plan", "epsilon", "delta",
        "initial_theta", "max_theta", "seed", "runtime",
    ],
    "im_baseline": ["problem", "mrr", "theta", "seed", "runtime"],
    "resolve_runtime": ["runtime", "seed"],
    "Runtime": [
        "backend", "model", "workers", "executor", "store", "shard_dir",
        "max_resident_bytes", "artifacts", "seed",
    ],
    "Session.__init__": [
        "self", "graph", "campaign", "adoption", "k", "pool",
        "pool_fraction", "seed", "runtime",
    ],
    "Session.solve": [
        "self", "method", "theta", "seed", "evaluate", "eval_theta",
        "options",
    ],
}


def _entry(name: str):
    from repro.diffusion.simulate import (
        simulate_adoption_utility,
        simulate_piece_spread,
    )
    from repro.im.greedy import celf_greedy_im
    from repro.im.ris import ris_influence_maximization
    from repro.sampling.adaptive import generate_adaptive

    return {
        "MRRCollection.generate": repro.MRRCollection.generate,
        "MRRCollection.generate_traced": repro.MRRCollection.generate_traced,
        "ris_influence_maximization": ris_influence_maximization,
        "celf_greedy_im": celf_greedy_im,
        "simulate_piece_spread": simulate_piece_spread,
        "simulate_adoption_utility": simulate_adoption_utility,
        "generate_adaptive": generate_adaptive,
        "im_baseline": repro.im_baseline,
        "resolve_runtime": repro.resolve_runtime,
        "Runtime": repro.Runtime,
        "Session.__init__": repro.Session.__init__,
        "Session.solve": repro.Session.solve,
    }[name]


def test_version():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_export_snapshot():
    assert sorted(repro.__all__) == PUBLIC_EXPORTS


def test_entry_signature_snapshot():
    for name, expected in ENTRY_SIGNATURES.items():
        params = list(inspect.signature(_entry(name)).parameters)
        assert params == expected, (
            f"{name} signature drifted:\n  have {params}\n  want {expected}"
        )


def test_registered_solvers_snapshot():
    assert repro.available_solvers() == (
        "bab", "bab-p", "brute-force", "celf", "celf-mrr", "im",
        "local-search", "ris", "tim",
    )


def test_quickstart_snippet():
    """The README / module docstring quickstart, condensed."""
    bundle = repro.load_dataset("lastfm", scale=0.08, seed=99)
    campaign = repro.Campaign.sample_unit(2, bundle.graph.num_topics, seed=1)
    problem = repro.OIPAProblem.with_random_pool(
        bundle.graph,
        campaign,
        repro.AdoptionModel(alpha=2.0, beta=1.0),
        k=3,
        seed=1,
    )
    mrr = repro.MRRCollection.generate(bundle.graph, campaign, theta=500, seed=1)
    result = repro.solve_bab_progressive(problem, mrr, max_nodes=20)
    assert result.plan.size <= 3
    assert result.utility >= 0.0


def test_session_quickstart_snippet():
    """The new three-line quickstart, verbatim."""
    session = repro.Session.from_dataset(
        "lastfm", scale=0.08, dataset_seed=99, pieces=2, k=3, seed=1
    )
    result = session.solve("bab-p", theta=500, max_nodes=20)
    assert result.plan.size <= 3
    assert result.estimate >= 0.0


def test_plan_and_problem_types_exported():
    plan = repro.AssignmentPlan.empty(2)
    assert plan.num_pieces == 2
    assert isinstance(repro.unit_piece(0, 3), repro.Piece)


def test_exceptions_exported_and_hierarchy():
    assert issubclass(repro.SolverError, repro.ReproError)
    assert issubclass(repro.GraphFormatError, repro.GraphError)
    assert issubclass(repro.ConfigError, repro.ParameterError)


def test_graph_io_roundtrip_via_public_api(tmp_path):
    g = repro.TopicGraph.from_edges(3, 2, [(0, 1, {0: 0.5}), (1, 2, {1: 0.25})])
    path = tmp_path / "g.tsv"
    repro.save_topic_graph(g, path)
    assert repro.load_topic_graph(path) == g


def test_clique_reduction_exported():
    red = repro.CliqueReduction(3, [(0, 1)])
    assert red.problem().k == 3
