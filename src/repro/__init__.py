"""repro — a reproduction of "Maximizing Multifaceted Network Influence".

(Y. Li, J. Fan, G. V. Ovchinnikov, P. Karras; ICDE 2019.)

The package implements the Optimal Influential Pieces Assignment (OIPA)
problem end-to-end: topic-aware influence graphs, the logistic adoption
model, Multi-Reverse-Reachable (MRR) sampling, the branch-and-bound
solvers ``BAB`` and ``BAB-P`` with submodular tangent-line upper bounds,
the ``IM``/``TIM`` baselines, the Max-Clique hardness reduction, three
synthetic dataset pipelines matching the paper's evaluation, and an
experiment harness regenerating every table and figure.

Quickstart
----------
>>> from repro import Session
>>> session = Session.from_dataset("lastfm", scale=0.1, pieces=3, k=5, seed=1)
>>> result = session.solve("bab-p", theta=2000)
>>> result.plan.size <= 5
True

Execution policy (sampling backend, diffusion models, worker pool,
sample store) lives on one frozen :class:`repro.runtime.Runtime`:

>>> from repro import Runtime
>>> rt = Runtime(workers="auto", store="memory")
>>> session = Session.from_dataset("lastfm", scale=0.1, seed=1, runtime=rt)

The primitives remain available for hand-wired pipelines; each takes
the same ``runtime=`` (plus a per-call ``seed=``) and no other
execution setting.
"""

from repro.exceptions import (
    BudgetExhaustedError,
    ConfigError,
    DatasetError,
    DeltaError,
    ExperimentError,
    GraphError,
    GraphFormatError,
    ParameterError,
    ReproError,
    SamplingError,
    SolverError,
    StoreBusyError,
    StoreError,
    TopicError,
)
from repro.graph import TopicGraph, load_topic_graph, save_topic_graph
from repro.topics import Campaign, Piece, uniform_piece, unit_piece
from repro.diffusion import (
    AdoptionModel,
    PieceGraph,
    project_campaign,
    simulate_adoption_utility,
)
from repro.sampling import (
    BatchRRSampler,
    MemoryStore,
    MRRCollection,
    ReverseReachableSampler,
    ShardStore,
)
from repro.core import (
    AssignmentPlan,
    BranchAndBoundSolver,
    CliqueReduction,
    OIPAProblem,
    SolverResult,
    brute_force_oipa,
    solve_bab,
    solve_bab_progressive,
)
from repro.im import BaselineResult, im_baseline, tim_baseline
from repro.datasets import load_dataset
from repro.runtime import Runtime, resolve_runtime
from repro.artifacts import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    resolve_artifact_store,
)
from repro.pipeline import STAGES, PipelineTrace, Stage, StageEvent, stage
from repro.api import (
    Session,
    SessionResult,
    available_solvers,
    register_solver,
)
from repro.incremental import (
    EdgeOp,
    GraphDelta,
    IncrementalTrace,
    UpdateResult,
    apply_delta,
)
from repro.service import (
    InfluenceServer,
    JobQueue,
    JobRecord,
    JobSpec,
    JobStore,
    create_server,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "TopicError",
    "ParameterError",
    "ConfigError",
    "SamplingError",
    "DeltaError",
    "StoreError",
    "StoreBusyError",
    "SolverError",
    "BudgetExhaustedError",
    "DatasetError",
    "ExperimentError",
    # graph
    "TopicGraph",
    "load_topic_graph",
    "save_topic_graph",
    # topics
    "Piece",
    "Campaign",
    "unit_piece",
    "uniform_piece",
    # diffusion
    "AdoptionModel",
    "PieceGraph",
    "project_campaign",
    "simulate_adoption_utility",
    # sampling
    "BatchRRSampler",
    "MRRCollection",
    "MemoryStore",
    "ReverseReachableSampler",
    "ShardStore",
    # core
    "AssignmentPlan",
    "OIPAProblem",
    "BranchAndBoundSolver",
    "SolverResult",
    "solve_bab",
    "solve_bab_progressive",
    "brute_force_oipa",
    "CliqueReduction",
    # baselines
    "BaselineResult",
    "im_baseline",
    "tim_baseline",
    # datasets
    "load_dataset",
    # runtime + session facade
    "Runtime",
    "resolve_runtime",
    "Session",
    "SessionResult",
    "available_solvers",
    "register_solver",
    # artifacts + pipeline
    "ArtifactStore",
    "MemoryArtifactStore",
    "DiskArtifactStore",
    "resolve_artifact_store",
    "STAGES",
    "Stage",
    "stage",
    "StageEvent",
    "PipelineTrace",
    # incremental campaigns
    "EdgeOp",
    "GraphDelta",
    "IncrementalTrace",
    "UpdateResult",
    "apply_delta",
    # influence service
    "InfluenceServer",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "create_server",
]
