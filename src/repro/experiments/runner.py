"""Generic experiment cell runner.

One *cell* = (dataset, parameters, method) -> (utility, time,
diagnostics).  The runner mirrors the paper's measurement protocol
(Sec. VI-A):

* theta RR sets are generated per piece once and shared across methods
  ("for a fair comparison, we fix theta across all experiments");
* sampling time is excluded from per-method timings ("we exclude the
  sampling time ... since the time is the same for all compared
  approaches") and reported separately (Table III's "Sample Time" row);
* utilities are re-estimated on an *independent* evaluation MRR
  collection so no optimiser grades its own homework.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.bab import BranchAndBoundSolver
from repro.core.problem import OIPAProblem
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.diffusion.threshold import normalize_lt_weights
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentProfile
from repro.im.baselines import im_baseline, tim_baseline
from repro.runtime import Runtime
from repro.sampling.mrr import MRRCollection
from repro.topics.distributions import Campaign
from repro.utils.rng import spawn_generators
from repro.utils.timer import Timer

__all__ = ["CellResult", "run_cell", "run_methods", "prepare_instance"]

METHODS = ("IM", "TIM", "BAB", "BAB-P")


@dataclass(frozen=True)
class CellResult:
    """One method's outcome on one experiment cell."""

    dataset: str
    method: str
    k: int
    num_pieces: int
    beta_over_alpha: float
    epsilon: float | None
    utility: float
    elapsed_seconds: float
    tau_evaluations: int
    nodes_expanded: int
    bounds_computed: int
    sample_seconds: float

    @property
    def evaluations_per_bound(self) -> float:
        """Mean tau evaluations per ComputeBound call (Theorem 4's unit)."""
        if self.bounds_computed == 0:
            return 0.0
        return self.tau_evaluations / self.bounds_computed

    def as_row(self) -> list:
        return [
            self.dataset,
            self.method,
            self.k,
            self.num_pieces,
            self.beta_over_alpha,
            "-" if self.epsilon is None else self.epsilon,
            round(self.utility, 4),
            round(self.elapsed_seconds, 4),
            self.tau_evaluations,
            self.nodes_expanded,
        ]


@dataclass(frozen=True)
class PreparedInstance:
    """Shared per-cell state: problem + optimisation/evaluation samples."""

    bundle: DatasetBundle
    problem: OIPAProblem
    mrr_opt: MRRCollection
    mrr_eval: MRRCollection
    sample_seconds: float


def prepare_instance(
    dataset: str,
    profile: ExperimentProfile,
    *,
    k: int,
    num_pieces: int,
    beta_over_alpha: float,
) -> PreparedInstance:
    """Build the problem and both MRR collections for one cell."""
    bundle = load_dataset(dataset, scale=profile.scale_for(dataset))
    graph = bundle.graph
    # Stable (process-independent) entropy for the cell: Python's hash()
    # is salted, so derive it from the parameters directly.  The budget
    # k is deliberately NOT part of the entropy — a k-sweep (Fig. 4)
    # varies the budget over one fixed campaign/pool/sample draw, as in
    # the paper, instead of re-rolling the instance at every k.
    cell_entropy = (
        profile.seed,
        num_pieces,
        int(round(beta_over_alpha * 1000)),
        zlib.crc32(dataset.encode("utf-8")),
    )
    rng_campaign, rng_pool, rng_opt, rng_eval = spawn_generators(
        np.random.SeedSequence(cell_entropy), 4
    )
    campaign = Campaign.sample_unit(
        num_pieces, graph.num_topics, seed=rng_campaign
    )
    adoption = AdoptionModel.from_ratio(beta_over_alpha)
    problem = OIPAProblem.with_random_pool(
        graph,
        campaign,
        adoption,
        k,
        pool_fraction=profile.pool_fraction,
        seed=rng_pool,
    )
    piece_graphs = project_campaign(graph, campaign)
    models = profile.models_for(num_pieces)
    if models is not None:
        # LT pieces must satisfy the live-edge feasibility condition;
        # IC pieces keep their raw projections untouched.
        piece_graphs = [
            normalize_lt_weights(pg) if m == "lt" else pg
            for pg, m in zip(piece_graphs, models)
        ]
    opt_theta, eval_theta = profile.theta_for(dataset)
    # One Runtime for the cell; the optimisation and evaluation
    # collections only differ in their (role-keyed) shard directory.
    cell_rt = profile.runtime or Runtime()
    if models is not None:
        cell_rt = cell_rt.replace(model=models)
    # The sampling seeds are *integers* drawn from the cell's spawned
    # streams (not the Generator objects themselves): equally
    # deterministic per cell, but content-addressable — so sweep cells
    # sharing a (graph, campaign, theta) reuse one sampled collection
    # through the artifact cache across the solver/k axes and across
    # harness invocations.
    seed_opt = int(rng_opt.integers(2**63))
    seed_eval = int(rng_eval.integers(2**63))

    def role_runtime(role: str):
        # The optimisation and evaluation collections of one cell (and
        # the cells of one sweep) must not share shards — each gets its
        # own subdirectory keyed by (dataset, l, role).
        return cell_rt.with_shard_subdir(
            f"{dataset}-l{num_pieces}-{role}"
        )

    with Timer() as sample_timer:
        mrr_opt = MRRCollection.generate(
            graph,
            campaign,
            opt_theta,
            seed=seed_opt,
            piece_graphs=piece_graphs,
            runtime=role_runtime("opt"),
        )
        mrr_eval = MRRCollection.generate(
            graph,
            campaign,
            eval_theta,
            seed=seed_eval,
            piece_graphs=piece_graphs,
            runtime=role_runtime("eval"),
        )
    return PreparedInstance(
        bundle=bundle,
        problem=problem,
        mrr_opt=mrr_opt,
        mrr_eval=mrr_eval,
        sample_seconds=sample_timer.elapsed,
    )


def run_cell(
    instance: PreparedInstance,
    method: str,
    *,
    epsilon: float = 0.5,
    gap_tolerance: float = 0.01,
    max_nodes: int = 3_000,
) -> CellResult:
    """Run one method on a prepared instance; evaluate independently."""
    problem, mrr = instance.problem, instance.mrr_opt
    timer = Timer().start()
    tau_evaluations = 0
    nodes = 0
    bounds = 0
    if method == "IM":
        plan = im_baseline(problem, mrr, seed=0).plan
    elif method == "TIM":
        plan = tim_baseline(problem, mrr).plan
    elif method in ("BAB", "BAB-P"):
        solver = BranchAndBoundSolver(
            problem,
            mrr,
            bound="greedy" if method == "BAB" else "progressive",
            epsilon=epsilon,
            gap_tolerance=gap_tolerance,
            max_nodes=max_nodes,
        )
        result = solver.solve()
        plan = result.plan
        tau_evaluations = result.diagnostics.tau_evaluations
        nodes = result.diagnostics.nodes_expanded
        bounds = result.diagnostics.bounds_computed
    else:
        raise ExperimentError(
            f"unknown method {method!r}; available: {METHODS}"
        )
    elapsed = timer.stop()
    utility = instance.mrr_eval.estimate(
        plan.seed_lists(), problem.adoption
    )
    return CellResult(
        dataset=instance.bundle.name,
        method=method,
        k=problem.k,
        num_pieces=problem.num_pieces,
        beta_over_alpha=problem.adoption.beta / problem.adoption.alpha,
        epsilon=epsilon if method == "BAB-P" else None,
        utility=utility,
        elapsed_seconds=elapsed,
        tau_evaluations=tau_evaluations,
        nodes_expanded=nodes,
        bounds_computed=bounds,
        sample_seconds=instance.sample_seconds,
    )


def run_methods(
    dataset: str,
    profile: ExperimentProfile,
    *,
    k: int | None = None,
    num_pieces: int | None = None,
    beta_over_alpha: float | None = None,
    epsilon: float | None = None,
    methods: tuple[str, ...] = METHODS,
) -> dict[str, CellResult]:
    """Run several methods on one shared instance (the figures' unit)."""
    k = profile.default_k if k is None else k
    num_pieces = profile.default_l if num_pieces is None else num_pieces
    ratio = (
        profile.default_ratio if beta_over_alpha is None else beta_over_alpha
    )
    eps = profile.default_epsilon if epsilon is None else epsilon
    instance = prepare_instance(
        dataset, profile, k=k, num_pieces=num_pieces, beta_over_alpha=ratio
    )
    return {
        method: run_cell(
            instance,
            method,
            epsilon=eps,
            gap_tolerance=profile.gap_tolerance,
            max_nodes=profile.max_nodes,
        )
        for method in methods
    }
