"""Generic experiment cell runner.

One *cell* = (dataset, parameters, method) -> (utility, time,
diagnostics).  Each cell is one :class:`~repro.api.Session`, which
implements the paper's measurement protocol (Sec. VI-A):

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

from repro.api import Session
from repro.core.problem import OIPAProblem
from repro.datasets.registry import load_dataset
from repro.diffusion.adoption import AdoptionModel
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentProfile
from repro.runtime import Runtime
from repro.topics.distributions import Campaign
from repro.utils.rng import spawn_generators

__all__ = [
    "CellResult",
    "prepare_instance",
    "run_cell",
    "run_methods",
    "sample_seconds",
]

#: The paper's method names and the solver-registry keys they run.
_SOLVER_KEYS = {"IM": "im", "TIM": "tim", "BAB": "bab", "BAB-P": "bab-p"}
METHODS = tuple(_SOLVER_KEYS)


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


def prepare_instance(
    dataset: str,
    profile: ExperimentProfile,
    *,
    k: int,
    num_pieces: int,
    beta_over_alpha: float,
) -> Session:
    """One cell's :class:`Session`, both MRR collections already sampled."""
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
    pool = OIPAProblem.with_random_pool(
        graph,
        campaign,
        adoption,
        k,
        pool_fraction=profile.pool_fraction,
        seed=rng_pool,
    ).pool
    cell_rt = profile.runtime or Runtime()
    models = profile.models_for(num_pieces)
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
    session = Session(
        bundle,
        campaign,
        adoption,
        k=k,
        pool=pool,
        seed=seed_opt,
        runtime=cell_rt,
    )
    opt_theta, eval_theta = profile.theta_for(dataset)
    session.sample(opt_theta, seed=seed_opt)
    session.sample_evaluation(eval_theta, seed=seed_eval)
    return session


def sample_seconds(session: Session) -> float:
    """Wall-clock of the cell's sampling (Table III's "Sample Time")."""
    return sum(e.seconds for e in session.stage_trace if e.stage == "sample")


def run_cell(
    session: Session,
    method: str,
    *,
    epsilon: float = 0.5,
    gap_tolerance: float = 0.01,
    max_nodes: int = 3_000,
) -> CellResult:
    """Run one method on a prepared cell; evaluate independently."""
    key = _SOLVER_KEYS.get(method)
    if key is None:
        raise ExperimentError(
            f"unknown method {method!r}; available: {METHODS}"
        )
    options = {}
    if key in ("bab", "bab-p"):
        options = {"gap_tolerance": gap_tolerance, "max_nodes": max_nodes}
        if key == "bab-p":
            options["epsilon"] = epsilon
    result = session.solve(key, **options)
    elapsed = next(
        e.seconds
        for e in reversed(session.stage_trace.events)
        if e.stage == "solve"
    )
    diagnostics = result.diagnostics
    return CellResult(
        dataset=session.bundle.name,
        method=method,
        k=session.k,
        num_pieces=session.num_pieces,
        beta_over_alpha=session.adoption.beta / session.adoption.alpha,
        epsilon=epsilon if method == "BAB-P" else None,
        utility=session.evaluate(result),
        elapsed_seconds=elapsed,
        tau_evaluations=diagnostics.get("tau_evaluations", 0),
        nodes_expanded=diagnostics.get("nodes_expanded", 0),
        bounds_computed=diagnostics.get("bounds_computed", 0),
        sample_seconds=sample_seconds(session),
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
    session = prepare_instance(
        dataset, profile, k=k, num_pieces=num_pieces, beta_over_alpha=ratio
    )
    return {
        method: run_cell(
            session,
            method,
            epsilon=eps,
            gap_tolerance=profile.gap_tolerance,
            max_nodes=profile.max_nodes,
        )
        for method in methods
    }
