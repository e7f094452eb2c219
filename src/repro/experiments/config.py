"""Experiment configuration: the paper's Table IV grid and our profiles.

The paper's grid (Table IV)::

    k          10, 20, ..., 50, ..., 100      (default 50)
    l          1, 2, 3, 4, 5                  (default 3)
    beta/alpha 0.3, 0.5, 0.7                  (default 0.5; beta fixed at 1)
    epsilon    0.1, ..., 0.5, ..., 0.9        (default 0.5)
    theta      10^6 RR sets per piece
    V^p        uniform 10 % of V

Running that grid verbatim in pure Python would take days, so the
harness exposes *profiles*: ``quick`` (benchmark-suite scale — minutes)
and ``full`` (closer to paper scale — hours).  Both keep the paper's
piece/epsilon/ratio grids; what shrinks is the graph scale, theta, and
the k grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.exceptions import ExperimentError
from repro.runtime import Runtime

__all__ = [
    "PAPER_PARAMETER_GRID",
    "ExperimentProfile",
    "QUICK_PROFILE",
    "FULL_PROFILE",
    "get_profile",
]

#: Table IV, verbatim.
PAPER_PARAMETER_GRID: dict[str, tuple] = {
    "k": (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    "l": (1, 2, 3, 4, 5),
    "beta_over_alpha": (0.3, 0.5, 0.7),
    "epsilon": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
}

#: Table IV defaults (the value held fixed while others sweep).
PAPER_DEFAULTS = {
    "k": 50,
    "l": 3,
    "beta_over_alpha": 0.5,
    "epsilon": 0.5,
}


@dataclass(frozen=True)
class ExperimentProfile:
    """Everything a figure driver needs to size its sweep."""

    name: str
    datasets: tuple[str, ...]
    dataset_scale: dict[str, float] = field(default_factory=dict)
    theta: int = 4_000
    k_grid: tuple[int, ...] = (5, 10, 15, 20)
    default_k: int = 10
    l_grid: tuple[int, ...] = (1, 2, 3, 4, 5)
    default_l: int = 3
    ratio_grid: tuple[float, ...] = (0.3, 0.5, 0.7)
    default_ratio: float = 0.5
    epsilon_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    default_epsilon: float = 0.5
    pool_fraction: float = 0.1
    gap_tolerance: float = 0.01
    max_nodes: int = 3_000
    eval_theta: int | None = None  # defaults to theta
    theta_multiplier: dict[str, float] = field(default_factory=dict)
    seed: int = 2019  # ICDE year; fixed for reproducibility
    #: Per-piece diffusion models: ``None`` (IC everywhere), one name,
    #: or a sequence cycled across the pieces of each cell — the
    #: mixed-model multiplex workload (``--model ic lt`` gives IC/LT
    #: alternating pieces at every ``l`` of a sweep).  LT pieces are
    #: weight-normalised by the cell's ``Session.piece_graphs``.
    model: str | tuple[str, ...] | None = None
    #: One :class:`repro.runtime.Runtime` carrying the whole execution
    #: policy of every cell — sampling backend, worker pool + executor,
    #: sample store + shard directory + memory budget, artifact cache —
    #: (``None`` = all defaults).  ``model`` stays separate because the
    #: harness cycles it per cell (:meth:`models_for`).
    runtime: Runtime | None = None

    def scale_for(self, dataset: str) -> float | None:
        """Scale override for ``dataset`` (None = registry default)."""
        return self.dataset_scale.get(dataset)

    def models_for(self, num_pieces: int) -> tuple[str, ...] | None:
        """The per-piece model list for a cell with ``num_pieces`` pieces.

        A configured sequence is cycled (or truncated) to the cell's
        piece count so one ``--model ic lt`` flag serves every ``l`` of
        a sweep; a scalar or ``None`` passes through unchanged.
        """
        if self.model is None or isinstance(self.model, str):
            return None if self.model is None else (self.model,) * num_pieces
        if not self.model:
            raise ExperimentError("model list must not be empty")
        cycled = tuple(
            self.model[i % len(self.model)] for i in range(num_pieces)
        )
        return cycled

    def theta_for(self, dataset: str) -> tuple[int, int]:
        """(optimisation, evaluation) sample counts for ``dataset``.

        Sparse datasets (tweet-like) have thin adoption densities, so
        their estimates need proportionally more samples; per-dataset
        multipliers keep the estimator's *relative* error comparable
        across datasets (the paper's flat theta=1e6 achieves the same by
        brute force).
        """
        mult = self.theta_multiplier.get(dataset, 1.0)
        opt = int(round(self.theta * mult))
        eval_base = self.eval_theta or self.theta
        return opt, int(round(eval_base * mult))

    def with_overrides(self, **kwargs) -> "ExperimentProfile":
        """A copy with selected fields replaced (CLI flag plumbing)."""
        return replace(self, **kwargs)


#: Benchmark-suite scale: every figure regenerates in minutes.
QUICK_PROFILE = ExperimentProfile(
    name="quick",
    datasets=("lastfm", "dblp", "tweet"),
    dataset_scale={"lastfm": 0.5, "dblp": 0.06, "tweet": 0.06},
    theta=3_000,
    k_grid=(5, 10, 15, 20),
    default_k=10,
    l_grid=(1, 2, 3, 4, 5),
    default_l=3,
    epsilon_grid=(0.1, 0.3, 0.5, 0.7, 0.9),
    max_nodes=150,
    eval_theta=12_000,
    theta_multiplier={"dblp": 2.0, "tweet": 6.0},
)

#: Fuller runs (CLI `--profile full`): paper-shaped grids, larger graphs.
FULL_PROFILE = ExperimentProfile(
    name="full",
    datasets=("lastfm", "dblp", "tweet"),
    dataset_scale={},  # registry defaults: 1.3k / 8k / 10k vertices
    theta=20_000,
    k_grid=(10, 20, 30, 40, 50),
    default_k=30,
    l_grid=(1, 2, 3, 4, 5),
    default_l=3,
    epsilon_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    max_nodes=2_000,
    eval_theta=40_000,
    theta_multiplier={"dblp": 2.0, "tweet": 6.0},
)

_PROFILES = {"quick": QUICK_PROFILE, "full": FULL_PROFILE}


def get_profile(name: str) -> ExperimentProfile:
    """Look up a named profile."""
    profile = _PROFILES.get(name)
    if profile is None:
        raise ExperimentError(
            f"unknown profile {name!r}; available: {sorted(_PROFILES)}"
        )
    return profile
