"""Per-figure experiment drivers.

Each driver regenerates one table or figure of the paper's Sec. VI at
the requested profile's scale and returns a :class:`FigureResult` whose
``render()`` prints the same rows/series the paper plots.  The expected
*shapes* (who wins, how curves move) are documented per driver and
asserted by the benchmark suite (``benchmarks/bench_*.py``), which
writes the rendered rows to ``benchmarks/out/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentProfile, QUICK_PROFILE
from repro.experiments.runner import (
    METHODS,
    prepare_instance,
    run_cell,
    run_methods,
    sample_seconds,
)
from repro.utils.tables import format_series, format_table

__all__ = [
    "FigureResult",
    "table3_datasets",
    "figure3_epsilon",
    "figure4_promoters",
    "figure5_pieces",
    "figure6_beta_alpha",
    "headline_claims",
]


@dataclass
class FigureResult:
    """One regenerated table/figure: raw values plus a text rendering."""

    name: str
    description: str
    panels: dict = field(default_factory=dict)
    text: str = ""

    def render(self) -> str:
        return self.text

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ----------------------------------------------------------------------
# Table III — dataset statistics
# ----------------------------------------------------------------------

def table3_datasets(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Reproduce Table III: per-dataset statistics + sample time.

    Paper values are printed next to our synthetic stand-ins' so the
    scale substitution (:mod:`repro.experiments.config`) is visible in
    every report.
    """
    rows = []
    panels = {}
    for name in profile.datasets:
        session = prepare_instance(
            name,
            profile,
            k=profile.default_k,
            num_pieces=profile.default_l,
            beta_over_alpha=profile.default_ratio,
        )
        bundle = session.bundle
        seconds = sample_seconds(session)
        rows.append(bundle.table3_row() + [round(seconds, 2)])
        panels[name] = {
            "summary": bundle.summary,
            "sample_seconds": seconds,
            "build_seconds": bundle.build_seconds,
        }
    text = format_table(
        [
            "dataset",
            "paper |V|",
            "paper |E|",
            "paper |Z|",
            "ours |V|",
            "ours |E|",
            "avg deg",
            "|Z|",
            "topics/edge",
            "sample time (s)",
        ],
        rows,
        title="Table III: dataset statistics (paper vs this reproduction)",
    )
    return FigureResult(
        name="table3",
        description="Dataset statistics and RR sampling time",
        panels=panels,
        text=text,
    )


# ----------------------------------------------------------------------
# Figure 3 — tuning epsilon for BAB-P
# ----------------------------------------------------------------------

def figure3_epsilon(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Reproduce Fig. 3: BAB-P adoption utility as epsilon varies.

    Expected shape: utility mildly *descends* as epsilon rises (larger
    threshold steps admit promoters earlier); the paper measures drops of
    0.08 % (lastfm), 6.6 % (dblp) and 1.4 % (tweet) from eps 0.1 to 0.9.
    """
    panels = {}
    blocks = []
    for dataset in profile.datasets:
        session = prepare_instance(
            dataset,
            profile,
            k=profile.default_k,
            num_pieces=profile.default_l,
            beta_over_alpha=profile.default_ratio,
        )
        utilities = []
        for eps in profile.epsilon_grid:
            cell = run_cell(
                session,
                "BAB-P",
                epsilon=eps,
                gap_tolerance=profile.gap_tolerance,
                max_nodes=profile.max_nodes,
            )
            utilities.append(cell.utility)
        panels[dataset] = {
            "epsilon": list(profile.epsilon_grid),
            "BAB-P": utilities,
        }
        blocks.append(
            format_series(
                "epsilon",
                list(profile.epsilon_grid),
                {"BAB-P utility": utilities},
                title=f"Figure 3 [{dataset}]: tuning epsilon for BAB-P",
            )
        )
    return FigureResult(
        name="figure3",
        description="BAB-P utility vs epsilon",
        panels=panels,
        text="\n\n".join(blocks),
    )


# ----------------------------------------------------------------------
# Figures 4-6 — method comparisons over k, l, beta/alpha
# ----------------------------------------------------------------------

def _sweep(
    profile: ExperimentProfile,
    x_name: str,
    x_values,
    *,
    fixed: dict,
    figure_name: str,
    figure_title: str,
) -> FigureResult:
    """Shared driver: sweep one parameter, all methods, all datasets."""
    panels = {}
    blocks = []
    for dataset in profile.datasets:
        utility = {m: [] for m in METHODS}
        times = {m: [] for m in METHODS}
        for x in x_values:
            params = dict(fixed)
            params[x_name] = x
            cells = run_methods(dataset, profile, **params)
            for m in METHODS:
                utility[m].append(cells[m].utility)
                times[m].append(cells[m].elapsed_seconds)
        panels[dataset] = {
            x_name: list(x_values),
            "utility": utility,
            "time": times,
        }
        blocks.append(
            format_series(
                x_name,
                list(x_values),
                utility,
                title=f"{figure_title} [{dataset}]: adoption utility",
            )
        )
        blocks.append(
            format_series(
                x_name,
                list(x_values),
                times,
                title=f"{figure_title} [{dataset}]: run time (s)",
            )
        )
    return FigureResult(
        name=figure_name,
        description=figure_title,
        panels=panels,
        text="\n\n".join(blocks),
    )


def figure4_promoters(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Reproduce Fig. 4: utility & time vs the number of promoters k.

    Expected shape: utility grows with k for every method and orders
    BAB >= BAB-P > TIM > IM; BAB's run time grows fastest; BAB-P stays
    several-fold cheaper and scales best among the OIPA solvers.
    """
    return _sweep(
        profile,
        "k",
        profile.k_grid,
        fixed={
            "num_pieces": profile.default_l,
            "beta_over_alpha": profile.default_ratio,
        },
        figure_name="figure4",
        figure_title="Figure 4 (varying k)",
    )


def figure5_pieces(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Reproduce Fig. 5: utility & time vs the number of viral pieces l.

    Expected shape: utilities rise with l (beta = 1: each extra received
    piece raises adoption probability); IM/TIM fall further behind BAB /
    BAB-P as l grows since they still spread a single piece.
    """
    return _sweep(
        profile,
        "num_pieces",
        profile.l_grid,
        fixed={
            "k": profile.default_k,
            "beta_over_alpha": profile.default_ratio,
        },
        figure_name="figure5",
        figure_title="Figure 5 (varying l)",
    )


def figure6_beta_alpha(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Reproduce Fig. 6: utility vs the ratio beta/alpha.

    Expected shape: all utilities rise with beta/alpha (alpha shrinking
    makes adoption easier), and the BAB/BAB-P advantage over IM/TIM is
    *largest at small beta/alpha* — the regime where a user must receive
    several pieces before adoption becomes likely.
    """
    return _sweep(
        profile,
        "beta_over_alpha",
        profile.ratio_grid,
        fixed={"k": profile.default_k, "num_pieces": profile.default_l},
        figure_name="figure6",
        figure_title="Figure 6 (varying beta/alpha)",
    )


# ----------------------------------------------------------------------
# Headline claims
# ----------------------------------------------------------------------

def headline_claims(profile: ExperimentProfile = QUICK_PROFILE) -> FigureResult:
    """Check the abstract's two headline numbers at reproduction scale.

    1. Quality: BAB/BAB-P beat IM and TIM (the paper reports >= 215 %
       aggregate improvement; gains grow with l and shrink with
       beta/alpha).
    2. Efficiency: BAB-P needs far fewer tau evaluations and less time
       than BAB (paper: up to 24x speedup).
    """
    rows = []
    panels = {}
    for dataset in profile.datasets:
        cells = run_methods(
            dataset,
            profile,
            k=profile.default_k,
            num_pieces=max(profile.l_grid),
            beta_over_alpha=min(profile.ratio_grid),
        )
        bab, babp = cells["BAB"], cells["BAB-P"]
        im, tim = cells["IM"], cells["TIM"]
        best_baseline = max(im.utility, tim.utility)
        gain_pct = (
            (bab.utility / best_baseline - 1.0) * 100.0
            if best_baseline > 0
            else float("inf")
        )
        speedup_time = (
            bab.elapsed_seconds / babp.elapsed_seconds
            if babp.elapsed_seconds > 0
            else float("inf")
        )
        # Theorem 4's quantity: tau evaluations per ComputeBound call.
        # (Whole-solve eval totals confound per-bound cost with how many
        # nodes each search happened to expand before its gap closed.)
        speedup_evals = (
            bab.evaluations_per_bound / babp.evaluations_per_bound
            if babp.evaluations_per_bound > 0
            else float("inf")
        )
        panels[dataset] = {
            "utilities": {m: cells[m].utility for m in METHODS},
            "gain_vs_best_baseline_pct": gain_pct,
            "speedup_time": speedup_time,
            "speedup_evals": speedup_evals,
        }
        rows.append(
            [
                dataset,
                round(im.utility, 3),
                round(tim.utility, 3),
                round(bab.utility, 3),
                round(babp.utility, 3),
                f"{gain_pct:.0f}%",
                f"{speedup_time:.1f}x",
                f"{speedup_evals:.1f}x",
            ]
        )
    text = format_table(
        [
            "dataset",
            "IM",
            "TIM",
            "BAB",
            "BAB-P",
            "BAB gain",
            "BAB-P time speedup",
            "eval speedup",
        ],
        rows,
        title=(
            "Headline claims (hardest cell: max l, min beta/alpha): "
            "quality gain vs best baseline, BAB-P speedup vs BAB"
        ),
    )
    return FigureResult(
        name="headline",
        description="Abstract's >=215% quality / 24x speedup claims",
        panels=panels,
        text=text,
    )
