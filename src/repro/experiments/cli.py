"""Command-line entry point: ``repro-experiments``.

Regenerates any table or figure of the paper at a chosen profile::

    repro-experiments table3
    repro-experiments fig4 --profile quick
    repro-experiments fig3 --theta 8000 --datasets lastfm
    repro-experiments table3 --model ic lt          # mixed-model pieces
    repro-experiments fig4 --store disk --shard-dir /tmp/shards
    repro-experiments all --out results.txt
    repro-experiments params            # print Table IV

The ``quick`` profile (default) finishes each figure in minutes on a
laptop; ``full`` uses larger graphs and theta (see
``repro.experiments.config``).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import PAPER_PARAMETER_GRID, get_profile
from repro.experiments.figures import (
    figure3_epsilon,
    figure4_promoters,
    figure5_pieces,
    figure6_beta_alpha,
    headline_claims,
    table3_datasets,
)
from repro.runtime import Runtime
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]

_DRIVERS = {
    "table3": table3_datasets,
    "fig3": figure3_epsilon,
    "fig4": figure4_promoters,
    "fig5": figure5_pieces,
    "fig6": figure6_beta_alpha,
    "headline": headline_claims,
}


def _parse_workers_flag(text: str):
    """argparse type for ``--workers``: int, ``auto``, or ``serial``."""
    if text in ("auto", "serial"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, 'auto', or 'serial', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Maximizing Multifaceted "
            "Network Influence' (ICDE 2019) on synthetic stand-in datasets."
        ),
    )
    parser.add_argument(
        "target",
        choices=[*_DRIVERS, "all", "params"],
        help="which table/figure to regenerate ('all' runs everything, "
        "'params' prints the paper's Table IV grid)",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        choices=["quick", "full"],
        help="experiment scale profile (default: quick)",
    )
    parser.add_argument(
        "--theta",
        type=int,
        default=None,
        help="override the profile's RR sample count per piece",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict to a subset of datasets (lastfm dblp tweet)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile seed"
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="N",
        type=_parse_workers_flag,
        help="parallel sampling fan-out: an integer pool size, 'auto', "
        "or 'serial' (default: the profile's setting — serial)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=["thread", "process", "spawned"],
        help="pool flavour for the parallel runtime; 'spawned' runs "
        "disk-store generation as cooperating worker processes "
        "(default: thread)",
    )
    parser.add_argument(
        "--model",
        nargs="+",
        default=None,
        choices=["ic", "lt"],
        metavar="MODEL",
        help="per-piece diffusion models, cycled across each cell's "
        "pieces (e.g. '--model ic lt' alternates IC and LT — the "
        "mixed-model multiplex workload); default: IC everywhere",
    )
    parser.add_argument(
        "--store",
        default=None,
        choices=["memory", "disk"],
        help="sample-store layer: 'memory' keeps MRR arrays in RAM, "
        "'disk' spills root-block shards to --shard-dir and bounds "
        "resident sample memory (default: the REPRO_STORE env "
        "override, else memory)",
    )
    parser.add_argument(
        "--shard-dir",
        default=None,
        metavar="PATH",
        help="root directory for disk-store shards (per-cell "
        "subdirectories are created; default: a private temp dir); "
        "requires --store disk",
    )
    parser.add_argument(
        "--max-resident-mb",
        default=None,
        type=int,
        metavar="MB",
        help="disk-store resident ceiling in MiB for shard caches and "
        "index builds (default: 256); requires --store disk",
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        metavar="PATH",
        help="content-addressed artifact cache directory "
        "(repro.artifacts): sweep cells sharing a (graph, campaign, "
        "theta) reuse one sampled collection across the solver/k axes "
        "and across invocations; 'memory' caches in-process, 'off' "
        "disables (default: the REPRO_ARTIFACTS env override, else off)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report to this file",
    )
    return parser


def _print_params() -> str:
    rows = [[name, ", ".join(map(str, values))] for name, values in
            PAPER_PARAMETER_GRID.items()]
    return format_table(
        ["parameter", "values"],
        rows,
        title="Table IV: parameters in the experiments",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.target == "params":
        print(_print_params())
        return 0
    profile = get_profile(args.profile)
    overrides = {}
    if args.theta is not None:
        overrides["theta"] = args.theta
    if args.datasets is not None:
        overrides["datasets"] = tuple(args.datasets)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.model is not None:
        overrides["model"] = (
            args.model[0] if len(args.model) == 1 else tuple(args.model)
        )
    # Execution flags land on the profile's one Runtime (a flag beats
    # the profile-supplied field it names).
    flags = {}
    if args.workers is not None:
        flags["workers"] = args.workers
    if args.executor is not None:
        flags["executor"] = args.executor
    if args.store is not None:
        flags["store"] = args.store
    if args.shard_dir is not None or args.max_resident_mb is not None:
        # The store may also resolve to disk via the profile or the
        # REPRO_STORE env default, so only the explicit contradiction
        # fails here; anything subtler is validated (with a clear
        # ConfigError) when the first collection resolves its store.
        if args.store == "memory":
            parser.error(
                "--shard-dir / --max-resident-mb require the disk store"
            )
        if args.shard_dir is not None:
            flags["shard_dir"] = args.shard_dir
        if args.max_resident_mb is not None:
            flags["max_resident_bytes"] = args.max_resident_mb * 1024 * 1024
    if args.artifact_dir is not None:
        flags["artifacts"] = args.artifact_dir
    if flags:
        overrides["runtime"] = (profile.runtime or Runtime()).replace(**flags)
    if overrides:
        profile = profile.with_overrides(**overrides)

    targets = list(_DRIVERS) if args.target == "all" else [args.target]
    sections: list[str] = []
    for name in targets:
        print(f"[repro-experiments] running {name} ...", file=sys.stderr)
        result = _DRIVERS[name](profile)
        sections.append(result.render())
    report = "\n\n\n".join(sections)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"[repro-experiments] wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
