"""Benchmark-suite fixtures.

Every benchmark regenerates one of the paper's tables/figures at the
``quick`` profile scale, asserts the paper's qualitative *shape*
(method ordering, trend directions, speedups), and writes the rendered
rows to ``benchmarks/out/<name>.txt`` so the regenerated artefacts are
inspectable after a run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.config import QUICK_PROFILE

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def profile():
    """The benchmark-scale experiment profile."""
    return QUICK_PROFILE


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_artifact(directory: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered figure/table for post-run inspection."""
    (directory / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def kernel_bench(artifact_dir):
    """Recorder for kernel timings, merged into ``BENCH_kernels.json``.

    Benchmarks call ``kernel_bench(op, backend, seconds, speedup=...)``
    once per measured (operation, backend) cell; at session teardown
    the entries are merged into ``benchmarks/out/BENCH_kernels.json``
    keyed by ``(op, backend)`` — a partial run (e.g. the numba-less
    leg skipping every native gate) updates only the cells it measured
    and leaves the rest of the file intact.  This file is the machine
    -readable perf trajectory the CI benchmark gate archives.
    """
    entries: list[dict] = []

    def record(op: str, backend: str, seconds: float, *, speedup=None, **extra):
        entry = {"op": op, "backend": backend, "seconds": float(seconds)}
        if speedup is not None:
            entry["speedup"] = float(speedup)
        entry.update(extra)
        entries.append(entry)

    yield record
    if not entries:
        return
    path = artifact_dir / "BENCH_kernels.json"
    merged: dict[tuple, dict] = {}
    if path.exists():
        try:
            for e in json.loads(path.read_text(encoding="utf-8")):
                merged[(e.get("op"), e.get("backend"))] = e
        except (ValueError, OSError):
            merged = {}
    for e in entries:
        merged[(e["op"], e["backend"])] = e
    ordered = sorted(merged.values(), key=lambda e: (e["op"], e["backend"]))
    path.write_text(
        json.dumps(ordered, indent=2) + "\n", encoding="utf-8"
    )
