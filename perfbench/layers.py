"""Per-layer metrics of a traced run.

Times are self times (see :mod:`tracing`) and, like counts, are given
*per traced op* of the measured window; ``datasets.load_s`` is the
median set-up load and ``host.ref_kernel_s`` the run's reference-kernel
median.  A layer a workload does not exercise reads 0: that is the
measured value, not a missing one.  Values the program reports itself
(BAB diagnostics, ``IncrementalTrace``, store and artifact-store stats,
job-record timestamps) arrive through ``extras``.
"""

from __future__ import annotations

import statistics
from collections import Counter

#: Span layers whose self time is reported, by metric name.
_TIMES = {
    "projection.s": "projection",
    "sampling.generate_s": "sampling.generate",
    "coverage.estimate_s": "coverage.estimate",
    "bab.solve_s": "bab.solve",
    "store.put_block_s": "store.put_block",
    "store.finalize_s": "store.finalize",
    "artifacts.get_s": "artifacts.get",
    "artifacts.put_s": "artifacts.put",
    "incremental.update_s": "incremental.update",
    "incremental.solve_s": "incremental.solve",
}

#: Counters recorded by the wrappers, reported per traced op.
_COUNTS = (
    "sampling.rr_sets",
    "sampling.rr_nodes",
    "bab.nodes_expanded",
    "bab.bounds_computed",
    "bab.tau_evaluations",
    "store.put_block_count",
    "store.bytes_written",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def trace_overhead_pct(run) -> float:
    """Traced vs untraced cold-op median, in reference units, as %."""
    cold = [i for i, op in enumerate(run.ops) if op.kind == "cold" and op.ok]
    traced = [run.in_ref_units(i) for i in cold if run.ops[i].traced]
    plain = [run.in_ref_units(i) for i in cold if not run.ops[i].traced]
    if not traced or not plain:
        return float("nan")
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def layer_metrics(tracer, run, op_labels, extras: dict) -> dict:
    """Every per-layer metric of the run (``extras`` fill in the rest)."""
    n = max(1, len(op_labels))
    by_op = tracer.self_times()
    times: Counter = Counter()
    counts: Counter = Counter()
    for label in op_labels:
        times.update(by_op.get(label, {}))
        counts.update(tracer.counters.get(label, {}))
    loads = [
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] == "datasets.load" and span["op"] == "setup"
        and span["end"] is not None
    ]
    out = {name: times[layer] / n for name, layer in _TIMES.items()}
    out.update({name: counts[name] / n for name in _COUNTS})
    out["sampling.nodes_per_s"] = _ratio(
        counts["sampling.rr_nodes"], times["sampling.generate"]
    )
    out["bab.tau_evals_per_s"] = _ratio(
        counts["bab.tau_evaluations"], times["bab.solve"]
    )
    out["datasets.load_s"] = statistics.median(loads) if loads else 0.0
    out["host.ref_kernel_s"] = run.ref_median
    out["trace.overhead_pct"] = trace_overhead_pct(run)
    out["trace.ops"] = float(len(op_labels))
    defaults = {
        "store.gather_hits": 0.0,
        "store.gather_misses": 0.0,
        "incremental.shards_kept": 0.0,
        "incremental.shards_resampled": 0.0,
        "incremental.kept_fraction": 0.0,
        "incremental.dirty_vertices": 0.0,
        "artifacts.hits": 0.0,
        "artifacts.misses": 0.0,
        "artifacts.hit_ratio": 0.0,
        "service.queue_wait_s": 0.0,
        "service.run_s": 0.0,
        "service.http_overhead_s": 0.0,
        "service.polls_per_job": 0.0,
    }
    out.update(defaults)
    out.update(extras)
    return out
