"""Shared measuring machinery: reference kernel, op loop, statistics.

Every gating latency and throughput is reported in *reference units*:
op seconds divided by the time of a fixed stdlib + NumPy kernel run
just before each op in the same process.  The host this benchmark was
tuned on is a 2-vCPU shared VM whose speed drifts by 20-30 %, switching
between speed phases a few seconds long; the op and the kernel drift
together, so their ratio repeats where raw seconds do not.  Each op is
divided by the median kernel time of the five ops around it (itself,
two before, two after): a single kernel timing jitters, a run median
misses the phases.  Raw seconds are kept beside the reference units
for people reading the output.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: Fixed input of the reference kernel (8 MB, sorted into a copy).
_REF_ARRAY = np.random.default_rng(20190408).random(1_000_000)
_REF_LOOP = 120_000
#: Reference timings on each side of an op that normalise it.
REF_WINDOW = 2
#: The reference kernel's typical time on the 2-vCPU host the bounds
#: were tuned on; host-scaled set-up seconds are relative to it.
REF_NOMINAL_S = 0.020


def ref_kernel() -> float:
    """Seconds for one fixed interpreter loop plus a 1M-float sort."""
    start = time.perf_counter()
    acc = 0
    for i in range(_REF_LOOP):
        acc += (i * i) % 7
    out = np.sort(_REF_ARRAY)
    elapsed = time.perf_counter() - start
    if acc < 0 or out[0] > out[-1]:  # consume both results
        raise AssertionError("reference kernel produced garbage")
    return elapsed


@dataclass
class Op:
    kind: str  # "cold" or "warm"
    seconds: float
    traced: bool
    ok: bool


@dataclass
class Run:
    """The bookkeeping of one benchmark invocation."""

    seconds: float
    ops: list[Op] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    deadline: float = 0.0
    hard_stop: float = 0.0

    def start_clock(self) -> None:
        now = time.perf_counter()
        self.deadline = now + self.seconds
        # A slow host may stretch the window to finish the scored ops,
        # but never past the point where the run would overstay its limit.
        self.hard_stop = now + self.seconds + 60.0

    def more(self, need: bool) -> bool:
        """Whether to issue another op.

        ``need`` says the workload's scored ops are unfinished; a run
        also goes on until it has timed at least one warm op.
        """
        now = time.perf_counter()
        if now >= self.hard_stop:
            return False
        warm = any(op.kind == "warm" and op.ok for op in self.ops)
        return need or not warm or now < self.deadline

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; failures count toward error_rate."""
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def timed(self, kind: str, fn, *, traced: bool = False):
        """Time one op; the reference kernel and gc run just before it.

        Returns ``(ok, result)``; an exception is a failed op, recorded
        with its message, never a crash of the run.
        """
        gc.collect()
        self.ref_times.append(ref_kernel())
        start = time.perf_counter()
        try:
            result, ok = fn(), True
        except Exception as err:  # a failed op is a measured outcome
            result, ok = None, False
            self.failures.append(f"{kind} op raised {type(err).__name__}: {err}")
        self.ops.append(Op(kind, time.perf_counter() - start, traced, ok))
        return ok, result

    @property
    def ref_median(self) -> float:
        return statistics.median(self.ref_times)

    def in_ref_units(self, index: int) -> float:
        """Op ``index``'s seconds over the local reference-kernel median."""
        local = self.ref_times[max(0, index - REF_WINDOW): index + REF_WINDOW + 1]
        return self.ops[index].seconds / statistics.median(local)

    @property
    def failed(self) -> int:
        return len(self.failures)


def median_setup(setup, repeats: int) -> tuple[dict, object]:
    """Run ``setup`` ``repeats`` times; return (set-up metrics, last state).

    ``setup`` receives the previous state (``None`` first) so it can
    release it before building the next one.  ``setup_s`` is the median
    set-up in *host-scaled seconds*: each set-up's wall time times
    ``REF_NOMINAL_S`` over the median of the reference-kernel timings
    taken just before and after it, i.e. the seconds it would take on a
    host whose kernel runs in ``REF_NOMINAL_S``.  Set-ups last seconds,
    long enough for the host to change speed phase between two sets of
    runs; the raw median is kept as ``setup_raw_s``.
    """
    raw, scaled, state = [], [], None
    for _ in range(repeats):
        gc.collect()
        refs = [ref_kernel() for _ in range(3)]
        start = time.perf_counter()
        state = setup(state)
        elapsed = time.perf_counter() - start
        refs += [ref_kernel() for _ in range(3)]
        raw.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_S / statistics.median(refs))
    metrics = {
        "setup_s": statistics.median(scaled),
        "setup_raw_s": statistics.median(raw),
        "setup_all_raw_s": raw,
    }
    return metrics, state


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile, n)``; with ten or fewer values the
    maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def latency_metrics(run: Run, *, traced: bool = False) -> dict:
    """End-to-end latency and throughput of the run's (un)traced ops."""
    index = [i for i, op in enumerate(run.ops) if op.traced == traced]
    cold = [i for i in index if run.ops[i].kind == "cold" and run.ops[i].ok]
    warm = [i for i in index if run.ops[i].kind == "warm" and run.ops[i].ok]
    cold_ref = [run.in_ref_units(i) for i in cold]
    warm_ref = [run.in_ref_units(i) for i in warm]
    tail_ref, tail_pct, tail_n = tail(cold_ref)
    nan = float("nan")
    return {
        "latency_p50_s": statistics.median(run.ops[i].seconds for i in cold),
        "latency_p50_ref": statistics.median(cold_ref),
        "latency_tail_ref": tail_ref,
        "latency_tail_pct": tail_pct,
        "latency_tail_n": tail_n,
        "warm_latency_p50_s": (
            statistics.median(run.ops[i].seconds for i in warm) if warm else nan
        ),
        "warm_latency_p50_ref": statistics.median(warm_ref) if warm else nan,
        "throughput_per_s": len(index) / sum(run.ops[i].seconds for i in index),
        "throughput_ref": len(index) / sum(run.in_ref_units(i) for i in index),
        "ref_kernel_median_s": run.ref_median,
        "ops_cold": len(cold),
        "ops_warm": len(warm),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def fingerprint(root: str) -> dict:
    """What the run ran on: cores, library versions, threads, git sha."""
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_ok,
        "git_sha": sha,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
        "platform": sys.platform,
    }
