"""One seeded benchmark run of the OIPA engine.

    python3 perfbench/run.py --workload bab-hard --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  The
metric names, units and workloads come from ``BENCHMARK.json`` at the
checkout root; ``--trace 0`` prints every end-to-end metric, ``--trace
1`` every per-layer metric, as the last line of stdout (one JSON
object).  A human-readable table, with raw seconds beside the
reference units, precedes it; the full record of the run (fingerprint,
tail percentile, checks, spans) is written under ``perfbench/out/``.
``--smoke`` runs a handful of ops with one set-up, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "service-mix": "wl_service",
    "bab-hard": "wl_bab",
    "update-stream": "wl_update",
}


def clean_environment() -> None:
    """One BLAS thread, and no inherited REPRO_* knob changes a workload.

    Must run before NumPy or the program is imported (the program reads
    REPRO_* once, at import); the service subprocess inherits it.
    """
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the server it starts) to one CPU.

    The reference kernel and the op then run on the same core, so the
    kernel measures the speed the op saw; the work is single-threaded
    anyway.  Returns the CPU, or None where affinity is unsupported.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a handful of ops after a single set-up (benchmark self-test)",
    )
    return parser.parse_args(argv)


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_digest(key: str, digest: str) -> bool:
    """Compare a run's output digest with earlier runs of the same inputs.

    The first run of a (workload, seed, mode) in a checkout records it.
    """
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    manifest = load_manifest()
    clean_environment()
    cpu = pin_to_one_cpu()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import importlib

    from harness import Run, fingerprint
    from tracing import Tracer, install

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer()
    if args.trace:
        install(tracer)
    run = Run(seconds=args.seconds)
    ctx = SimpleNamespace(
        seed=args.seed,
        trace=bool(args.trace),
        smoke=args.smoke,
        setup_repeats=1 if args.smoke else 3,
        run=run,
        tracer=tracer,
        workdir=workdir,
        root=ROOT,
        src=SRC,
        here=HERE,
    )
    module = importlib.import_module(WORKLOADS[args.workload])
    started = time.time()
    try:
        result = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = result.get("digest")
    if digest is not None:
        run.check(
            check_digest(
                f"{args.workload}/{args.seed}/{'smoke' if args.smoke else 'full'}",
                digest,
            ),
            "output digest differs from an earlier run of this seed",
        )

    e2e = result["e2e"]
    e2e["error_rate"] = run.failed / max(1, len(run.ops))
    section = "per_layer" if args.trace else "end_to_end"
    values = result["layers"] if args.trace else e2e
    metrics = {}
    for spec in manifest[section]:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "fingerprint": dict(fingerprint(ROOT), pinned_cpu=cpu),
        "end_to_end": e2e,
        "per_layer": result.get("layers"),
        "checks": run.checks,
        "failures": run.failures,
        "ops": [[op.kind, op.seconds, op.traced, op.ok] for op in run.ops],
        "ref_times": run.ref_times,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(run.ops)} checks={run.checks} failures={run.failed}")
    print(f"# fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    for key in sorted(e2e):
        print(f"  e2e   {key:28s} {e2e[key]!r}")
    for key in sorted(result.get("layers") or {}):
        print(f"  layer {key:28s} {result['layers'][key]!r}")
    for failure in run.failures[:20]:
        print(f"  FAIL  {failure}")

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = run.failed == 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, len(run.ops)),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
