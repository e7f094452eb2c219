"""``bab-hard``: BAB-P on the paper's hardest cell, no sampling in the loop.

lastfm at full scale, l=5 pieces, beta/alpha=0.3 (the headline claims'
max-pieces / min-ratio corner, where BAB-P's progressive bound beats
plain BAB).  One MRR collection (theta=20 000, memory store, serial,
artifacts off) is sampled in set-up; each op is ``solve_bab_progressive``
with k=20 and a fixed node budget on a freshly seeded promoter pool.
Every third op is *warm*: an earlier pool re-solved with its plan as
the BAB incumbent, the solver's warm-start path.  The loop is solver-
and coverage-bound, so a sampling change should not move it.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from harness import latency_metrics, median_setup, vm_hwm_mb
from layers import layer_metrics

DATASET, SCALE, PIECES, RATIO = "lastfm", 1.0, 5, 0.3
THETA, EVAL_THETA, K, NODES = 20_000, 80_000, 20, 24
CAMPAIGN_SEED, SAMPLE_SEED, EVAL_SEED = 11, 3, 4
WARM_EVERY = 3
#: Plans whose evaluation and digest are reported (a fixed count, so
#: au_eval and the digest do not depend on how many ops fit the window).
SCORED = 16


def _setup(state, ctx):
    import repro
    from repro.datasets.registry import clear_dataset_cache

    del state
    clear_dataset_cache()
    bundle = ctx.tracer.call(
        "datasets.load", repro.load_dataset, DATASET, scale=SCALE
    )
    graph = bundle.graph
    campaign = repro.Campaign.sample_unit(
        PIECES, graph.num_topics, seed=CAMPAIGN_SEED
    )
    runtime = repro.Runtime(workers=1, store="memory", artifacts="off")
    mrr = repro.MRRCollection.generate(
        graph, campaign, THETA, seed=SAMPLE_SEED, runtime=runtime
    )
    return graph, campaign, runtime, mrr


def run(ctx) -> dict:
    import repro
    from repro.core import bab

    run = ctx.run
    tracer = ctx.tracer
    tracer.enabled, tracer.op = ctx.trace, "setup"
    setup, (graph, campaign, runtime, mrr) = median_setup(
        lambda state: _setup(state, ctx), ctx.setup_repeats
    )
    tracer.enabled = False
    adoption = repro.AdoptionModel.from_ratio(RATIO)
    evaluation = repro.MRRCollection.generate(
        graph, campaign, EVAL_THETA, seed=EVAL_SEED, runtime=runtime
    )

    target = 2 if ctx.smoke else SCORED
    rng = np.random.default_rng(ctx.seed)
    pools: list = []  # (problem, cold plan)
    scored: list = []  # evaluation AU of the first SCORED cold plans
    digest = hashlib.sha256()

    def solve(problem, **options):
        return bab.solve_bab_progressive(
            problem, mrr, max_nodes=NODES, **options
        )

    def new_problem():
        return repro.OIPAProblem.with_random_pool(
            graph, campaign, adoption, K,
            seed=int(rng.integers(0, 2**63 - 1)),
        )

    def check(problem, result, label) -> None:
        try:
            problem.validate_plan(result.plan)
            valid = True
        except repro.SolverError:
            valid = False
        run.check(valid, f"{label}: plan fails validate_plan")
        again = mrr.estimate(result.plan.seed_lists(), adoption)
        run.check(
            abs(again - result.utility) <= 1e-9 * max(1.0, abs(again)),
            f"{label}: estimate {result.utility!r} != mrr.estimate {again!r}",
        )

    # warm-up op, excluded from timing
    warm_problem = new_problem()
    solve(warm_problem)

    run.start_clock()
    i = 0
    traced_ops = []
    while run.more(len(scored) < target):
        # a traced run alternates traced and untraced ops: the untraced
        # half is the baseline of the tracing overhead
        traced = ctx.trace and i % 2 == 1
        tracer.op = f"op{i}"
        if traced:
            traced_ops.append(tracer.op)
        if i % WARM_EVERY == WARM_EVERY - 1 and pools:
            problem, plan = pools[int(rng.integers(len(pools)))]
            tracer.enabled = traced
            ok, result = run.timed(
                "warm", lambda: solve(problem, incumbent=plan), traced=traced
            )
            tracer.enabled = False
            if ok:
                check(problem, result, f"warm op {i}")
                cold_au = mrr.estimate(plan.seed_lists(), adoption)
                run.check(
                    result.utility >= cold_au - 1e-9 * max(1.0, cold_au),
                    f"warm op {i}: primed solve lost its incumbent",
                )
        else:
            problem = new_problem()
            tracer.enabled = traced
            ok, result = run.timed("cold", lambda: solve(problem), traced=traced)
            tracer.enabled = False
            if ok:
                check(problem, result, f"cold op {i}")
                pools.append((problem, result.plan))
                if len(scored) < target:
                    scored.append(
                        evaluation.estimate(result.plan.seed_lists(), adoption)
                    )
                    digest.update(repr(result.plan.seed_lists()).encode())
        i += 1
    run.check(
        len(scored) == target,
        f"only {len(scored)} of {target} scored plans finished in time",
    )

    out = {
        "e2e": {
            **latency_metrics(run),
            **setup,
            "au_eval": statistics.fmean(scored) if scored else float("nan"),
            "peak_rss_mb": vm_hwm_mb(),
        },
        "digest": digest.hexdigest(),
    }
    if ctx.trace:
        out["layers"] = layer_metrics(tracer, run, traced_ops, {})
    return out
