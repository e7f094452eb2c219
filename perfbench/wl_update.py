"""``update-stream``: incremental updates on a disk-backed lineage.

tweet at scale 0.2, l=3, a coordinate-keyed lineage at theta=200 000
on a disk ``ShardStore`` (serial, artifacts off).  Each cold op is
``Session.update`` with a seeded two-op delta - an add or a remove,
plus a reweight onto a campaign topic, heads drawn uniformly - followed
by the warm ``celf-mrr`` re-solve, so every op dirties shards.  Every
fourth op is *warm*: two reweights among topics no campaign piece uses,
so no projection changes and every shard is kept - the update path's
floor.  Shard writes (invalidate, regenerate,
manifest, finalize) sit beside reads; there is no BAB and no artifact
store.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from harness import latency_metrics, median_setup, vm_hwm_mb
from layers import layer_metrics

DATASET, SCALE, PIECES, K = "tweet", 0.2, 3, 10
THETA, EVAL_THETA = 200_000, 100_000
CAMPAIGN_SEED, LINEAGE_SEED, EVAL_SEED = 5, 7, 8
WARM_EVERY = 4
#: The plan after this many cold ops is the one scored for au_eval.
SCORED_AFTER = 8


def collection_digest(collection) -> str:
    """sha256 over the roots and every piece's RR CSR arrays."""
    h = hashlib.sha256(np.ascontiguousarray(collection.roots).tobytes())
    for piece in range(collection.num_pieces):
        ptr, nodes = collection.store.rr_arrays(piece)
        h.update(np.ascontiguousarray(ptr).tobytes())
        h.update(np.ascontiguousarray(nodes).tobytes())
    return h.hexdigest()


def _new_session(bundle_or_graph, campaign, shard_dir):
    import repro

    runtime = repro.Runtime(
        workers=1, store="disk", shard_dir=shard_dir, artifacts="off"
    )
    return repro.Session(
        bundle_or_graph, campaign, k=K, seed=LINEAGE_SEED, runtime=runtime
    )


def _setup(state, ctx, counter):
    import repro
    from repro.datasets.registry import clear_dataset_cache

    del state
    clear_dataset_cache()
    counter[0] += 1
    bundle = ctx.tracer.call(
        "datasets.load", repro.load_dataset, DATASET, scale=SCALE
    )
    campaign = repro.Campaign.sample_unit(
        PIECES, bundle.graph.num_topics, seed=CAMPAIGN_SEED
    )
    shard_dir = os.path.join(ctx.workdir, f"lineage{counter[0]}")
    session = _new_session(bundle, campaign, shard_dir)
    session.sample_incremental(THETA)
    session.solve("celf-mrr")
    return session, campaign


class DeltaSource:
    """Seeded two-op deltas against the session's current graph."""

    def __init__(self, seed: int, campaign) -> None:
        self.rng = np.random.default_rng(seed)
        support = np.flatnonzero(np.sum(campaign.vectors(), axis=0) > 0)
        self.on_topics = support
        self.campaign_topics = set(support.tolist())

    def _topics(self, graph, on_campaign: bool) -> dict:
        rng = self.rng
        if on_campaign:
            z = int(self.on_topics[rng.integers(self.on_topics.size)])
        else:
            while True:
                z = int(rng.integers(graph.num_topics))
                if z not in self.campaign_topics:
                    break
        # weak edges: the work an op causes does not depend on the
        # weight, while the plans (and au_eval) drift less from the base
        return {z: float(rng.uniform(0.005, 0.02))}

    def _off_campaign(self, graph, u: int, v: int) -> bool:
        vec = graph.edge_topic_vector(graph.edge_id(u, v))
        return not any(vec[z] for z in self.campaign_topics)

    def _existing_edge(self, graph, taken, *, off_campaign=False):
        rng = self.rng
        while True:
            v = int(rng.integers(graph.n))
            preds = graph.predecessors(v)
            if not preds.size:
                continue
            u = int(preds[rng.integers(preds.size)])
            if (u, v) in taken:
                continue
            if off_campaign and not self._off_campaign(graph, u, v):
                continue
            return u, v

    def cold(self, graph):
        """One structural op (add or remove) and one on-campaign reweight.

        Fixing the mix, and drawing only the op kind, edge and weight
        from the seed, keeps the work per op alike across seeds: a
        structural head dirties every piece, a reweight only the piece
        whose projection it changes.
        """
        from repro import EdgeOp, GraphDelta

        rng = self.rng
        if rng.random() < 0.5:
            while True:
                u, v = (int(x) for x in rng.integers(graph.n, size=2))
                if u != v and not graph.has_edge(u, v):
                    break
            first = EdgeOp("add", u, v, topics=self._topics(graph, True))
        else:
            u, v = self._existing_edge(graph, set())
            first = EdgeOp("remove", u, v)
        u2, v2 = self._existing_edge(graph, {(u, v)})
        second = EdgeOp("reweight", u2, v2, topics=self._topics(graph, True))
        return GraphDelta((first, second))

    def warm(self, graph):
        from repro import EdgeOp, GraphDelta

        ops, taken = [], set()
        for _ in range(2):
            u, v = self._existing_edge(graph, taken, off_campaign=True)
            ops.append(EdgeOp("reweight", u, v, topics=self._topics(graph, False)))
            taken.add((u, v))
        return GraphDelta(tuple(ops))


def run(ctx) -> dict:
    import repro

    run = ctx.run
    tracer = ctx.tracer
    tracer.enabled, tracer.op = ctx.trace, "setup"
    counter = [0]
    setup, (session, campaign) = median_setup(
        lambda state: _setup(state, ctx, counter), ctx.setup_repeats
    )
    tracer.enabled = False
    deltas = DeltaSource(ctx.seed, campaign)
    store = session.mrr.store

    # warm-up op, excluded from timing
    session.update(deltas.cold(session.graph), method="celf-mrr")

    scored_after = 2 if ctx.smoke else SCORED_AFTER
    scored = None  # (graph, plan) after `scored_after` cold ops
    cold_done = 0
    traced_ops, inc = [], []
    gather0 = store.stats()
    run.start_clock()
    i = 0
    while run.more(scored is None):
        traced = ctx.trace and i % 2 == 1
        tracer.op = f"op{i}"
        if traced:
            traced_ops.append(tracer.op)
        kind = "warm" if i % WARM_EVERY == WARM_EVERY - 1 else "cold"
        delta = (deltas.warm if kind == "warm" else deltas.cold)(session.graph)
        tracer.enabled = traced
        ok, update = run.timed(
            kind, lambda: session.update(delta, method="celf-mrr"),
            traced=traced,
        )
        tracer.enabled = False
        i += 1
        if not ok:
            continue
        trace = update.trace
        run.check(
            trace.shards_kept + trace.shards_invalidated + trace.shards_appended
            == trace.shards_total,
            f"op {i - 1}: kept + invalidated + appended != total",
        )
        try:
            session.problem.validate_plan(update.plan)
            valid = True
        except repro.SolverError:
            valid = False
        run.check(valid, f"op {i - 1}: plan fails validate_plan")
        if kind == "warm":
            run.check(
                trace.shards_resampled == 0,
                f"warm op {i - 1}: resampled {trace.shards_resampled} shards",
            )
        else:
            cold_done += 1
            if cold_done == scored_after:
                scored = (session.graph, update.plan)
        if traced:
            inc.append(trace)
    gather1 = store.stats()
    peak_rss = vm_hwm_mb()  # before the checks below allocate

    # Outside timing: the updated lineage must equal a cold keyed
    # generate on the final graph, bit for bit.
    final = _new_session(
        session.graph, campaign, os.path.join(ctx.workdir, "final-cold")
    )
    final.sample_incremental(THETA)
    run.check(
        collection_digest(final.mrr) == collection_digest(session.mrr),
        "updated collection differs from a cold keyed generate",
    )
    au_eval, digest = float("nan"), None
    if run.check(scored is not None, "scored update did not finish in time"):
        graph, plan = scored
        digest = hashlib.sha256(
            f"{graph.fingerprint()} {plan.seed_lists()!r}".encode()
        ).hexdigest()
        evaluation = repro.MRRCollection.generate(
            graph, campaign, EVAL_THETA, seed=EVAL_SEED,
            runtime=repro.Runtime(workers=1, store="memory", artifacts="off"),
        )
        au_eval = evaluation.estimate(plan.seed_lists(), session.adoption)

    out = {
        "e2e": {
            **latency_metrics(run),
            **setup,
            "au_eval": au_eval,
            "peak_rss_mb": peak_rss,
        },
        "digest": digest,
    }
    if ctx.trace:
        n = max(1, len(inc))
        kept = sum(t.shards_kept for t in inc)
        total = sum(t.shards_total for t in inc)
        out["layers"] = layer_metrics(tracer, run, traced_ops, {
            "incremental.shards_kept": kept / n,
            "incremental.shards_resampled":
                sum(t.shards_resampled for t in inc) / n,
            "incremental.kept_fraction": kept / total if total else 0.0,
            "incremental.dirty_vertices":
                sum(t.dirty_vertices for t in inc) / n,
            # the store's segment-LRU counters over the whole window
            # (traced and untraced ops), per op
            "store.gather_hits": (
                gather1["index_cache_hits"] - gather0["index_cache_hits"]
            ) / max(1, len(run.ops)),
            "store.gather_misses": (
                gather1["index_cache_misses"] - gather0["index_cache_misses"]
            ) / max(1, len(run.ops)),
        })
    return out
