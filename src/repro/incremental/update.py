"""Delta-aware resampling and warm re-solve: the update engine.

Every ``Session.sample`` draws the optimisation collection on the one
coordinate-keyed stream of :mod:`repro.sampling.parallel` and pins an
:class:`IncrementalState` on the session; ``update_session`` then
carries the whole pipeline across a :class:`GraphDelta`:

1. **Dirty analysis** — the delta's per-piece dirty heads
   (:func:`~repro.incremental.delta.piece_dirty_heads`, computed
   against the *old* graph the shards were sampled from) are run
   through the store's per-shard touch summaries, marking exactly the
   (piece, block) shards whose RR sets may have visited a vertex whose
   in-edges changed.  A shard not marked is *guaranteed* to replay
   bit-identically on the new graph: RR expansion only ever examines
   in-edges of visited vertices, so an untouched frontier draws the
   same coins from the same keyed stream.
2. **Store surgery** — ``retarget`` (theta growth by append),
   ``invalidate_blocks`` (drop dirty shards), then a keyed fill of the
   holes; kept shards are never rewritten.  The result is bit-identical
   to a cold keyed generate on the new graph at the new theta — the
   contract every test in ``tests/test_incremental.py`` pins.
3. **Warm re-solve** — the previous run's marginal-gain record (plus
   the tracked staleness bound) primes ``celf-mrr``; previous plans
   prime ``local-search`` starts and ``bab``/``bab-p`` incumbents.

On an artifact-backed runtime the update is copy-on-write: the cached
shard directory is never mutated — kept shards are hard-linked into a
staging directory, the holes are filled there, and the result commits
under the *new* graph's content address (sound precisely because of
the kept-shard ≡ cold contract), so later cold opens of the updated
graph hit the cache.  Otherwise the update is in place, and a lineage
still at its ``sample`` directory name under a configured shard root
first moves to a private name: post-delta shards must never sit where
a cold ``sample`` of the original inputs would reopen them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.artifacts import piece_graphs_digest
from repro.exceptions import SolverError
from repro.incremental.delta import GraphDelta, apply_delta, piece_dirty_heads
from repro.incremental.warm import WarmGains, staleness_bound
from repro.runtime import resolve_runtime
from repro.sampling.mrr import (
    MRRCollection,
    generate_keyed,
    publish_collection,
    resolve_models,
    sample_key,
)
from repro.sampling.parallel import keyed_roots
from repro.sampling.store import ShardStore, store_fingerprint

__all__ = [
    "IncrementalState",
    "IncrementalTrace",
    "UpdateResult",
    "update_session",
]


@dataclass
class IncrementalState:
    """What a lineage pins beyond its collection.

    The rest is read off the session: block size and theta from
    ``session.mrr``, artifact hosting from the sample key
    (:func:`_hosted`), and the default re-solve method from the
    session's last solve.
    """

    #: Root entropy of the coordinate-keyed streams.
    entropy: int
    #: The seed the lineage was sampled under — updates must resolve
    #: their runtime with the same seed or the artifact keys drift.
    seed: object = None
    #: Previous solve's marginal-gain record (celf-mrr warm start).
    warm: WarmGains | None = None
    #: Previous solve's plan (local-search start / BAB incumbent).
    plan: object | None = None
    #: Accumulated staleness bound since the warm record was written.
    staleness: float = 0.0


@dataclass(frozen=True)
class IncrementalTrace:
    """What one ``update`` reused, dropped, and rebuilt."""

    theta_old: int
    theta_new: int
    #: Shard counts in the *new* (piece x block) geometry.
    shards_total: int
    #: Shards that survived the update untouched.
    shards_kept: int
    #: Delta-dirty shards dropped for regeneration.
    shards_invalidated: int
    #: Net-new shards from theta growth.
    shards_appended: int
    #: Shards actually (re)sampled (invalidated + appended + a regrown
    #: partial tail block, minus any overlap).
    shards_resampled: int
    #: Distinct dirty-head vertices across pieces.
    dirty_vertices: int
    #: Tracked AU-estimate staleness bound of this update.
    staleness: float
    #: Pipeline (stage, action) pairs this update recorded.
    stages: tuple[tuple[str, str], ...] = field(default=())

    @property
    def kept_fraction(self) -> float:
        return self.shards_kept / self.shards_total if self.shards_total else 0.0


@dataclass(frozen=True)
class UpdateResult:
    """A re-solved session result plus its incremental accounting."""

    result: object  # repro.api.SessionResult
    trace: IncrementalTrace

    @property
    def plan(self):
        return self.result.plan

    @property
    def estimate(self) -> float:
        return self.result.estimate

    @property
    def seed_sets(self):
        return self.result.seed_sets


def _leave_sample_name(session, seed) -> None:
    """Move a lineage still at its ``sample`` directory to a private one.

    ``Session.sample`` names an integer-seeded collection's directory
    under a configured shard root after its inputs, so a repeated cold
    ``sample`` reloads it; after an in-place update that directory
    would hold post-delta shards under the pre-delta name.  One
    ``os.rename`` moves it (the store keeps its RAM state and open
    handles; only ``shard_dir`` changes).  Artifact-hosted, in-RAM,
    private-temp and already-moved lineages stay where they are.
    """
    from repro.api import _private_subdir

    store = session.mrr.store
    if not isinstance(store, ShardStore):
        return
    theta = store.theta
    if store.shard_dir != session._role_runtime("opt", theta, seed).shard_dir:
        return
    private = os.path.join(
        os.path.dirname(store.shard_dir), _private_subdir("opt", theta)
    )
    os.rename(store.shard_dir, private)
    store.shard_dir = private


def _hosted(collection, key) -> bool:
    """Whether ``collection`` may live inside the artifact store.

    A cached collection on a shard store is (almost always) the
    artifact's own directory, which must never be mutated; treating the
    rare private re-stream of an arrays payload as hosted too only
    costs one copy-on-write.
    """
    return key is not None and isinstance(collection.store, ShardStore)


def _clone_shard_dir(src: str, dst: str) -> None:
    """Hard-link a shard directory's files into a staging directory.

    Every ShardStore write is rename-atomic (tmp + ``os.replace``) and
    deletions are plain unlinks, so hard links are safe: surgery on the
    clone can never reach back into the source.  Falls back to copies
    on filesystems without link support.  Scratch entries (lease dirs,
    torn ``.tmp`` files) are skipped.
    """
    import shutil

    os.makedirs(dst, exist_ok=True)
    for name in os.listdir(src):
        if name.endswith(".tmp"):
            continue
        path = os.path.join(src, name)
        if not os.path.isfile(path):
            continue
        target = os.path.join(dst, name)
        try:
            os.link(path, target)
        except OSError:
            shutil.copy2(path, target)


#: Warm-start option injection per solver method: how a previous
#: lineage state primes the re-solve.
_WARM_OPTION = {
    "celf-mrr": "warm",
    "local-search": "start",
    "bab": "incumbent",
    "bab-p": "incumbent",
}


def update_session(
    session,
    delta: GraphDelta,
    *,
    theta: int | None = None,
    method: str | None = None,
    evaluate: bool = False,
    eval_theta: int | None = None,
    **options,
) -> UpdateResult:
    """Absorb ``delta`` into the session and re-solve warm.

    The end-to-end incremental pass: dirty-shard analysis against the
    old graph, store surgery (append + invalidate + keyed refill),
    problem rebuild on the new graph, warm-started solve.  Returns the
    :class:`UpdateResult` carrying both the usual ``SessionResult`` and
    the :class:`IncrementalTrace` accounting of what was reused.

    ``theta`` may grow the collection (never shrink it); ``method``
    defaults to the session's last solve method, then ``celf-mrr``.
    ``evaluate=True`` scores the plan on a fresh independent collection
    of the *new* graph.
    """
    state: IncrementalState | None = session._inc
    if state is None:
        raise SolverError(
            "no incremental lineage — call session.sample(theta) (or "
            "solve/run with theta=) before session.update(delta=...)"
        )
    if not isinstance(delta, GraphDelta):
        delta = GraphDelta.from_payload(delta)
    store = session.mrr.store
    block_size = store.block_size
    hosted = _hosted(session.mrr, session._mrr_key)
    theta_old = session.mrr.theta
    theta_new = int(theta) if theta is not None else theta_old
    if theta_new < theta_old:
        raise SolverError(
            f"an update cannot shrink theta ({theta_old} -> {theta_new})"
        )

    session._trace.clear()
    session._trace.record("plan", "run", "update")
    start = time.perf_counter()

    old_graph = session.graph
    campaign = session.campaign
    num_pieces = session.num_pieces
    dirty = piece_dirty_heads(old_graph, campaign, delta)
    dirty_vertices = int(
        np.unique(np.concatenate([d for d in dirty] or [np.zeros(0, np.int64)])).size
    )
    new_graph = apply_delta(old_graph, delta)
    # before the graph swap changes the inputs digest of the name
    _leave_sample_name(session, state.seed)

    old_blocks = store.num_blocks
    pairs = set()
    for j in range(num_pieces):
        if dirty[j].size:
            pairs.update((j, b) for b in store.blocks_touching(j, dirty[j]))

    # -- swap the problem onto the new graph ---------------------------
    from repro.core.problem import OIPAProblem

    session.graph = new_graph
    session.problem = OIPAProblem(
        new_graph, campaign, session.adoption, session.k,
        session.problem.pool,
    )
    session._piece_graphs = None
    session._flat_graph = None
    session._mrr_eval = None  # sampled on the old graph
    session._eval_seed = None

    rt = resolve_runtime(session.runtime, seed=state.seed)
    piece_graphs = session.piece_graphs  # re-projected on the new graph
    models = resolve_models(rt.model, num_pieces)
    new_fp = new_graph.fingerprint()
    pieces_fp = piece_graphs_digest(piece_graphs)
    roots = keyed_roots(state.entropy, new_graph.n, theta_new, block_size)
    num_blocks_new = -(-theta_new // block_size)
    total_new = num_pieces * num_blocks_new
    appended = num_pieces * (num_blocks_new - old_blocks)

    art_store = rt.artifact_store()
    key = None
    flight = None
    collection = None
    # Nothing dropped or resampled unless the fill below runs.
    kept, resampled, invalidated = total_new, 0, 0
    try:
        if hosted:
            # The live directory is artifact-owned: never mutate it.
            if art_store is None or not art_store.hosts_directories:
                raise SolverError(
                    "the incremental collection is artifact-hosted but "
                    "the session runtime no longer has a directory-"
                    "hosting artifact store — resample with "
                    "sample() before updating"
                )
            key = sample_key(
                rt, new_fp, campaign, theta_new, pieces_fp, block_size
            )
            hit = art_store.get(key)
            if hit is not None:
                # The whole post-delta collection is already cached.
                store.close()
                collection, events, _ = MRRCollection._from_artifact(
                    hit, rt, rt.store_for_generate()
                )
            else:
                flight = art_store.producer_flight(key)
                flight.claim()  # losers produce privately; commit is benign
                staged = os.path.join(art_store.stage_dir(key), "shards")
                _clone_shard_dir(store.shard_dir, staged)
                old_fingerprint = store.fingerprint
                store.close()
                work = ShardStore(
                    staged, max_resident_bytes=rt.max_resident_bytes
                )
                work.begin(
                    new_graph.n, num_pieces, theta_old, block_size,
                    fingerprint=old_fingerprint,
                )
                store = work
        if collection is None:
            store.retarget(
                theta_new,
                fingerprint=store_fingerprint(
                    new_graph.n, roots, models, rt.backend,
                    graph=new_fp, pieces=pieces_fp, entropy=state.entropy,
                ),
            )
            store.invalidate_blocks(pairs)
            invalidated = len(pairs)
            kept = sum(
                1
                for j in range(num_pieces)
                for b in range(num_blocks_new)
                if store.has_block(j, b)
            )
            resampled = total_new - kept
            collection = generate_keyed(
                new_graph.n,
                piece_graphs,
                models,
                roots,
                state.entropy,
                backend=rt.backend,
                workers=rt.pool_width or 1,
                executor=rt.executor,
                store=store,
                block_size=block_size,
                graph_fingerprint=new_fp,
                pieces_fingerprint=pieces_fp,
            )
            if hosted:
                publish_collection(art_store, key, collection)
            from repro.pipeline import TraceEvent

            events = [
                TraceEvent(
                    "sample",
                    "run",
                    {
                        "kept": int(kept),
                        "invalidated": invalidated,
                        "appended": int(appended),
                        "resampled": int(resampled),
                        "dirty_vertices": dirty_vertices,
                    },
                ),
                ("index", "run"),
            ]
    finally:
        if flight is not None:
            flight.release()
    session._record_events(events, "opt", time.perf_counter() - start)
    session._mrr = collection
    session._mrr_key = key

    # -- staleness accounting ------------------------------------------
    changed_rows = 0
    for j, b in pairs:
        lo = b * block_size
        changed_rows += max(0, min(lo + block_size, theta_old) - lo)
    bound = staleness_bound(
        new_graph.n, theta_old, theta_new,
        changed_rows, theta_new - theta_old,
    )
    state.staleness += bound

    # -- warm re-solve --------------------------------------------------
    chosen = method or session._last_solve or "celf-mrr"
    warm_slot = _WARM_OPTION.get(chosen)
    if warm_slot == "warm" and state.warm is not None:
        options.setdefault("warm", state.warm)
        # Twice the tracked bound: per-move gain drift is at most the
        # estimate drift from either side of the move's samples.
        options.setdefault("margin", 2.0 * state.staleness)
    elif warm_slot in ("start", "incumbent") and state.plan is not None:
        options.setdefault(warm_slot, state.plan)
    result = session.solve(
        chosen, evaluate=evaluate, eval_theta=eval_theta, **options
    )

    record = getattr(session, "_celf_gains", None)
    if chosen == "celf-mrr" and record is not None:
        state.warm = record
        state.staleness = 0.0  # the record is fresh on this collection
    state.plan = result.plan

    trace = IncrementalTrace(
        theta_old=theta_old,
        theta_new=theta_new,
        shards_total=total_new,
        shards_kept=int(kept),
        shards_invalidated=invalidated,
        shards_appended=int(appended),
        shards_resampled=int(resampled),
        dirty_vertices=dirty_vertices,
        staleness=float(bound),
        stages=tuple(
            (event.stage, event.action) for event in session._trace.events
        ),
    )
    return UpdateResult(result=result, trace=trace)
