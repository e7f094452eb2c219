"""Incremental campaigns on evolving graphs.

Production graphs change under traffic; this subsystem makes the
``Session`` pipeline delta-aware instead of resampling from scratch:

- :class:`GraphDelta` / :func:`apply_delta` — a value describing edge
  adds/removes/reweights, applied to a :class:`~repro.graph.digraph.TopicGraph`
  to produce a new fingerprinted graph;
- coordinate-keyed sampling (:mod:`repro.sampling.parallel`, the one
  stream every collection draws) — every (piece, block) shard draws
  from a SeedSequence keyed by its coordinates, so raising theta
  *appends* shards bit-identical to a cold generate at the larger
  theta, and delta-invalidated shards regenerate independently;
- warm-started re-solve (:mod:`repro.incremental.warm`) — CELF seeded
  from the previous run's marginal gains with a tracked staleness
  bound, plus incumbent-primed branch and bound;
- :meth:`Session.update(delta=...) <repro.api.Session.update>` — the
  end-to-end surface, returning a ``SessionResult`` plus an
  :class:`IncrementalTrace` of shards kept/invalidated/appended and
  pipeline stages skipped.

See INCREMENTAL.md for the delta model, the invalidation contract, and
the staleness bound.
"""

from repro.incremental.delta import (
    EdgeOp,
    GraphDelta,
    apply_delta,
    piece_dirty_heads,
)
from repro.incremental.update import (
    IncrementalTrace,
    UpdateResult,
    sample_incremental,
    update_session,
)

__all__ = [
    "EdgeOp",
    "GraphDelta",
    "IncrementalTrace",
    "UpdateResult",
    "apply_delta",
    "piece_dirty_heads",
    "sample_incremental",
    "update_session",
]
