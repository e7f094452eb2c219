"""Parallel sampling runtime: the one keyed stream of every random draw.

MRR generation is embarrassingly parallel twice over: each piece's RR
sets are independent given the shared roots, and within a piece every
block of roots is independent too.  This module turns that structure
into an explicit task decomposition — one task per (piece, root block)
— executed inline or on a thread pool, a piece's tasks batched into
groups whose BFS levels the batch engines advance together, with three
contracts that make the parallelism invisible to everything downstream:

* **Coordinate-keyed streams.**  One integer *entropy* per collection
  (:func:`resolve_entropy`: the seed itself, or one draw from the
  caller's generator) keys every draw by its coordinates alone:

  - block ``b``'s roots come from
    ``SeedSequence((entropy, KEYED_ROOT_TAG, b))`` — always a full
    ``block_size`` draw, truncated to the block's span, so a partial
    tail block that later grows redraws a *prefix-consistent* extension;
  - task ``(piece j, block b)`` samples with
    ``SeedSequence((entropy, KEYED_TASK_TAG, j, b))``;
  - Monte-Carlo forward simulation (:mod:`repro.diffusion.simulate`)
    splits ``rounds`` into fixed :func:`round_chunks` and draws chunk
    ``c`` from ``SeedSequence((entropy, KEYED_ROUND_TAG, c))``;
  - the ``ris``/``im`` solvers of :mod:`repro.api` key their
    flattened-graph collection off
    ``SeedSequence((entropy, KEYED_FLAT_TAG))``
    (:func:`keyed_flat_entropy`), so it never redraws the roots of the
    campaign collection sampled with the same seed.

  All four are pure functions of ``(entropy, coordinates)``, never of
  the worker count, the executor, the store or theta, so every topology
  (inline, a thread pool, or the spawned workers of
  :mod:`repro.sampling.dist`) produces the same bytes, a resumed store
  samples only its missing blocks, raising theta *appends* blocks
  bit-identical to a cold draw at the larger theta, and a
  delta-invalidated shard regenerates its exact stream in isolation
  (:mod:`repro.incremental`).
* **Deterministic merge.**  Results are committed in task order
  regardless of completion order.
* **Clean failure.**  A worker exception cancels the remaining tasks,
  shuts the pool down, and re-raises — no orphaned threads or hung
  futures.

``workers=None`` / ``0`` / ``"serial"`` (and ``1``) run the tasks
inline; the ``REPRO_WORKERS`` environment variable overrides the
``None`` default (``"auto"``, an integer, or ``"serial"``) so CI can
run the whole suite under a pool.  Every in-process pool is a
:class:`~concurrent.futures.ThreadPoolExecutor`; the only multi-process
topology is ``executor="spawned"`` (:mod:`repro.sampling.dist`), whose
workers load the job once instead of receiving it with every task.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import ConfigError, ParameterError, SamplingError
from repro.runtime import DEFAULT_EXECUTOR, DEFAULT_WORKERS, EXECUTORS
from repro.utils.rng import as_generator

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "make_pool",
    "parallel_map",
    "keyed_block_roots",
    "keyed_flat_entropy",
    "keyed_roots",
    "keyed_task_seed",
    "resolve_entropy",
    "resolve_workers",
    "round_chunks",
    "stream_piece_blocks",
    "task_block_size",
]

# EXECUTORS / DEFAULT_EXECUTOR and the REPRO_WORKERS-aware
# DEFAULT_WORKERS are owned by repro.runtime (the single env-resolution
# site) and re-exported here; this module's globals are the layer
# resolve_workers / check_executor consult, keeping the historical
# monkeypatch points.

#: Root blocks per piece aim for this many tasks so pools stay busy
#: without drowning in per-task overhead; blocks never shrink below
#: ``_MIN_TASK_BLOCK`` roots.  Both constants are worker-independent on
#: purpose: the task decomposition (and with it every child rng stream)
#: must not change when the pool size does.
_TARGET_BLOCKS = 32
_MIN_TASK_BLOCK = 256

#: Roots per sampling group: a piece's pending tasks are batched, in task
#: order, into groups of at most this many roots (a larger task runs
#: alone), and the batch engines advance a group's BFS levels together
#: (:meth:`repro.sampling.batch.BatchRRSampler.sample_group`).  Grouping
#: changes no byte: every task keeps its own stream and block partition.
_GROUP_ROOTS = 1 << 15

#: Rounds per Monte-Carlo task (same worker-independence argument).
_ROUND_CHUNK = 8

#: SeedSequence tags separating the root draw, the task draws, the
#: Monte-Carlo round chunks and the flattened-graph baseline draw.
KEYED_ROOT_TAG = 0x726F6F74  # "root"
KEYED_TASK_TAG = 0x7461736B  # "task"
KEYED_ROUND_TAG = 0x726F6E64  # "rond"
KEYED_FLAT_TAG = 0x666C6174  # "flat"


def resolve_workers(workers) -> int | None:
    """Normalise a ``workers`` knob into a pool size.

    Returns ``None`` for inline execution (the default when neither the
    argument nor ``REPRO_WORKERS`` asks for a pool), or a positive
    integer pool size.  ``"auto"`` sizes the pool to the machine;
    ``0`` / ``"serial"`` force inline execution regardless of the
    environment default.  Inline and pooled runs draw identical bytes.
    """
    if workers is None:
        workers = DEFAULT_WORKERS
    if workers is None:
        return None
    if workers == "serial":
        return None
    if workers == "auto":
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be None, 'auto', 'serial', or an int, "
            f"got {workers!r}"
        )
    if workers == 0:
        return None
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return workers


def check_executor(executor: str | None) -> str:
    """Normalise an executor choice; ``None`` means the default."""
    if executor is None:
        executor = DEFAULT_EXECUTOR
    if executor not in EXECUTORS:
        raise ConfigError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    return executor


def task_block_size(theta: int) -> int:
    """Roots per (piece, block) task — a function of theta alone.

    Never of the worker count: the decomposition pins the child rng
    streams, so it must be identical for every pool size.
    """
    if theta <= 0:
        raise ParameterError(f"theta must be positive, got {theta}")
    return max(_MIN_TASK_BLOCK, -(-theta // _TARGET_BLOCKS))


def round_chunks(rounds: int) -> list[tuple[int, int]]:
    """Split ``rounds`` Monte-Carlo trials into fixed-size task ranges."""
    if rounds <= 0:
        raise ParameterError(f"rounds must be positive, got {rounds}")
    return [
        (start, min(start + _ROUND_CHUNK, rounds))
        for start in range(0, rounds, _ROUND_CHUNK)
    ]


def make_pool(workers):
    """A thread pool sized for ``workers``, or ``None`` when inline is right.

    ``None`` means inline: it does not fall back to ``REPRO_WORKERS``.

    For callers that issue many ``parallel_map`` rounds (e.g. one per
    CELF marginal-spread evaluation): build the pool once, pass it via
    ``parallel_map(..., pool=...)``, and shut it down in a ``finally``
    — instead of paying pool construction per round.

    Every in-process fan-out runs on threads, whatever the runtime's
    ``executor``: only disk-store *generation* has the shard-dir
    rendezvous the independent-worker runtime needs
    (:mod:`repro.sampling.dist`), so ``executor="spawned"`` elsewhere
    runs here, on the bit-identical thread pool.
    """
    width = None if workers is None else resolve_workers(workers)
    if width is None or width <= 1:
        return None
    return ThreadPoolExecutor(max_workers=width)


def parallel_map(fn, items, workers: int, *, pool=None):
    """Apply ``fn`` over ``items`` on a pool; results in item order.

    ``workers <= 1`` (or a single item) runs inline — same results, no
    pool.  On a worker exception the remaining futures are cancelled
    and the exception re-raised, so a failing task can never leave the
    pool hanging; a pool constructed here is also shut down.  Passing a
    pre-built ``pool`` (see :func:`make_pool`) reuses it across calls —
    ownership, and shutdown, stay with the caller.
    """
    items = list(items)
    if pool is not None:
        return _drain(pool, fn, items)
    width = min(int(workers), len(items))
    if width <= 1:
        return [fn(item) for item in items]
    with make_pool(width) as owned:
        return _drain(owned, fn, items)


def _drain(pool, fn, items):
    """Submit ``items`` and collect results in order, cancel-on-error."""
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        raise


def _task_sampler(piece_graph, model: str, backend, *, check_weights=True):
    """One task's sampler; cheap, as the stamp scratch is per thread.

    ``check_weights=False`` skips the O(m) LT feasibility check, for
    tasks whose piece graph the generation already validated.  Imports
    are deferred to dodge the sampling <-> diffusion cycle.
    """
    from repro.diffusion.threshold import LinearThresholdSampler
    from repro.sampling.rr import ReverseReachableSampler

    if model == "lt":
        return LinearThresholdSampler(
            piece_graph, backend=backend, check_weights=check_weights
        )
    return ReverseReachableSampler(piece_graph, backend=backend)


def _sample_group(args):
    """One piece's group of tasks, each sampled with its own stream.

    ``args`` is ``(piece_graph, model, backend, tasks)`` with ``tasks`` a
    list of ``(roots, seed)``; returns one ``(ptr, nodes)`` per task, in
    order.  The piece graph was validated once per generation (LT
    feasibility: :func:`stream_piece_blocks`, or the distributed
    coordinator), not once per group.
    """
    piece_graph, model, backend, tasks = args
    sampler = _task_sampler(piece_graph, model, backend, check_weights=False)
    return sampler.sample_group(
        [(roots, as_generator(seed)) for roots, seed in tasks]
    )


def resolve_entropy(seed) -> int:
    """A collection's stream entropy: the seed itself when it can key.

    A non-negative integer seed is used as-is (so equal seeds give
    equal collections); anything else — ``None``, a ``Generator``, a
    ``SeedSequence`` — contributes exactly one integer draw.
    """
    if isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0:
        return int(seed)
    return int(as_generator(seed).integers(0, 2**63 - 1))


def keyed_flat_entropy(seed) -> int:
    """The entropy of the flattened-graph RR draw for ``seed``.

    The IM/RIS baselines sample the topic-blind graph with the seed
    that also keys the campaign's optimisation collection; deriving
    their entropy under ``KEYED_FLAT_TAG`` gives that draw its own
    roots instead of the collection's.
    """
    seq = np.random.SeedSequence((resolve_entropy(seed), KEYED_FLAT_TAG))
    return int(seq.generate_state(1, np.uint64)[0])


def keyed_block_roots(
    entropy: int, n: int, block_size: int, block: int
) -> np.ndarray:
    """The full ``block_size`` root draw of block ``block``.

    Callers slice to the block's span; drawing the full block first
    keeps a tail block's roots a prefix of the roots it has after theta
    grows past it.
    """
    seq = np.random.SeedSequence((int(entropy), KEYED_ROOT_TAG, int(block)))
    rng = np.random.Generator(np.random.PCG64(seq))
    return rng.integers(0, int(n), size=int(block_size))


def keyed_roots(
    entropy: int, n: int, theta: int, block_size: int
) -> np.ndarray:
    """The keyed root draw for ``theta`` samples, block by block."""
    theta = int(theta)
    block_size = int(block_size)
    if theta < 1 or block_size < 1:
        raise SamplingError(
            f"theta and block_size must be positive, got theta={theta}, "
            f"block_size={block_size}"
        )
    parts = []
    for block, lo in enumerate(range(0, theta, block_size)):
        span = min(lo + block_size, theta) - lo
        parts.append(keyed_block_roots(entropy, n, block_size, block)[:span])
    return np.concatenate(parts)


def keyed_task_seed(
    entropy: int, piece: int, block: int
) -> np.random.SeedSequence:
    """The sampling stream of task ``(piece, block)``."""
    return np.random.SeedSequence(
        (int(entropy), KEYED_TASK_TAG, int(piece), int(block))
    )


def stream_piece_blocks(
    piece_graphs,
    models,
    roots: np.ndarray,
    entropy: int,
    *,
    backend: str | None,
    workers: int,
    block_size: int | None = None,
    skip=None,
):
    """Yield every (piece, root block) result in task order, as sampled.

    The streaming face of the runtime — and every store fill's
    contract: tuples ``(piece, block_index, ptr, nodes)`` are yielded
    in task order as their group finishes.  The task list is
    piece-major and each task samples from :func:`keyed_task_seed`;
    ``block_size`` defaults to ``task_block_size(theta)`` (an
    incremental lineage pins the value of its first generation
    instead).  A piece's pending tasks run in groups of at most
    ``_GROUP_ROOTS`` roots, with a bounded in-flight window (2x
    ``workers`` groups), so peak RAM is O(workers x group) block
    results, however large theta is.

    ``skip`` is an optional ``(piece, block_index) -> bool`` predicate:
    skipped tasks are neither sampled nor yielded, and — coordinate
    keying — consume nothing, which is how a resumed or updated store
    samples only its missing blocks and lands on the same collection.

    ``workers > 1`` runs the groups on a thread pool built here and
    shut down on exit, pending futures cancelled.
    """
    if len(piece_graphs) != len(models):
        raise SamplingError(
            f"{len(models)} models for {len(piece_graphs)} piece graphs"
        )
    from repro.sampling.batch import check_lt_feasible

    theta = int(roots.size)
    block = task_block_size(theta) if block_size is None else int(block_size)
    groups = []
    for j, (piece_graph, model) in enumerate(zip(piece_graphs, models)):
        checked = model != "lt"
        coords, tasks, size = [], [], 0
        for b, start in enumerate(range(0, theta, block)):
            if skip is not None and skip(j, b):
                continue
            if not checked:
                # once per piece per generation, not once per task
                check_lt_feasible(piece_graph)
                checked = True
            span = roots[start : start + block]
            if tasks and size + span.size > _GROUP_ROOTS:
                groups.append((j, coords, (piece_graph, model, backend, tasks)))
                coords, tasks, size = [], [], 0
            coords.append(b)
            tasks.append((span, keyed_task_seed(entropy, j, b)))
            size += span.size
        if tasks:
            groups.append((j, coords, (piece_graph, model, backend, tasks)))
    width = min(int(workers), len(groups))
    if width <= 1:
        for j, coords, args in groups:
            for b, (ptr, nodes) in zip(coords, _sample_group(args)):
                yield j, b, ptr, nodes
        return
    pool = make_pool(width)
    pending: deque = deque()
    iterator = iter(groups)
    try:
        while True:
            while len(pending) < 2 * width:
                item = next(iterator, None)
                if item is None:
                    break
                j, coords, args = item
                pending.append((j, coords, pool.submit(_sample_group, args)))
            if not pending:
                break
            j, coords, future = pending.popleft()
            for b, (ptr, nodes) in zip(coords, future.result()):
                yield j, b, ptr, nodes
    finally:
        for _, _, future in pending:
            future.cancel()
        pool.shutdown(wait=True, cancel_futures=True)
