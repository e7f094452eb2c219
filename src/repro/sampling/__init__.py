"""Reverse-reachable sampling: RR sets, MRR collections, theta bounds."""

from repro.sampling.rr import ReverseReachableSampler
from repro.sampling.batch import (
    BACKENDS,
    DEFAULT_BACKEND,
    DEFAULT_MODEL,
    MODELS,
    BatchLTSampler,
    BatchRRSampler,
    adaptive_block_size,
    check_backend,
    check_model,
    simulate_cascade_batch,
    simulate_lt_cascade_batch,
)
from repro.sampling.mrr import MRRCollection, resolve_models
from repro.sampling.parallel import (
    EXECUTORS,
    make_pool,
    parallel_map,
    resolve_workers,
    stream_piece_blocks,
    task_block_size,
)
from repro.sampling.store import (
    DEFAULT_STORE,
    STORES,
    MemoryStore,
    SampleStore,
    ShardStore,
    check_store,
    resolve_store,
    store_fingerprint,
)
from repro.sampling.adaptive import generate_adaptive, theta_for_error_target
from repro.sampling.theta import (
    estimation_error,
    hoeffding_theta,
    relative_error_theta,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_STORE",
    "EXECUTORS",
    "MODELS",
    "DEFAULT_MODEL",
    "STORES",
    "BatchLTSampler",
    "BatchRRSampler",
    "MemoryStore",
    "ReverseReachableSampler",
    "MRRCollection",
    "SampleStore",
    "ShardStore",
    "adaptive_block_size",
    "check_backend",
    "check_model",
    "check_store",
    "make_pool",
    "parallel_map",
    "resolve_models",
    "resolve_store",
    "resolve_workers",
    "simulate_cascade_batch",
    "simulate_lt_cascade_batch",
    "store_fingerprint",
    "stream_piece_blocks",
    "task_block_size",
    "hoeffding_theta",
    "estimation_error",
    "relative_error_theta",
    "generate_adaptive",
    "theta_for_error_target",
]
