"""Exception hierarchy for the ``repro`` library.

Every error deliberately raised by this package derives from
:class:`ReproError`, so callers can catch library failures without
masking genuine programming errors (``TypeError``, ``KeyError``, ...).

The hierarchy mirrors the package layout: graph construction problems,
model/parameter validation problems, sampling problems, and solver
problems each get their own subclass so tests and downstream users can
assert on precise failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DeltaError",
    "GraphError",
    "GraphFormatError",
    "TopicError",
    "ParameterError",
    "ConfigError",
    "SamplingError",
    "StoreError",
    "StoreBusyError",
    "SolverError",
    "BudgetExhaustedError",
    "DatasetError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A graph is structurally invalid for the requested operation."""


class GraphFormatError(GraphError):
    """Raised when parsing or serialising a graph fails.

    Carries the offending ``line`` number when raised by a parser so
    error messages can point at the exact input record.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DeltaError(GraphError):
    """A graph delta is malformed or inconsistent with its base graph.

    Raised by :mod:`repro.incremental` when an edge operation targets a
    vertex outside the graph, adds an edge that already exists, or
    removes/reweights one that does not.
    """


class TopicError(ReproError):
    """A topic vector or topic model input is invalid."""


class ParameterError(ReproError):
    """A model or algorithm parameter is outside its legal domain."""


class ConfigError(ParameterError):
    """An environment/configuration knob holds an illegal value.

    Raised when ``REPRO_BACKEND`` / ``REPRO_WORKERS`` / ``REPRO_STORE``
    (or their :class:`~repro.runtime.Runtime` counterparts) cannot be
    parsed — at the entry point that resolves the knob, with a message
    naming the variable and its legal values, instead of surfacing
    later as an obscure failure inside pool or kernel setup.
    Subclasses :class:`ParameterError` so existing
    ``except ParameterError`` handling keeps working.
    """


class SamplingError(ReproError):
    """RR/MRR sampling was asked to do something impossible."""


class StoreError(SamplingError):
    """A sample store is missing, inconsistent, or corrupted.

    Raised by the pluggable sample-store layer
    (:mod:`repro.sampling.store`) when a shard directory's manifest does
    not match the requested collection, a shard file is missing or
    unreadable, or a store is used before it is finalized.
    """


class StoreBusyError(StoreError):
    """A store is incomplete but *retryable* — not corrupted.

    Raised when a shard directory carries a matching manifest but no
    finalize marker yet: another worker is (or was) still writing it.
    Unlike its parent :class:`StoreError` — which signals a mismatched
    or genuinely corrupted store that must be removed — a busy store
    can be retried, resumed, or simply regenerated elsewhere; the
    artifact-cache hit path treats it as a miss instead of failing the
    request.
    """


class SolverError(ReproError):
    """An OIPA solver received an infeasible or inconsistent instance."""


class BudgetExhaustedError(SolverError):
    """A solver ran out of its node/evaluation budget before converging.

    The partially optimised result is attached so callers can decide
    whether the incumbent plan is still usable.
    """

    def __init__(self, message: str, incumbent: object | None = None) -> None:
        super().__init__(message)
        self.incumbent = incumbent


class DatasetError(ReproError):
    """A dataset pipeline was misconfigured."""


class ExperimentError(ReproError):
    """An experiment sweep was misconfigured."""
