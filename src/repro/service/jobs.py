"""Job vocabulary of the influence service: specs, records, the spool.

A *job* is one campaign optimisation request — "on this dataset, with
this campaign shape, run this solver at this theta" — expressed as a
plain-JSON :class:`JobSpec` so it can travel over HTTP, be persisted,
and be fingerprinted for the single-flight/cache machinery.  A
:class:`JobRecord` is the service's view of one submitted job: its
state machine (``queued → running → done|failed|cancelled``), wall
clock timestamps, the per-stage pipeline trace, and the result payload.

:class:`JobStore` is the crash-safe spool: every record mutation is
persisted as one atomically-replaced JSON file under
``spool_dir/jobs/``, so terminal states survive a service restart.
Jobs that were queued or running when the process died are marked
``failed`` on recovery with an explanatory error — resubmitting them is
cheap because every completed pipeline stage is served from the shared
artifact cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field, replace

from repro.datasets.registry import DATASET_SPECS
from repro.exceptions import ConfigError
from repro.runtime import MODELS

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "new_job_id",
]

#: The job state machine, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave (and the ones that survive restarts).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Spec fields a client may not smuggle in through ``options``.
_RESERVED_OPTIONS = (
    "method", "theta", "seed", "evaluate", "eval_theta", "runtime",
)


def new_job_id() -> str:
    """A fresh, URL-safe job identifier."""
    return f"job-{uuid.uuid4().hex[:12]}"


def _check_positive_int(name: str, value, *, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def _check_model(model):
    if model is None or model in MODELS:
        return model
    if isinstance(model, str):
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    try:
        models = tuple(model)
    except TypeError:
        raise ConfigError(
            f"model must be one of {MODELS} or a list of them, got {model!r}"
        ) from None
    for m in models:
        if m not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {m!r}")
    return list(models)


@dataclass(frozen=True)
class JobSpec:
    """One campaign optimisation request, as plain JSON-able data.

    ``dataset``/``scale``/``pieces``/``seed`` describe the problem the
    same way :meth:`repro.api.Session.from_dataset` does; ``method`` /
    ``theta`` / ``options`` describe the solver invocation; ``seed``
    defaults to ``0`` so jobs are reproducible — and therefore served
    from the shared artifact cache — unless a client explicitly asks
    for an unseeded draw with ``"seed": null``.
    """

    dataset: str
    theta: int
    method: str = "bab-p"
    pieces: int = 3
    k: int = 10
    seed: int | None = 0
    scale: float | None = None
    pool_fraction: float = 0.1
    model: object = None
    evaluate: bool = True
    eval_theta: int | None = None
    options: dict = field(default_factory=dict)
    #: Id of the job this spec is an incremental update of (set by
    #: ``POST /v1/jobs/{id}/update``; always together with ``delta``).
    update_of: str | None = None
    #: Graph-delta payload (``GraphDelta.to_payload`` shape) applied by
    #: the incremental execution path.  The spec stays self-contained:
    #: chained updates compose their deltas against the base dataset.
    delta: dict | None = None

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_SPECS:
            raise ConfigError(
                f"unknown dataset {self.dataset!r}; available: "
                f"{sorted(DATASET_SPECS)}"
            )
        # method existence is checked against the live solver registry
        # at submit time (register_solver may add names after import)
        if not isinstance(self.method, str) or not self.method.strip():
            raise ConfigError(f"method must be a solver name, got "
                              f"{self.method!r}")
        _check_positive_int("theta", self.theta)
        _check_positive_int("pieces", self.pieces)
        _check_positive_int("k", self.k)
        _check_positive_int("eval_theta", self.eval_theta, optional=True)
        if self.seed is not None and (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or self.seed < 0
        ):
            raise ConfigError(
                f"seed must be a non-negative integer or null, got "
                f"{self.seed!r}"
            )
        if self.scale is not None:
            if not isinstance(self.scale, (int, float)) or self.scale <= 0:
                raise ConfigError(
                    f"scale must be a positive number, got {self.scale!r}"
                )
        if not isinstance(self.pool_fraction, (int, float)) or not (
            0 < self.pool_fraction <= 1
        ):
            raise ConfigError(
                f"pool_fraction must be in (0, 1], got {self.pool_fraction!r}"
            )
        object.__setattr__(self, "model", _check_model(self.model))
        if not isinstance(self.evaluate, bool):
            raise ConfigError(
                f"evaluate must be true or false, got {self.evaluate!r}"
            )
        if not isinstance(self.options, dict):
            raise ConfigError(
                f"options must be a JSON object, got {self.options!r}"
            )
        for name in self.options:
            if not isinstance(name, str):
                raise ConfigError(f"option names must be strings, got {name!r}")
            if name in _RESERVED_OPTIONS:
                raise ConfigError(
                    f"option {name!r} is a top-level job field, not a "
                    "solver option"
                )
        try:
            json.dumps(self.options)
        except (TypeError, ValueError) as err:
            raise ConfigError(
                f"options must be JSON-serialisable: {err}"
            ) from err
        if (self.update_of is None) != (self.delta is None):
            raise ConfigError(
                "update_of and delta must be provided together"
            )
        if self.update_of is not None and not isinstance(self.update_of, str):
            raise ConfigError(
                f"update_of must be a job id string, got {self.update_of!r}"
            )
        if self.delta is not None:
            from repro.exceptions import DeltaError
            from repro.incremental.delta import GraphDelta

            try:
                GraphDelta.from_payload(self.delta)
            except DeltaError as err:
                raise ConfigError(f"invalid delta payload: {err}") from err

    _FIELDS = (
        "dataset", "theta", "method", "pieces", "k", "seed", "scale",
        "pool_fraction", "model", "evaluate", "eval_theta", "options",
        "update_of", "delta",
    )

    @classmethod
    def from_payload(cls, payload) -> "JobSpec":
        """Validate a client JSON payload into a spec.

        Unknown keys are rejected loudly — a typo'd knob silently doing
        nothing is how a "cached" job quietly runs the wrong campaign.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"job payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown job field(s) {unknown}; legal fields: "
                f"{list(cls._FIELDS)}"
            )
        missing = [f for f in ("dataset", "theta") if f not in payload]
        if missing:
            raise ConfigError(f"job payload is missing {missing}")
        return cls(**payload)

    def to_payload(self) -> dict:
        """The spec as a plain JSON-able dict (inverse of from_payload)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def fingerprint(self) -> str:
        """Content identity of this spec (single-flight / dedup token)."""
        token = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha256(token.encode()).hexdigest()


@dataclass
class JobRecord:
    """The service's view of one submitted job."""

    id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: JSON-able result payload (seed sets, estimates, diagnostics).
    result: dict | None = None
    #: JSON-able stage trace: [{stage, action, detail, seconds}, ...].
    trace: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_payload(self, *, with_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_payload(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "trace": list(self.trace),
        }
        if with_result:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRecord":
        spec = JobSpec.from_payload(payload["spec"])
        state = payload.get("state", "queued")
        if state not in JOB_STATES:
            raise ConfigError(f"unknown job state {state!r}")
        return cls(
            id=str(payload["id"]),
            spec=spec,
            state=state,
            submitted_at=float(payload.get("submitted_at") or 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            result=payload.get("result"),
            trace=list(payload.get("trace") or []),
        )


class JobStore:
    """Crash-safe job spool: one atomically-written JSON file per job.

    ``spool_dir=None`` keeps records in memory only (tests, ephemeral
    services); with a directory, every :meth:`save` is a write-temp +
    ``os.replace`` so a record file is never observed torn, and
    :meth:`recover` reloads the spool after a restart — terminal
    records verbatim, interrupted ones marked failed.
    """

    def __init__(self, spool_dir: str | os.PathLike | None = None) -> None:
        self.spool_dir = None if spool_dir is None else os.fspath(spool_dir)
        if self.spool_dir is not None:
            os.makedirs(self._jobs_dir, exist_ok=True)

    @property
    def _jobs_dir(self) -> str:
        return os.path.join(self.spool_dir, "jobs")

    def _path(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir, f"{job_id}.json")

    def save(self, record: JobRecord) -> None:
        if self.spool_dir is None:
            return
        fd, tmp = tempfile.mkstemp(dir=self._jobs_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record.to_payload(), fh)
            os.replace(tmp, self._path(record.id))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def delete(self, job_id: str) -> None:
        """Remove one record file from the spool (missing is a no-op)."""
        if self.spool_dir is None:
            return
        try:
            os.remove(self._path(job_id))
        except OSError:
            pass

    def recover(self) -> dict[str, JobRecord]:
        """Reload the spool; mark interrupted jobs failed.

        Unreadable record files (torn by a crash mid-rename on a
        non-atomic filesystem, or hand-edited) are skipped rather than
        taking the whole service down.
        """
        records: dict[str, JobRecord] = {}
        if self.spool_dir is None:
            return records
        try:
            names = sorted(os.listdir(self._jobs_dir))
        except OSError:
            return records
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._jobs_dir, name)
            try:
                with open(path) as fh:
                    record = JobRecord.from_payload(json.load(fh))
            except (OSError, ValueError, KeyError, ConfigError):
                continue
            if not record.terminal:
                record = replace(
                    record,
                    state="failed",
                    finished_at=record.finished_at or time.time(),
                    error=(
                        "interrupted by a service restart — resubmit; "
                        "completed stages are served from the artifact "
                        "cache"
                    ),
                )
                self.save(record)
            records[record.id] = record
        return records
