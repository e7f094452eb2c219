"""The influence-service job queue: thread workers over one Session.

:class:`JobQueue` turns validated :class:`~repro.service.jobs.JobSpec`
submissions into background :meth:`repro.api.Session.run` executions on
a ``ThreadPoolExecutor``, keeping the submit path (and therefore the
HTTP request path) free of sampling work.  All workers share one
resolved artifact store, so a campaign that any worker — or any *other
service process* pointed at the same ``REPRO_ARTIFACTS`` directory —
has already computed is served from cache with zero sampling.

Two queue-level behaviours matter for a shared cache:

- **Single-flight**: identical specs submitted concurrently coalesce on
  a per-fingerprint lock, so a cold-cache stampede runs the pipeline
  once and the rest replay it as cache hits instead of racing duplicate
  sampling work.  (Cross-*process* stampedes are handled one layer
  down, by the artifact store's rename-atomic commits.)
- **Crash safety**: every record transition is persisted through the
  :class:`~repro.service.jobs.JobStore` spool, so terminal jobs survive
  a restart and interrupted ones come back marked failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait

from repro.api import Session, _normalize_method, available_solvers
from repro.exceptions import ConfigError
from repro.runtime import (
    DEFAULT_SERVICE_WORKERS,
    DEFAULT_SPOOL_DIR,
    as_runtime,
    resolve_runtime,
)
from repro.service.jobs import JobRecord, JobSpec, JobStore, new_job_id

__all__ = [
    "JobQueue",
    "execute_spec",
]

#: "parameter not passed" marker — distinct from an explicit ``None``.
_UNSET = object()


def _jsonable(value):
    """Best-effort JSON projection of solver diagnostics."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    try:
        return float(value)  # numpy scalars
    except (TypeError, ValueError):
        return repr(value)


def execute_spec(spec: JobSpec, *, runtime=None) -> tuple[dict, list]:
    """Run one job spec through a fresh :class:`~repro.api.Session`.

    Returns ``(result_payload, trace_payload)`` — both plain JSON-able,
    the shapes stored on a :class:`~repro.service.jobs.JobRecord`.
    This is the whole execution path of a queue worker; it is exposed
    so tests and batch drivers can run a spec inline.
    """
    session = Session.from_dataset(
        spec.dataset,
        pieces=spec.pieces,
        scale=spec.scale,
        k=spec.k,
        pool_fraction=spec.pool_fraction,
        seed=spec.seed,
        runtime=runtime,
    )
    if spec.delta is not None:
        return _execute_update(session, spec)
    if spec.evaluate:
        result = session.run(
            spec.method,
            theta=spec.theta,
            eval_theta=spec.eval_theta,
            **spec.options,
        )
    else:
        session.stage_trace.record("plan", "run", "problem")
        result = session.solve(
            spec.method,
            theta=spec.theta,
            evaluate=False,
            **spec.options,
        )
    payload = {
        "method": result.method,
        "seed_sets": [sorted(int(v) for v in s) for s in result.seed_sets],
        "estimate": float(result.estimate),
        "evaluation": (
            None if result.evaluation is None else float(result.evaluation)
        ),
        "diagnostics": _jsonable(result.diagnostics),
    }
    trace = [
        {
            "stage": e.stage,
            "action": e.action,
            "detail": e.detail,
            "seconds": e.seconds,
            "extra": _jsonable(e.extra),
        }
        for e in session.stage_trace
    ]
    return payload, trace


def _execute_update(session: Session, spec: JobSpec) -> tuple[dict, list]:
    """The incremental execution path of a ``delta``-carrying spec.

    Self-contained rather than stateful: the worker replays the base
    campaign as an incremental lineage (the same draw as the base job,
    so every completed stage is a cache hit when an artifact store is
    shared), then absorbs the composed delta
    through :meth:`~repro.api.Session.update` — regenerating only the
    delta-touched shards and re-solving warm.  The result payload gains
    an ``"incremental"`` block with the update's reuse accounting.
    """
    from repro.incremental.delta import GraphDelta

    session.sample_incremental(spec.theta)
    session.solve(spec.method, evaluate=False, **spec.options)
    update = session.update(
        GraphDelta.from_payload(spec.delta),
        method=spec.method,
        evaluate=spec.evaluate,
        eval_theta=spec.eval_theta,
        **spec.options,
    )
    result = update.result
    payload = {
        "method": result.method,
        "seed_sets": [sorted(int(v) for v in s) for s in result.seed_sets],
        "estimate": float(result.estimate),
        "evaluation": (
            None if result.evaluation is None else float(result.evaluation)
        ),
        "diagnostics": _jsonable(result.diagnostics),
        "incremental": {
            "theta_old": update.trace.theta_old,
            "theta_new": update.trace.theta_new,
            "shards_total": update.trace.shards_total,
            "shards_kept": update.trace.shards_kept,
            "shards_invalidated": update.trace.shards_invalidated,
            "shards_appended": update.trace.shards_appended,
            "shards_resampled": update.trace.shards_resampled,
            "dirty_vertices": update.trace.dirty_vertices,
            "staleness": update.trace.staleness,
        },
    }
    trace = [
        {
            "stage": e.stage,
            "action": e.action,
            "detail": e.detail,
            "seconds": e.seconds,
            "extra": _jsonable(e.extra),
        }
        for e in session.stage_trace
    ]
    return payload, trace


class JobQueue:
    """Submit/poll/cancel campaign jobs executed by background threads.

    Parameters
    ----------
    workers:
        Worker-thread count; defaults to ``REPRO_SERVICE_WORKERS``
        (else 2).  Threads suffice because the heavy lifting releases
        the GIL in the array kernels and scale-*out* is several service
        processes sharing one artifact directory — which the store's
        atomic commit path makes safe.
    runtime:
        Base :class:`~repro.runtime.Runtime` for every job (artifact
        cache location, backend, model...).  The queue resolves the
        artifact store once and pins the instance, so all workers share
        one coherent store.
    spool_dir:
        Job-record spool directory; defaults to ``REPRO_SPOOL``.  Pass
        ``None`` explicitly for a memory-only (non-persistent) queue.
    job_ttl:
        Terminal-record retention in seconds.  ``None`` (default) keeps
        records forever; with a TTL, a periodic sweep drops terminal
        records whose ``finished_at`` is older than the TTL from both
        memory and the spool, bounding an always-on service's footprint.
        Queued/running jobs are never evicted.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        runtime=None,
        spool_dir=_UNSET,
        job_ttl: float | None = None,
    ) -> None:
        if workers is None:
            workers = DEFAULT_SERVICE_WORKERS
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ConfigError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self.workers = workers
        if job_ttl is not None and (
            isinstance(job_ttl, bool)
            or not isinstance(job_ttl, (int, float))
            or job_ttl <= 0
        ):
            raise ConfigError(
                f"job_ttl must be a positive number of seconds or None, "
                f"got {job_ttl!r}"
            )
        self.job_ttl = None if job_ttl is None else float(job_ttl)
        base = as_runtime(runtime)
        self.artifact_store = resolve_runtime(base).artifact_store()
        if self.artifact_store is not None:
            # dataclasses.replace works on Runtime and ResolvedRuntime
            # alike (Runtime.replace exists only on the former)
            base = dataclasses.replace(base, artifacts=self.artifact_store)
        self.runtime = base
        if spool_dir is _UNSET:
            spool_dir = DEFAULT_SPOOL_DIR
        self.store = JobStore(spool_dir)
        self._records: dict[str, JobRecord] = self.store.recover()
        self._futures: dict[str, object] = {}
        self._lock = threading.Lock()
        self._flights: dict[str, tuple[threading.Lock, int]] = {}
        self._coalesced = 0
        self._evicted = 0
        self._last_sweep = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) drain the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            for job_id, future in self._futures.items():
                record = self._records[job_id]
                if future.cancelled() and not record.terminal:
                    record.state = "cancelled"
                    record.finished_at = time.time()
                    record.error = "service shut down before the job ran"
                    self.store.save(record)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- spool eviction ----------------------------------------------------

    def sweep(self, *, now: float | None = None) -> int:
        """Evict terminal records older than the TTL; returns the count.

        Called opportunistically from the submit/metrics paths (at most
        once per quarter-TTL) and directly by tests.  Only terminal
        records age out — their ``finished_at`` is the clock —  so a
        stuck-running job is never silently forgotten.
        """
        if self.job_ttl is None:
            return 0
        cutoff = (now if now is not None else time.time()) - self.job_ttl
        evicted: list[str] = []
        with self._lock:
            for job_id, record in list(self._records.items()):
                if not record.terminal:
                    continue
                finished = record.finished_at or record.submitted_at
                if finished < cutoff:
                    del self._records[job_id]
                    self._futures.pop(job_id, None)
                    evicted.append(job_id)
            self._evicted += len(evicted)
            self._last_sweep = time.monotonic()
        for job_id in evicted:
            self.store.delete(job_id)
        return len(evicted)

    def _maybe_sweep(self) -> None:
        if self.job_ttl is None:
            return
        interval = min(self.job_ttl / 4.0, 60.0)
        if time.monotonic() - self._last_sweep >= interval:
            self.sweep()

    # -- submission and polling --------------------------------------------

    def submit(self, spec) -> JobRecord:
        """Validate and enqueue one job; returns its (live) record."""
        self._maybe_sweep()
        if isinstance(spec, dict):
            spec = JobSpec.from_payload(spec)
        if not isinstance(spec, JobSpec):
            raise ConfigError(
                f"submit takes a JobSpec or payload dict, got "
                f"{type(spec).__name__}"
            )
        # Validated here, against the *live* registry, not in JobSpec:
        # register_solver may legitimately add methods after import.
        if _normalize_method(spec.method) not in available_solvers():
            raise ConfigError(
                f"unknown solver {spec.method!r}; available: "
                f"{list(available_solvers())}"
            )
        record = JobRecord(id=new_job_id(), spec=spec)
        with self._lock:
            if self._closed:
                raise ConfigError("the job queue is shut down")
            self._records[record.id] = record
            self.store.save(record)
            self._futures[record.id] = self._executor.submit(
                self._run_job, record.id
            )
        return record

    def submit_update(self, base_id: str, payload) -> JobRecord:
        """Enqueue an incremental update of job ``base_id``.

        ``payload`` is ``{"delta": {...}, "method"?: "..."}`` — the
        delta in :meth:`GraphDelta.to_payload` shape.  The new job's
        spec is the base spec plus the delta (composed with the base's
        own delta when updating an update), so it stays self-contained:
        any worker — or a restarted service — can execute it from the
        dataset alone, with the shared artifact cache absorbing the
        replayed stages.  Raises ``KeyError`` for an unknown base job.
        """
        base = self.get(base_id)  # KeyError → 404 at the HTTP layer
        if not isinstance(payload, dict):
            raise ConfigError(
                f"update payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"delta", "method"})
        if unknown:
            raise ConfigError(
                f"unknown update field(s) {unknown}; legal fields: "
                f"['delta', 'method']"
            )
        if "delta" not in payload:
            raise ConfigError("update payload is missing 'delta'")
        from repro.exceptions import DeltaError
        from repro.incremental.delta import GraphDelta

        try:
            delta = GraphDelta.from_payload(payload["delta"])
            if base.spec.delta is not None:
                delta = GraphDelta.from_payload(base.spec.delta).compose(
                    delta
                )
        except DeltaError as err:
            raise ConfigError(f"invalid delta payload: {err}") from err
        spec = dataclasses.replace(
            base.spec,
            update_of=base_id,
            delta=delta.to_payload(),
            method=payload.get("method", base.spec.method),
        )
        return self.submit(spec)

    def get(self, job_id: str) -> JobRecord:
        """The live record for ``job_id`` (KeyError when unknown)."""
        with self._lock:
            return self._records[job_id]

    def payload(self, job_id: str, *, with_result: bool = True) -> dict:
        """A consistent JSON snapshot of one record (taken under lock)."""
        with self._lock:
            return self._records[job_id].to_payload(with_result=with_result)

    def jobs(self) -> list[JobRecord]:
        """All known records, oldest submission first."""
        with self._lock:
            records = list(self._records.values())
        return sorted(records, key=lambda r: (r.submitted_at, r.id))

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel ``job_id`` if it has not started; returns the record.

        A job already running is not interrupted (solvers have no safe
        preemption point); the returned record's state says which way
        it went.
        """
        with self._lock:
            record = self._records[job_id]
            future = self._futures.get(job_id)
            if record.terminal or future is None:
                return record
            if future.cancel():
                record.state = "cancelled"
                record.finished_at = time.time()
                self.store.save(record)
        return record

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until ``job_id`` is terminal (or ``timeout`` elapses)."""
        with self._lock:
            record = self._records[job_id]
            future = self._futures.get(job_id)
        if future is not None and not record.terminal:
            futures_wait([future], timeout=timeout)
        return self.get(job_id)

    def metrics(self) -> dict:
        """Queue and cache counters for the ``/metrics`` endpoint."""
        self._maybe_sweep()
        with self._lock:
            states = [r.state for r in self._records.values()]
            coalesced = self._coalesced
            evicted = self._evicted
        cache = (
            self.artifact_store.stats()
            if self.artifact_store is not None
            else None
        )
        return {
            "jobs": {
                "submitted": len(states),
                "queued": states.count("queued"),
                "running": states.count("running"),
                "done": states.count("done"),
                "failed": states.count("failed"),
                "cancelled": states.count("cancelled"),
            },
            "queue_depth": states.count("queued"),
            "workers": self.workers,
            "single_flight_coalesced": coalesced,
            "job_ttl": self.job_ttl,
            "jobs_evicted": evicted,
            "cache": cache,
        }

    # -- execution ---------------------------------------------------------

    @contextlib.contextmanager
    def _single_flight(self, fingerprint: str):
        """Hold the per-spec-fingerprint lock; refcounted for cleanup."""
        with self._lock:
            lock, refs = self._flights.get(fingerprint, (None, 0))
            if lock is None:
                lock = threading.Lock()
            self._flights[fingerprint] = (lock, refs + 1)
        contended = not lock.acquire(blocking=False)
        if contended:
            with self._lock:
                self._coalesced += 1
            lock.acquire()
        try:
            yield
        finally:
            lock.release()
            with self._lock:
                lock, refs = self._flights[fingerprint]
                if refs <= 1:
                    del self._flights[fingerprint]
                else:
                    self._flights[fingerprint] = (lock, refs - 1)

    def _run_job(self, job_id: str) -> None:
        with self._lock:
            record = self._records[job_id]
            if record.terminal:  # cancelled in the submit/run race
                return
            record.state = "running"
            record.started_at = time.time()
            self.store.save(record)
        try:
            with self._single_flight(record.spec.fingerprint()):
                result, trace = execute_spec(
                    record.spec, runtime=self.runtime
                )
        except Exception as err:  # job failure is a *result*, not a crash
            with self._lock:
                record.state = "failed"
                record.error = f"{type(err).__name__}: {err}"
                record.finished_at = time.time()
                self.store.save(record)
            return
        with self._lock:
            record.result = result
            record.trace = trace
            record.state = "done"
            record.finished_at = time.time()
            self.store.save(record)
