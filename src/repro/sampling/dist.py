"""Distributed sampling: independent worker processes fill one ShardStore.

The ``executor="spawned"`` topology.  Instead of one process owning a
pool, N *independent* worker processes — launched by the coordinator,
or started by hand on any machine that shares the shard directory's
filesystem — cooperatively fill one :class:`~repro.sampling.store.ShardStore`:

- the **coordinator** (:func:`fill_store_distributed`) opens the store,
  persists the root draw, writes a pickled :class:`JobSpec` into the
  ``.dist/`` rendezvous directory next to the shards, optionally
  launches local workers, and then *polls* the store
  (:meth:`~repro.sampling.store.ShardStore.rescan`) until every
  (piece, root-block) shard has been committed — it never owns the
  workers' lifecycle beyond restarting its own crashed children;
- each **worker** (:func:`run_worker`, CLI
  ``python -m repro.sampling.worker``) waits for the job spec, opens
  the store in shared-writer mode (it never touches the coordinator's
  manifest), and loops: claim a task's expirable
  :class:`~repro.utils.locks.FileLease`, sample the block with the
  task's own child stream, commit the shard, release.  When a worker
  dies mid-task its lease expires and a peer re-claims the task.

**Bit-identity contract.**  The coordinator records the collection's
stream entropy in the job spec, and each worker samples task
``(piece j, block b)`` from
:func:`~repro.sampling.parallel.keyed_task_seed` — the same
coordinate-keyed stream every other topology uses — so any number of
workers in any interleaving lands on the same bytes as inline
generation.

**Failure semantics.**  Every shard commit is rename-atomic and
deterministic, so the worst consequence of any race — a stolen-but-
alive lease, two workers restarting the same task, a duplicate
completion — is duplicate work producing identical bytes; the second
commit is a benign no-op.  Correctness never depends on the leases
being exclusive; they only keep the common case efficient.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SamplingError, StoreError
from repro.sampling.store import ShardStore
from repro.utils.locks import FileLease

__all__ = [
    "JobSpec",
    "fill_store_distributed",
    "run_worker",
    "write_job_spec",
    "read_job_spec",
    "wait_for_job_spec",
]

#: Rendezvous directory (job spec + leases) next to the shard files.
DIST_DIR = ".dist"
_JOB_FILE = "job.pkl"
_LEASE_DIR = "leases"

#: Default lease time-to-live for one (piece, root-block) task.  Tasks
#: are O(seconds); workers keep long tasks fresh with a keepalive, so
#: the ttl only bounds how fast a *dead* worker's task is re-claimed.
DEFAULT_LEASE_TTL = 20.0
#: Coordinator / worker polling cadence.
DEFAULT_POLL = 0.2
#: How long a hand-started worker waits for a job spec to appear.
DEFAULT_SPEC_WAIT = 120.0
#: Coordinator restart budget for its own crashed children, as a
#: multiple of the launch width.
_RESTART_FACTOR = 2


@dataclass
class JobSpec:
    """Everything a worker needs to reproduce the coordinator's tasks.

    ``entropy`` keys every task's stream
    (:func:`~repro.sampling.parallel.keyed_task_seed`).  The piece
    graphs travel pickled inside the spec — workers on other machines
    need only the shared filesystem, not the original graph
    construction.
    """

    n: int
    theta: int
    block_size: int
    num_pieces: int
    num_blocks: int
    models: tuple
    backend: str | None
    entropy: int
    fingerprint: str | None
    piece_graphs: list = field(repr=False)


def _dist_dir(shard_dir: str) -> str:
    return os.path.join(shard_dir, DIST_DIR)


def _job_path(shard_dir: str) -> str:
    return os.path.join(_dist_dir(shard_dir), _JOB_FILE)


def _lease_path(shard_dir: str, piece: int, block: int) -> str:
    return os.path.join(
        _dist_dir(shard_dir), _LEASE_DIR, f"task-{piece}-{block}.lock"
    )


def write_job_spec(shard_dir: str, spec: JobSpec) -> str:
    """Publish ``spec`` rename-atomically; returns the job file path.

    Callers must write the spec *after* the store's manifest and roots
    exist — a worker that can read the spec may immediately open the
    store.
    """
    dist = _dist_dir(shard_dir)
    os.makedirs(os.path.join(dist, _LEASE_DIR), exist_ok=True)
    path = _job_path(shard_dir)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(spec, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_job_spec(shard_dir: str) -> JobSpec | None:
    """The published spec, or ``None`` when absent/torn."""
    try:
        with open(_job_path(shard_dir), "rb") as fh:
            spec = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError):
        return None
    if not isinstance(spec, JobSpec):
        return None
    return spec


def wait_for_job_spec(
    shard_dir: str,
    *,
    timeout: float = DEFAULT_SPEC_WAIT,
    poll: float = DEFAULT_POLL,
) -> JobSpec:
    """Block (interruptibly) until a job spec appears."""
    deadline = time.monotonic() + float(timeout)
    while True:
        spec = read_job_spec(shard_dir)
        if spec is not None:
            return spec
        if time.monotonic() >= deadline:
            raise SamplingError(
                f"no distributed job spec appeared under {shard_dir} "
                f"within {timeout:.0f}s — is the coordinator running?"
            )
        time.sleep(poll)


def clean_rendezvous(shard_dir: str) -> None:
    """Remove the ``.dist/`` directory (post-completion housekeeping)."""
    shutil.rmtree(_dist_dir(shard_dir), ignore_errors=True)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------


def _worker_command(shard_dir: str, lease_ttl: float, poll: float):
    return [
        sys.executable,
        "-m",
        "repro.sampling.worker",
        "--shard-dir",
        shard_dir,
        "--ttl",
        str(lease_ttl),
        "--poll",
        str(poll),
    ]


def _worker_env() -> dict:
    """Child env with this repro package importable, however we were."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


def launch_worker(
    shard_dir: str,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
) -> subprocess.Popen:
    """Spawn one worker subprocess against ``shard_dir``."""
    return subprocess.Popen(
        _worker_command(shard_dir, lease_ttl, poll),
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def fill_store_distributed(
    piece_graphs,
    models,
    roots: np.ndarray,
    entropy: int,
    *,
    backend,
    workers: int,
    store: ShardStore,
    launch: int | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    timeout: float | None = None,
) -> int:
    """Coordinate a distributed fill of ``store``; returns block count.

    ``store`` must be mid-write (``begin`` called, roots saved, not
    finalized) — the caller keeps ownership of ``finalize``.  Tasks are
    keyed by ``entropy``, so the filled store is bit-identical to
    inline generation.

    ``launch`` is how many local worker processes to start: ``None``
    (default) launches ``workers`` of them; ``0`` launches none and
    relies on hand-started workers sharing the filesystem (the
    ``REPRO_DIST_LAUNCH=0`` topology).  Crashed children are restarted
    within a bounded budget; hand-started workers are nobody's to
    restart, so with ``launch=0`` a ``timeout`` is the only backstop.
    """
    if store.finalized:
        return 0
    if store.shard_dir is None:
        raise StoreError("distributed fill needs an on-disk ShardStore")
    # Construct every piece's sampler here first: sampler __init__ is
    # where model/graph feasibility checks live (unnormalised LT
    # weights, bad backend), and a spawned worker hitting one can only
    # die with an exit code — the coordinator must raise the real
    # error instead.
    from repro.sampling.parallel import _task_sampler

    for piece_graph, model in zip(piece_graphs, models):
        _task_sampler(piece_graph, model, backend)
    spec = JobSpec(
        n=store.n,
        theta=int(roots.size),
        block_size=store.block_size,
        num_pieces=store.num_pieces,
        num_blocks=store.num_blocks,
        models=tuple(models),
        backend=backend,
        entropy=int(entropy),
        fingerprint=store.fingerprint,
        piece_graphs=list(piece_graphs),
    )
    # The manifest and roots.npy are already on disk (begin/save_roots
    # ran before us), so a worker that sees the spec can open the store.
    write_job_spec(store.shard_dir, spec)

    if launch is None:
        launch = max(int(workers), 1)
    procs: list[subprocess.Popen] = []
    restarts_left = _RESTART_FACTOR * max(launch, 1)
    total = store.num_pieces * store.num_blocks
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    try:
        for _ in range(launch):
            procs.append(
                launch_worker(store.shard_dir, lease_ttl=lease_ttl, poll=poll)
            )
        while store.rescan() < total:
            if deadline is not None and time.monotonic() >= deadline:
                raise SamplingError(
                    f"distributed fill of {store.shard_dir} incomplete "
                    f"after {timeout:.0f}s "
                    f"({store.rescan()}/{total} shards)"
                )
            # Keep our own children alive; hand-started workers are
            # not ours to babysit.
            for i, proc in enumerate(procs):
                code = proc.poll()
                if code is None or code == 0:
                    continue
                if restarts_left <= 0:
                    raise SamplingError(
                        f"distributed worker for {store.shard_dir} "
                        f"exited with {code} and the restart budget is "
                        f"spent"
                    )
                restarts_left -= 1
                procs[i] = launch_worker(
                    store.shard_dir, lease_ttl=lease_ttl, poll=poll
                )
            time.sleep(poll)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        clean_rendezvous(store.shard_dir)
    return total


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------


def run_worker(
    shard_dir: str,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    spec_wait: float = DEFAULT_SPEC_WAIT,
    max_tasks: int | None = None,
) -> int:
    """One worker's whole life; returns how many shards it committed.

    Waits for the job spec, opens the store in shared-writer mode, and
    sweeps the task list (piece-major, the canonical order) claiming
    leases until every shard exists on disk.  ``max_tasks`` caps how
    many blocks this worker commits (test hook for out-of-order /
    partial fills).  Exits cleanly — return, not exception — when the
    store is complete, however many of the shards it produced itself.
    """
    from repro.sampling.parallel import _sample_task, keyed_task_seed

    spec = wait_for_job_spec(shard_dir, timeout=spec_wait, poll=poll)
    store = ShardStore(shard_dir, shared_writer=True)
    store.begin(
        spec.n,
        spec.num_pieces,
        spec.theta,
        spec.block_size,
        fingerprint=spec.fingerprint,
    )
    try:
        if store.finalized:
            return 0
        roots = store.load_roots()
        if roots.size != spec.theta:
            raise StoreError(
                f"roots draw under {shard_dir} has {roots.size} entries, "
                f"job spec says theta={spec.theta}"
            )
        done = 0
        while True:
            store.rescan()
            progress = False
            all_done = True
            for j in range(spec.num_pieces):
                for b in range(spec.num_blocks):
                    if store.has_block(j, b):
                        continue
                    all_done = False
                    lease = FileLease(
                        _lease_path(shard_dir, j, b),
                        ttl=lease_ttl,
                        payload={"task": [j, b]},
                    )
                    if not lease.try_acquire():
                        continue
                    with lease.keepalive():
                        # Double-check under the lease: the previous
                        # holder may have committed before losing it.
                        store.rescan()
                        if store.has_block(j, b):
                            continue
                        start = b * spec.block_size
                        ptr, nodes = _sample_task(
                            (
                                spec.piece_graphs[j],
                                spec.models[j],
                                spec.backend,
                                roots[start : start + spec.block_size],
                                keyed_task_seed(spec.entropy, j, b),
                            )
                        )
                        store.put_block(j, b, ptr, nodes)
                    progress = True
                    done += 1
                    if max_tasks is not None and done >= max_tasks:
                        return done
            if all_done:
                return done
            if not progress:
                # Every remaining task is leased by a live peer: wait
                # for commits (or expiries) rather than spinning.
                time.sleep(poll)
    finally:
        store.close()
