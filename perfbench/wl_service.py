"""``service-mix``: the HTTP job service, driven by one closed-loop client.

``python -m repro.service --workers 1`` runs as a subprocess over a
fresh artifact directory.  One client submits a job, polls its result
every ``POLL_S`` and only then submits the next.  Jobs alternate
between a new campaign (cold: projection, sampling, BAB-P, evaluation)
and a resubmission of an earlier spec (warm: served by artifact hits,
so artifacts and service overhead dominate).  Specs: dblp at scale
0.4, l=3, k=10, theta=20 000, eval_theta=80 000, ``bab-p`` with
``max_nodes=10``.  This is the only workload through the HTTP layer,
the queue, the spool and the artifact store.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np

from harness import latency_metrics, median_setup, vm_hwm_mb
from layers import layer_metrics

SPEC = {
    "dataset": "dblp",
    "scale": 0.4,
    "pieces": 3,
    "k": 10,
    "theta": 20_000,
    "eval_theta": 80_000,
    "method": "bab-p",
    "options": {"max_nodes": 10},
}
POLL_S = 0.005
JOB_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
#: Cold jobs whose evaluation is averaged into au_eval (a fixed count).
SCORED = 16
#: Spec seed of the set-up job, kept apart from the ops' seeds.
SETUP_SEED = 2**31


def _request(url: str, payload=None) -> tuple[int, dict]:
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=JOB_TIMEOUT_S) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


class Server:
    """One service subprocess: start, drive, stop."""

    def __init__(self, ctx, index: int) -> None:
        self.ctx = ctx
        base = os.path.join(ctx.workdir, f"server{index}")
        os.makedirs(base)
        self.control = os.path.join(base, "control.json")
        self.spans = os.path.join(base, "spans.json")
        self.log = os.path.join(base, "stdout.log")
        args = [
            "--port", "0", "--workers", "1", "--sampling-workers", "1",
            "--artifact-dir", os.path.join(base, "artifacts"),
        ]
        if ctx.trace:
            self.set_control("setup", True)
            cmd = [
                sys.executable, os.path.join(ctx.here, "launch_service.py"),
                "--spans", self.spans, "--control", self.control, "--", *args,
            ]
        else:
            cmd = [sys.executable, "-m", "repro.service", *args]
        env = dict(os.environ, PYTHONPATH=ctx.src)
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                cwd=ctx.root,
            )
        self.url = self._wait_listening()

    def _wait_listening(self) -> str:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self.log) as fh:
                found = re.search(r"listening on (http://\S+)", fh.read())
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(self.log) as fh:
            raise RuntimeError(f"service did not start: {fh.read()[-2000:]}")

    def set_control(self, op: str, trace: bool) -> None:
        tmp = self.control + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"op": op, "trace": trace}, fh)
        os.replace(tmp, self.control)

    def job(self, spec: dict) -> tuple[dict, int]:
        """Submit ``spec``, poll to completion; returns (record, polls)."""
        status, created = _request(self.url + "/v1/jobs", spec)
        if status != 201:
            raise RuntimeError(f"submit returned {status}: {created}")
        result_url = f"{self.url}/v1/jobs/{created['id']}/result"
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        polls = 0
        while True:
            status, body = _request(result_url)
            polls += 1
            if status == 200:
                return body, polls
            if status != 202 or time.perf_counter() > deadline:
                raise RuntimeError(f"job {created['id']}: {status} {body}")
            time.sleep(POLL_S)

    def metrics(self) -> dict:
        return _request(self.url + "/metrics")[1]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def _setup(state, ctx, servers):
    if state is not None:
        state.stop()
    server = Server(ctx, len(servers))
    servers.append(server)
    record, _polls = server.job(dict(SPEC, seed=SETUP_SEED))
    if record.get("state") != "done":
        raise RuntimeError(f"set-up job failed: {record}")
    return server


def _stages(record) -> dict:
    actions: dict = {}
    for event in record.get("trace", []):
        actions.setdefault(event["stage"], set()).add(event["action"])
    return actions


def run(ctx) -> dict:
    run = ctx.run
    servers: list[Server] = []
    try:
        return _drive(ctx, run, servers)
    finally:
        for server in servers:
            server.stop()


def _drive(ctx, run, servers) -> dict:
    setup, server = median_setup(
        lambda state: _setup(state, ctx, servers), ctx.setup_repeats
    )
    rng = np.random.default_rng(ctx.seed)
    used_seeds = {SETUP_SEED}
    cold: list[tuple[dict, dict]] = []  # (spec, result record)
    target = 2 if ctx.smoke else SCORED
    traced_jobs, stamps = [], []

    # warm-up op, excluded from timing
    if ctx.trace:
        server.set_control("warmup", False)
    server.job(dict(SPEC, seed=SETUP_SEED))

    metrics0 = server.metrics()
    run.start_clock()
    i = 0
    while run.more(len(cold) < target):
        kind = "warm" if i % 2 == 1 and cold else "cold"
        if kind == "cold":
            seed = int(rng.integers(1, 2**31 - 1))
            while seed in used_seeds:
                seed = int(rng.integers(1, 2**31 - 1))
            used_seeds.add(seed)
            spec, twin = dict(SPEC, seed=seed), None
        else:
            spec, twin = cold[int(rng.integers(len(cold)))]
        # pairs of (cold, warm) jobs alternate between traced and not
        traced = ctx.trace and (i // 2) % 2 == 1
        label = f"op{i}"
        if ctx.trace:
            server.set_control(label, traced)
            if traced:
                traced_jobs.append(label)
        ok, answer = run.timed(kind, lambda: server.job(spec), traced=traced)
        latency = run.ops[-1].seconds
        i += 1
        if not ok:
            continue
        record, polls = answer
        stages = _stages(record)
        if traced:
            stamps.append((record, polls, latency))
        if kind == "cold":
            run.check("run" in stages.get("sample", ()),
                      f"{label}: cold job did not sample")
            cold.append((spec, record))
            continue
        run.check(
            record["result"]["seed_sets"] == twin["result"]["seed_sets"]
            and record["result"]["estimate"] == twin["result"]["estimate"],
            f"{label}: warm result differs from its cold twin",
        )
        run.check(
            all(stages.get(s) == {"hit"} for s in ("sample", "index", "solve")),
            f"{label}: warm job stages were not all artifact hits: {stages}",
        )
    metrics1 = server.metrics()
    peak_rss = vm_hwm_mb(server.proc.pid)
    for each in servers:
        each.stop()

    scored = [rec["result"]["evaluation"] for _spec, rec in cold[:target]]
    run.check(len(scored) == target,
              f"only {len(scored)} of {target} scored jobs finished in time")
    out = {
        "e2e": {
            **latency_metrics(run),
            **setup,
            "au_eval": statistics.fmean(scored) if scored else float("nan"),
            "peak_rss_mb": peak_rss,
        },
        "digest": hashlib.sha256(json.dumps(
            [rec["result"]["seed_sets"] for _spec, rec in cold[:target]]
        ).encode()).hexdigest(),
    }
    if ctx.trace:
        for each in servers:
            if os.path.exists(each.spans):
                ctx.tracer.load(each.spans)
        c0, c1 = metrics0["cache"], metrics1["cache"]
        hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
        n_all = max(1, len(run.ops))
        n = max(1, len(stamps))
        out["layers"] = layer_metrics(ctx.tracer, run, traced_jobs, {
            "artifacts.hits": hits / n_all,
            "artifacts.misses": misses / n_all,
            "artifacts.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.queue_wait_s": sum(
                r["started_at"] - r["submitted_at"] for r, _p, _l in stamps) / n,
            "service.run_s": sum(
                r["finished_at"] - r["started_at"] for r, _p, _l in stamps) / n,
            "service.http_overhead_s": sum(
                lat - (r["finished_at"] - r["submitted_at"])
                for r, _p, lat in stamps) / n,
            "service.polls_per_job": sum(p for _r, p, _l in stamps) / n,
        })
    return out
