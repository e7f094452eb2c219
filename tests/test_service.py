"""The influence service: specs, spool, queue, single-flight, HTTP."""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro import ConfigError, Runtime
from repro.service import (
    JobQueue,
    JobRecord,
    JobSpec,
    JobStore,
    create_server,
    execute_spec,
)

#: One small, fast, fully deterministic campaign job.
SPEC = {
    "dataset": "lastfm",
    "scale": 0.08,
    "theta": 300,
    "k": 3,
    "method": "bab-p",
    "options": {"max_nodes": 20},
}


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("runtime", Runtime(artifacts=str(tmp_path / "art")))
    kwargs.setdefault("spool_dir", None)
    return JobQueue(**kwargs)


def sample_runs(record) -> int:
    return sum(
        1
        for e in record.trace
        if e["stage"] == "sample" and e["action"] == "run"
    )


# -- JobSpec ---------------------------------------------------------------


def test_spec_round_trip_and_fingerprint():
    spec = JobSpec.from_payload(SPEC)
    again = JobSpec.from_payload(spec.to_payload())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    other = JobSpec.from_payload({**SPEC, "theta": 301})
    assert other.fingerprint() != spec.fingerprint()


def test_spec_defaults_are_reproducible():
    spec = JobSpec.from_payload({"dataset": "lastfm", "theta": 100})
    assert spec.seed == 0
    assert spec.evaluate is True


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"dataset": "nope", "theta": 10}, "unknown dataset"),
        ({"dataset": "lastfm"}, "missing"),
        ({"dataset": "lastfm", "theta": 0}, "positive integer"),
        ({"dataset": "lastfm", "theta": 10, "typo": 1}, "unknown job field"),
        ({"dataset": "lastfm", "theta": 10, "seed": "x"}, "seed"),
        ({"dataset": "lastfm", "theta": 10, "scale": -1}, "scale"),
        ({"dataset": "lastfm", "theta": 10, "model": "bogus"}, "model"),
        (
            {"dataset": "lastfm", "theta": 10, "options": {"theta": 20}},
            "top-level job field",
        ),
        (
            {"dataset": "lastfm", "theta": 10, "options": {"f": object()}},
            "JSON-serialisable",
        ),
        ([1, 2], "JSON object"),
        ({"dataset": "lastfm", "theta": 10, "seed": -1}, "non-negative"),
    ],
)
def test_spec_rejects_bad_payloads(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        JobSpec.from_payload(payload)


# -- JobStore --------------------------------------------------------------


def test_spool_terminal_records_survive_recovery(tmp_path):
    store = JobStore(tmp_path / "spool")
    done = JobRecord(
        id="job-aaa",
        spec=JobSpec.from_payload(SPEC),
        state="done",
        result={"estimate": 1.5},
        trace=[{"stage": "plan", "action": "run", "detail": "", "seconds": 0}],
    )
    store.save(done)
    recovered = JobStore(tmp_path / "spool").recover()
    assert recovered["job-aaa"].state == "done"
    assert recovered["job-aaa"].result == {"estimate": 1.5}
    assert recovered["job-aaa"].trace == done.trace


def test_spool_interrupted_records_marked_failed(tmp_path):
    store = JobStore(tmp_path / "spool")
    store.save(JobRecord(id="job-bbb", spec=JobSpec.from_payload(SPEC),
                         state="running"))
    recovered = JobStore(tmp_path / "spool").recover()
    assert recovered["job-bbb"].state == "failed"
    assert "restart" in recovered["job-bbb"].error
    # ... and the failure was persisted, not just reported
    again = JobStore(tmp_path / "spool").recover()
    assert again["job-bbb"].state == "failed"


def test_spool_skips_torn_record_files(tmp_path):
    store = JobStore(tmp_path / "spool")
    store.save(JobRecord(id="job-ok", spec=JobSpec.from_payload(SPEC),
                         state="done"))
    torn = os.path.join(store.spool_dir, "jobs", "job-torn.json")
    with open(torn, "w") as fh:
        fh.write('{"id": "job-torn", "sp')
    recovered = JobStore(tmp_path / "spool").recover()
    assert set(recovered) == {"job-ok"}


def test_memory_only_store_is_a_no_op(tmp_path):
    store = JobStore(None)
    store.save(JobRecord(id="job-x", spec=JobSpec.from_payload(SPEC)))
    assert store.recover() == {}
    assert list(tmp_path.iterdir()) == []


# -- JobQueue --------------------------------------------------------------


def test_queue_cold_then_warm_jobs(tmp_path):
    with make_queue(tmp_path) as queue:
        cold = queue.submit(SPEC)
        cold = queue.wait(cold.id, timeout=180)
        assert cold.state == "done"
        assert cold.error is None
        assert sample_runs(cold) > 0
        assert len(cold.result["seed_sets"]) == 3
        assert cold.result["evaluation"] is not None
        # timing is surfaced per stage, and sampling took measurable time
        sampled = [e for e in cold.trace if e["stage"] == "sample"]
        assert any(e["seconds"] > 0 for e in sampled)

        warm = queue.wait(queue.submit(SPEC).id, timeout=180)
        assert warm.state == "done"
        # the warm run performed zero sampling and is bit-identical
        assert sample_runs(warm) == 0
        assert warm.result["seed_sets"] == cold.result["seed_sets"]
        assert warm.result["estimate"] == cold.result["estimate"]

        metrics = queue.metrics()
        assert metrics["jobs"]["done"] == 2
        assert metrics["cache"]["hits"] > 0


def test_queue_rejects_unknown_solver(tmp_path):
    with make_queue(tmp_path) as queue:
        with pytest.raises(ConfigError, match="unknown solver"):
            queue.submit({**SPEC, "method": "gradient-descent"})


def test_queue_failed_job_is_a_result_not_a_crash(tmp_path):
    with make_queue(tmp_path) as queue:
        # an option the solver does not accept fails inside the worker
        record = queue.submit(
            {**SPEC, "options": {"no_such_option": 1}}
        )
        record = queue.wait(record.id, timeout=180)
        assert record.state == "failed"
        assert record.error
        assert record.result is None


def test_queue_cancel_before_start(tmp_path):
    with make_queue(tmp_path, workers=1) as queue:
        first = queue.submit(SPEC)
        second = queue.submit({**SPEC, "theta": 301})
        cancelled = queue.cancel(second.id)
        assert cancelled.state == "cancelled"
        assert queue.wait(first.id, timeout=180).state == "done"
        assert queue.get(second.id).state == "cancelled"
        states = queue.metrics()["jobs"]
        assert states["cancelled"] == 1 and states["done"] == 1


def test_queue_single_flight_coalesces_identical_specs(tmp_path):
    with make_queue(tmp_path, workers=2) as queue:
        ids = [queue.submit(SPEC).id for _ in range(2)]
        records = [queue.wait(i, timeout=180) for i in ids]
        assert all(r.state == "done" for r in records)
        # the stampede sampled exactly once: one job ran the pipeline,
        # the other coalesced behind it and replayed cache hits
        assert sum(sample_runs(r) for r in records) == sample_runs(
            max(records, key=sample_runs)
        )
        assert [r.result["seed_sets"] for r in records] == [
            records[0].result["seed_sets"]
        ] * 2


def test_queue_restart_recovers_spool(tmp_path):
    spool = str(tmp_path / "spool")
    with make_queue(tmp_path, spool_dir=spool) as queue:
        record = queue.wait(queue.submit(SPEC).id, timeout=180)
        assert record.state == "done"
        job_id = record.id
    reborn = make_queue(tmp_path, spool_dir=spool)
    try:
        assert reborn.get(job_id).state == "done"
        assert reborn.get(job_id).result == record.result
    finally:
        reborn.close()


def test_execute_spec_inline_matches_session_run(tmp_path):
    result, trace = execute_spec(
        JobSpec.from_payload(SPEC),
        runtime=Runtime(artifacts=str(tmp_path / "art")),
    )
    assert set(result) == {
        "method", "seed_sets", "estimate", "evaluation", "diagnostics",
    }
    assert [e["stage"] for e in trace][:2] == ["plan", "sample"]


# -- HTTP ------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    queue = make_queue(tmp_path)
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=10)


def _request(server, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        server.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_http_submit_poll_result_metrics(service):
    status, record = _request(service, "POST", "/v1/jobs", SPEC)
    assert status == 201
    job_id = record["id"]
    assert record["state"] in ("queued", "running")
    assert "result" not in record  # status payloads stay light

    service.queue.wait(job_id, timeout=180)
    status, polled = _request(service, "GET", f"/v1/jobs/{job_id}")
    assert status == 200 and polled["state"] == "done"
    assert "result" not in polled

    status, result = _request(service, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert result["result"]["seed_sets"]
    assert any(e["action"] == "run" for e in result["trace"])

    status, health = _request(service, "GET", "/healthz")
    assert (status, health["status"]) == (200, "ok")
    status, metrics = _request(service, "GET", "/metrics")
    assert status == 200
    assert metrics["jobs"]["submitted"] == 1
    assert metrics["cache"]["puts"] > 0


def test_http_result_codes_over_the_lifecycle(service):
    status, record = _request(service, "POST", "/v1/jobs", SPEC)
    job_id = record["id"]
    status, body = _request(service, "GET", f"/v1/jobs/{job_id}/result")
    if status == 202:  # still queued/running at poll time
        assert body["state"] in ("queued", "running")
    service.queue.wait(job_id, timeout=180)
    status, _ = _request(service, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200

    status, record = _request(
        service, "POST", "/v1/jobs",
        {**SPEC, "options": {"no_such_option": 1}},
    )
    service.queue.wait(record["id"], timeout=180)
    status, body = _request(
        service, "GET", f"/v1/jobs/{record['id']}/result"
    )
    assert status == 409
    assert body["state"] == "failed" and body["error"]


def test_http_error_routes(service):
    status, body = _request(service, "GET", "/v1/jobs/job-unknown")
    assert status == 404 and "unknown job" in body["error"]
    status, body = _request(service, "GET", "/v1/nothing")
    assert status == 404
    status, body = _request(service, "POST", "/v1/jobs", {"dataset": "lastfm"})
    assert status == 400 and "theta" in body["error"]
    status, body = _request(
        service, "POST", "/v1/jobs", {**SPEC, "dataset": "nope"}
    )
    assert status == 400 and "unknown dataset" in body["error"]


def test_http_rejects_negative_seed_at_submit(service):
    status, body = _request(service, "POST", "/v1/jobs", {**SPEC, "seed": -1})
    assert status == 400 and "seed" in body["error"]
    status, metrics = _request(service, "GET", "/metrics")
    assert metrics["jobs"]["submitted"] == 0  # never reached the queue


def test_http_rejects_non_json_body(service):
    req = urllib.request.Request(
        service.url + "/v1/jobs", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=30)
    assert err.value.code == 400


def test_http_cancel_route(tmp_path):
    queue = make_queue(tmp_path, workers=1)
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _, first = _request(server, "POST", "/v1/jobs", SPEC)
        _, second = _request(
            server, "POST", "/v1/jobs", {**SPEC, "theta": 301}
        )
        status, body = _request(
            server, "POST", f"/v1/jobs/{second['id']}/cancel"
        )
        assert (status, body["state"]) == (200, "cancelled")
        queue.wait(first["id"], timeout=180)
    finally:
        server.close()
        thread.join(timeout=10)


def test_cli_parser_defaults():
    from repro.service.__main__ import build_parser

    args = build_parser().parse_args([])
    assert (args.host, args.port) == ("127.0.0.1", 8008)
    assert args.workers is None and args.spool is None
    args = build_parser().parse_args(
        ["--port", "0", "--workers", "3", "--artifact-dir", "/tmp/a"]
    )
    assert (args.port, args.workers, args.artifact_dir) == (0, 3, "/tmp/a")
