"""HTTP job service tests: lifecycle, persistence, concurrency, parity."""

import http.client
import json
import threading
import time
import urllib.request
from urllib.error import HTTPError

import pytest

from ecann.agents import CountModelParams, EcRankerParams, RankingMode
from ecann.bundle import BundleParams, annotate_to_tsv, train_bundle
from ecann.demo import make_demo_snapshots
from ecann.gbdt import GbdtParams
from ecann.service import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    AnnotationService,
    JobStore,
    ServiceError,
    make_server,
)

_FAST_GBDT = GbdtParams(n_estimators=15, max_depth=3, min_child_weight=0.5,
                        subsample=1.0)
_PARAMS = BundleParams(
    max_len=192,
    counts=CountModelParams(sp=_FAST_GBDT, mp=_FAST_GBDT),
    ranker=EcRankerParams(negative_budget=40, shortlist_size=40,
                          svm_max_iter=200),
)

_DEADLINE = 60.0


@pytest.fixture(scope="module")
def corpus():
    earlier, _ = make_demo_snapshots(seed=3, n_families=10)
    return earlier.records


@pytest.fixture(scope="module")
def annotator(corpus):
    built, _ = train_bundle(corpus, _PARAMS)
    return built


@pytest.fixture()
def service(annotator, tmp_path):
    svc = AnnotationService(annotator, JobStore(tmp_path / "store"), workers=4)
    yield svc
    svc.shutdown()


@pytest.fixture()
def server(service):
    srv = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()


def _fasta(records) -> bytes:
    return "".join(f">{r.id}\n{r.seq}\n" for r in records).encode()


def _post(base, path, body: bytes):
    req = urllib.request.Request(base + path, data=body, method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, resp.read()
    except HTTPError as err:
        return err.code, err.read()


def _wait_terminal(base, job_id, deadline=_DEADLINE):
    saw = []
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, body = _get(base, f"/jobs/{job_id}")
        assert status == 200
        record = json.loads(body)
        if not saw or saw[-1] != record["state"]:
            saw.append(record["state"])
        if record["state"] in (DONE, FAILED):
            return record, saw
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished; states seen: {saw}")


class TestJobStore:
    def test_create_persists_a_pending_record(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(b">a\nACDEF\n")
        assert job.state == PENDING
        assert len(job.job_id) == 32 and int(job.job_id, 16) >= 0
        again = store.get(job.job_id)
        assert again == job
        assert store.input_path(job.job_id).read_bytes() == b">a\nACDEF\n"

    def test_legal_lifecycle_and_result_ordering(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(b"x")
        store.transition(job.job_id, RUNNING)
        done = store.transition(job.job_id, DONE, result=b"tsv")
        assert done.finished_at is not None
        assert store.result_bytes(job.job_id) == b"tsv"

    def test_illegal_transitions_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(b"x")
        with pytest.raises(ServiceError, match="illegal"):
            store.transition(job.job_id, DONE, result=b"r")
        store.transition(job.job_id, RUNNING)
        store.transition(job.job_id, FAILED, error="boom")
        with pytest.raises(ServiceError, match="illegal"):
            store.transition(job.job_id, RUNNING)

    def test_done_requires_result_bytes(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(b"x")
        store.transition(job.job_id, RUNNING)
        with pytest.raises(ServiceError, match="result"):
            store.transition(job.job_id, DONE)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(b"x")
        store.transition(job.job_id, RUNNING)
        store.transition(job.job_id, DONE, result=b"r")
        assert not list(tmp_path.rglob("*.tmp"))


class TestHttpLifecycle:
    def test_submit_poll_fetch(self, server, corpus, annotator):
        body = _fasta(corpus[:4])
        status, payload = _post(server, "/jobs", body)
        assert status == 202
        job_id = payload["job_id"]
        record, saw = _wait_terminal(server, job_id)
        assert record["state"] == DONE
        assert saw == [s for s in (PENDING, RUNNING, DONE) if s in saw]
        assert record["error"] is None
        status, result = _get(server, f"/jobs/{job_id}/result")
        assert status == 200
        want, n_failed = annotate_to_tsv(
            annotator, [(r.id, r.seq) for r in corpus[:4]], RankingMode.PREDICTION
        )
        assert n_failed == 0
        assert result == want.encode("utf-8")

    def test_job_record_fields(self, server, corpus):
        _, payload = _post(server, "/jobs", _fasta(corpus[:1]))
        record, _ = _wait_terminal(server, payload["job_id"])
        assert set(record) == {"job_id", "state", "submitted_at", "finished_at",
                               "input_digest", "result_path", "error"}
        assert len(record["input_digest"]) == 64

    def test_result_is_404_until_done(self, server, corpus, service):
        job = service.store.create(_fasta(corpus[:1]))  # never enqueued
        status, _ = _get(server, f"/jobs/{job.job_id}/result")
        assert status == 404

    def test_unknown_job_id_is_404(self, server):
        assert _get(server, "/jobs/deadbeef")[0] == 404
        assert _get(server, "/jobs/deadbeef/result")[0] == 404

    def test_unknown_endpoint_is_404(self, server):
        assert _get(server, "/nope")[0] == 404

    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_malformed_fasta_fails_with_parse_message(self, server):
        _, payload = _post(server, "/jobs", b"no header at all\nACDEF\n")
        record, _ = _wait_terminal(server, payload["job_id"])
        assert record["state"] == FAILED
        assert "header" in record["error"]
        assert _get(server, f"/jobs/{payload['job_id']}/result")[0] == 404

    @pytest.mark.parametrize("length", ["abc", "-1", "-5"])
    def test_bad_content_length_is_400_without_a_job(self, server, service, length):
        conn = http.client.HTTPConnection(server.removeprefix("http://"), timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            conn.close()
        assert service.store.job_ids() == []
        assert _get(server, "/healthz")[0] == 200  # the server is still serving

    def test_keep_alive_requests_do_not_stall(self, server):
        conn = http.client.HTTPConnection(server.removeprefix("http://"), timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        # Without TCP_NODELAY each response waits ~40 ms for a delayed ACK.
        assert elapsed < 0.4

    def test_empty_body_yields_header_only_result(self, server):
        _, payload = _post(server, "/jobs", b"")
        record, _ = _wait_terminal(server, payload["job_id"])
        assert record["state"] == DONE
        _, result = _get(server, f"/jobs/{payload['job_id']}/result")
        assert result == b"id\tis_enzyme\tfunction_count\tecs\tscores\tsource\n"


class TestPersistence:
    def test_restart_requeues_pending_and_fails_running(self, annotator, tmp_path,
                                                        corpus):
        store = JobStore(tmp_path / "store")
        interrupted = store.create(_fasta(corpus[:1]))
        store.transition(interrupted.job_id, RUNNING)
        queued = store.create(_fasta(corpus[:1]))

        svc = AnnotationService(annotator, JobStore(tmp_path / "store"), workers=2)
        try:
            svc.recover()
            assert svc.store.get(interrupted.job_id).state == FAILED
            assert ("restarted" in svc.store.get(interrupted.job_id).error)
            end = time.monotonic() + _DEADLINE
            while time.monotonic() < end:
                if svc.store.get(queued.job_id).state == DONE:
                    break
                time.sleep(0.02)
            assert svc.store.get(queued.job_id).state == DONE
        finally:
            svc.shutdown()

    def test_done_job_survives_restart(self, annotator, tmp_path, corpus):
        store_dir = tmp_path / "store"
        svc = AnnotationService(annotator, JobStore(store_dir), workers=2)
        job = svc.submit(_fasta(corpus[:2]))
        end = time.monotonic() + _DEADLINE
        while time.monotonic() < end:
            if svc.store.get(job.job_id).state == DONE:
                break
            time.sleep(0.02)
        svc.shutdown()

        reborn = AnnotationService(annotator, JobStore(store_dir), workers=2)
        try:
            reborn.recover()
            assert reborn.store.get(job.job_id).state == DONE
            assert reborn.result(job.job_id) is not None
        finally:
            reborn.shutdown()

    def test_expired_result_is_dropped(self, annotator, tmp_path, corpus):
        svc = AnnotationService(annotator, JobStore(tmp_path / "store"),
                                workers=1, ttl_seconds=0.0)
        try:
            job = svc.submit(_fasta(corpus[:1]))
            end = time.monotonic() + _DEADLINE
            while time.monotonic() < end:
                if svc.store.get(job.job_id).state == DONE:
                    break
                time.sleep(0.02)
            time.sleep(0.05)
            assert svc.result(job.job_id) is None
            assert svc.store.get(job.job_id) is None  # dropped entirely
        finally:
            svc.shutdown()


class TestConcurrency:
    def test_sixteen_parallel_submissions_all_terminate(self, server, corpus):
        bodies = [_fasta(corpus[i % len(corpus): i % len(corpus) + 2])
                  for i in range(16)]
        job_ids: list[str] = [None] * 16
        errors: list[Exception] = []

        def submit(i):
            try:
                _, payload = _post(server, "/jobs", bodies[i])
                job_ids[i] = payload["job_id"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(job_ids)) == 16
        states = {}
        for job_id in job_ids:
            record, _ = _wait_terminal(server, job_id)
            states[job_id] = record["state"]
        assert set(states.values()) == {DONE}
