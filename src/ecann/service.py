"""Job-based HTTP annotation service over a loaded bundle.

Submissions are raw FASTA request bodies.  Each job gets a random
128-bit hex token, its input is written to a directory-backed store,
and a bounded worker pool drains the queue.  Job metadata lives in one
JSON file per job, written atomically (temp file + rename), so a crash
can never leave a half-written record; the result file is written
before the job flips to Done, so Done always implies a readable result.

On startup the store is recovered: jobs still Pending are re-enqueued,
jobs caught Running are marked Failed (their worker died with the
process).
"""

from __future__ import annotations

import json
import logging
import os
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from .agents import RankingMode
from .bundle import Annotator, annotate_to_tsv
from .dataset import parse_fasta

log = logging.getLogger(__name__)

PENDING = "Pending"
RUNNING = "Running"
DONE = "Done"
FAILED = "Failed"

_LEGAL_TRANSITIONS = {
    (PENDING, RUNNING),
    (RUNNING, DONE),
    (RUNNING, FAILED),
}


class ServiceError(RuntimeError):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass(frozen=True)
class Job:
    job_id: str
    state: str
    submitted_at: str
    input_digest: str
    finished_at: Optional[str] = None
    result_path: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        return cls(**payload)


class JobStore:
    """One directory per concern: jobs/ inputs/ results/.

    All mutations happen under one lock and end in an atomic rename,
    so readers only ever observe complete job records in legal states.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        for sub in ("jobs", "inputs", "results"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def input_path(self, job_id: str) -> Path:
        return self.root / "inputs" / f"{job_id}.fasta"

    def result_path(self, job_id: str) -> Path:
        return self.root / "results" / f"{job_id}.tsv"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _persist(self, job: Job) -> None:
        blob = json.dumps(job.to_dict(), sort_keys=True).encode("ascii")
        self._atomic_write(self._job_path(job.job_id), blob)

    def create(self, body: bytes) -> Job:
        job_id = secrets.token_hex(16)
        with self._lock:
            self._atomic_write(self.input_path(job_id), body)
            job = Job(
                job_id=job_id,
                state=PENDING,
                submitted_at=_now(),
                input_digest=sha256(body).hexdigest(),
            )
            self._persist(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        path = self._job_path(job_id)
        if not path.is_file():
            return None
        return Job.from_dict(json.loads(path.read_text(encoding="ascii")))

    def transition(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        result: Optional[bytes] = None,
    ) -> Job:
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id}")
            if (job.state, state) not in _LEGAL_TRANSITIONS:
                raise ServiceError(
                    f"illegal transition {job.state} -> {state} for job {job_id}"
                )
            result_path = job.result_path
            if state == DONE:
                if result is None:
                    raise ServiceError("Done requires the result bytes")
                # result lands on disk before the state does
                self._atomic_write(self.result_path(job_id), result)
                result_path = str(self.result_path(job_id))
            finished = _now() if state in (DONE, FAILED) else None
            job = replace(job, state=state, error=error,
                          result_path=result_path, finished_at=finished)
            self._persist(job)
        return job

    def result_bytes(self, job_id: str) -> Optional[bytes]:
        path = self.result_path(job_id)
        return path.read_bytes() if path.is_file() else None

    def job_ids(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "jobs").glob("*.json"))

    def drop(self, job_id: str) -> None:
        with self._lock:
            for path in (self._job_path(job_id), self.input_path(job_id),
                         self.result_path(job_id)):
                path.unlink(missing_ok=True)


class AnnotationService:
    """Executes jobs against one read-only annotator."""

    def __init__(
        self,
        annotator: Annotator,
        store: JobStore,
        workers: Optional[int] = None,
        mode: RankingMode = RankingMode.PREDICTION,
        ttl_seconds: Optional[float] = None,
    ):
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ServiceError("ttl_seconds must be >= 0")
        self.annotator = annotator
        self.store = store
        self.mode = mode
        self.ttl_seconds = ttl_seconds
        self._pool = ThreadPoolExecutor(
            max_workers=workers if workers else os.cpu_count() or 1,
            thread_name_prefix="ecann-job",
        )

    def recover(self) -> None:
        """Re-enqueue Pending jobs; fail jobs that died mid-run."""
        for job_id in self.store.job_ids():
            job = self.store.get(job_id)
            if job is None:
                continue
            if job.state == RUNNING:
                self.store.transition(
                    job_id, FAILED, error="service restarted during execution"
                )
                log.warning("job %s failed: interrupted by restart", job_id)
            elif job.state == PENDING:
                self._pool.submit(self._run, job_id)
                log.info("job %s re-enqueued after restart", job_id)

    def submit(self, body: bytes) -> Job:
        job = self.store.create(body)
        self._pool.submit(self._run, job.job_id)
        return job

    def _run(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None or job.state != PENDING:
            return
        try:
            self.store.transition(job_id, RUNNING)
        except ServiceError:
            return  # lost the race to another worker or a recovery pass
        try:
            pairs = parse_fasta(self.store.input_path(job_id))
            tsv, n_failed = annotate_to_tsv(self.annotator, pairs, self.mode)
            if n_failed:
                log.warning("job %s: %d row(s) failed", job_id, n_failed)
            self.store.transition(job_id, DONE, result=tsv.encode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - job isolation is the contract
            log.warning("job %s failed: %s", job_id, exc)
            self.store.transition(job_id, FAILED, error=str(exc))

    def _expired(self, job: Job) -> bool:
        if self.ttl_seconds is None or job.finished_at is None:
            return False
        finished = datetime.fromisoformat(job.finished_at)
        age = (datetime.now(timezone.utc) - finished).total_seconds()
        return age > self.ttl_seconds

    def job_record(self, job_id: str) -> Optional[dict]:
        job = self.store.get(job_id)
        return None if job is None else job.to_dict()

    def result(self, job_id: str) -> Optional[bytes]:
        job = self.store.get(job_id)
        if job is None or job.state != DONE:
            return None
        if self._expired(job):
            self.store.drop(job_id)
            return None
        return self.store.result_bytes(job_id)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate sends; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on kept-alive connections.
    disable_nagle_algorithm = True

    @property
    def service(self) -> AnnotationService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("ascii")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_tsv(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/tab-separated-values")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": "unknown endpoint"})
            return
        raw_length = self.headers.get("Content-Length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            # The body's extent is unknown: answer without reading it and
            # close, so leftover bytes are never parsed as a request.
            self.close_connection = True
            self._send_json(400, {"error": "bad Content-Length"})
            return
        length = int(raw_length)
        body = self.rfile.read(length) if length else b""
        job = self.service.submit(body)
        self._send_json(202, {"job_id": job.job_id})

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        parts = [p for p in self.path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
        elif len(parts) == 2 and parts[0] == "jobs":
            record = self.service.job_record(parts[1])
            if record is None:
                self._send_json(404, {"error": "unknown job id"})
            else:
                self._send_json(200, record)
        elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
            body = self.service.result(parts[1])
            if body is None:
                self._send_json(404, {"error": "result not available"})
            else:
                self._send_tsv(body)
        else:
            self._send_json(404, {"error": "unknown endpoint"})

    def log_message(self, fmt: str, *args) -> None:  # quiet the default stderr spam
        log.debug("%s %s", self.address_string(), fmt % args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # the default listen backlog (5) drops connections under bursts of
    # simultaneous submissions
    request_queue_size = 64


def make_server(
    service: AnnotationService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind an HTTP front end; port 0 picks a free port (see server_address)."""
    server = _Server((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server


def run_service(
    bundle_dir: str | Path,
    store_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8570,
    workers: Optional[int] = None,
    ttl_seconds: Optional[float] = None,
) -> None:
    """Blocking entry point used by the command line."""
    annotator = Annotator.load(bundle_dir)
    service = AnnotationService(
        annotator, JobStore(store_dir), workers=workers, ttl_seconds=ttl_seconds
    )
    service.recover()
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    log.info("serving on %s:%d", bound_host, bound_port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        service.shutdown()
