"""HTTP load for the ``serve`` workload: open-loop and closed-loop phases.

Open loop: one thread submits on a fixed schedule regardless of progress
(independent users), one thread polls every outstanding job and fetches
its result.  A job's latency runs from when its submit was due until its
result bytes are read, so a stall also charges the jobs queued behind it.
Closed loop: ``clients`` threads each submit, poll until done and fetch
the result before submitting again (callers that wait for a reply).
"""
from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence


# Seconds a request may take, and a job's result may take after the
# load's last submit.
TIMEOUT_S = 60.0


class LoadError(RuntimeError):
    pass


@dataclass
class JobSample:
    query_id: str
    due: float
    sent: float = 0.0
    job_id: str = ""
    done: float = 0.0
    polls: int = 0
    result: bytes = b""
    residence_s: float = 0.0
    error: Optional[str] = None


class Client:
    """Opens a connection per request, as urllib and curl clients do.

    Over a kept-alive connection every response stalls ~40 ms: the server
    writes headers and body in two sends, and Nagle's algorithm holds the
    body until the client's delayed ACK.  That stall is the service's, but
    it would also make one polling thread the bottleneck of the load.
    """

    def __init__(self, host: str, port: int):
        self._address = (host, port, TIMEOUT_S)

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self._address)
        try:
            conn.request(method, path, body=body, headers={"Connection": "close"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


def _residence_s(job: dict) -> float:
    finished = datetime.fromisoformat(job["finished_at"])
    submitted = datetime.fromisoformat(job["submitted_at"])
    return (finished - submitted).total_seconds()


def _submit(client: Client, sample: JobSample, body: bytes) -> bool:
    sample.sent = time.perf_counter()
    status, data = client.call("POST", "/jobs", body)
    if status != 202:
        sample.error = f"submit returned {status}"
        return False
    sample.job_id = json.loads(data)["job_id"]
    return True


def _poll_once(client: Client, sample: JobSample) -> bool:
    """One status poll; True once the job is settled (done or failed)."""
    sample.polls += 1
    status, data = client.call("GET", f"/jobs/{sample.job_id}")
    if status != 200:
        sample.error = f"poll returned {status}"
        return True
    job = json.loads(data)
    if job["state"] == "Failed":
        sample.error = f"job failed: {job.get('error')}"
        return True
    if job["state"] != "Done":
        return False
    status, body = client.call("GET", f"/jobs/{sample.job_id}/result")
    sample.done = time.perf_counter()
    if status != 200:
        sample.error = f"result returned {status}"
        return True
    sample.result = body
    sample.residence_s = _residence_s(job)
    return True


def open_loop(host: str, port: int, jobs: Sequence[tuple[str, bytes]], rate: float,
              poll_s: float) -> list[JobSample]:
    start = time.perf_counter() + 0.05
    samples = [JobSample(qid, due=start + i / rate) for i, (qid, _) in enumerate(jobs)]
    handoff: queue.Queue = queue.Queue()
    deadline = start + len(jobs) / rate + TIMEOUT_S
    errors: list[BaseException] = []

    def submitter() -> None:
        client = Client(host, port)
        try:
            for sample, (_, body) in zip(samples, jobs):
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if _submit(client, sample, body):
                    handoff.put(sample)
        except Exception as exc:  # noqa: BLE001 - surfaced by the caller
            errors.append(exc)
        finally:
            handoff.put(None)

    def poller() -> None:
        client = Client(host, port)
        active: list[JobSample] = []
        submitting = True
        try:
            while submitting or active:
                if time.perf_counter() > deadline:
                    for sample in active:
                        sample.error = "no result before the deadline"
                    return
                try:
                    item = handoff.get(timeout=poll_s) if not active else handoff.get_nowait()
                    while True:
                        if item is None:
                            submitting = False
                        else:
                            active.append(item)
                        item = handoff.get_nowait()
                except queue.Empty:
                    pass
                active = [s for s in active if not _poll_once(client, s)]
                if active:
                    time.sleep(poll_s)
        except Exception as exc:  # noqa: BLE001 - surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=submitter), threading.Thread(target=poller)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(deadline - time.perf_counter() + 30)
    if any(thread.is_alive() for thread in threads):
        raise LoadError("open-loop threads did not finish")
    if errors:
        raise LoadError(f"open-loop client error: {errors[0]!r}")
    return samples


def closed_loop(host: str, port: int, jobs: Sequence[tuple[str, bytes]], clients: int,
                seconds: float, poll_s: float) -> tuple[list[JobSample], float]:
    """(samples, perf_counter time at which the clients started)."""
    samples: list[JobSample] = []
    lock = threading.Lock()
    errors: list[BaseException] = []
    counter = iter(range(1 << 62))
    start = time.perf_counter()
    stop = start + seconds

    def worker() -> None:
        client = Client(host, port)
        try:
            while time.perf_counter() < stop:
                with lock:
                    qid, body = jobs[next(counter) % len(jobs)]
                sample = JobSample(qid, due=time.perf_counter())
                if _submit(client, sample, body):
                    while not _poll_once(client, sample):
                        if time.perf_counter() > stop + TIMEOUT_S:
                            sample.error = "no result before the deadline"
                            break
                        time.sleep(poll_s)
                with lock:
                    samples.append(sample)
        except Exception as exc:  # noqa: BLE001 - surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(stop + TIMEOUT_S - time.perf_counter() + 30)
    if any(thread.is_alive() for thread in threads):
        raise LoadError("closed-loop threads did not finish")
    if errors:
        raise LoadError(f"closed-loop client error: {errors[0]!r}")
    return samples, start
