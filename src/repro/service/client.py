"""Typed synchronous client for the gateway's JSON/REST API.

Built on :mod:`http.client` (stdlib, blocking) so callers — the replay
harness, the CI smoke test, a user shell — need no asyncio of their own.
A client keeps one HTTP/1.1 connection open across calls and serialises
its requests with a lock, so threads may share it.  Before reusing the
connection it checks whether the server has closed it (or sent bytes
nobody asked for) while it sat idle, and if so reconnects before sending
anything.  Any error drops the connection and is re-raised; a request
that was already written is never sent again, so a submit cannot land
twice.  Status strings coming back over the wire are parsed into
:class:`~repro.service.ledger.JobStatus`, so client code compares enums,
not strings.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from ..model.job import Job
from ..workload.trace import job_to_dict
from .ledger import JobStatus, TERMINAL_STATES

__all__ = ["JobView", "ServiceClient", "ServiceError"]

#: seconds :meth:`ServiceClient.wait` sleeps between status sweeps
POLL_INTERVAL = 0.05


class ServiceError(RuntimeError):
    """A non-2xx response from the gateway."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


@dataclass(frozen=True)
class JobView:
    """One job's ledger record, as seen over the wire."""

    job_id: int
    status: JobStatus
    node_id: Optional[int]
    attempts: int
    submitted_at: float
    updated_at: float
    detail: str = ""

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobView":
        return cls(
            job_id=int(data["job_id"]),
            status=JobStatus(data["status"]),
            node_id=data.get("node_id"),
            attempts=int(data.get("attempts", 0)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
            detail=data.get("detail", "") or "",
        )


def _readable(sock: socket.socket) -> bool:
    """Would a read on ``sock`` return at once (data or EOF)?"""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class ServiceClient:
    """Blocking client bound to one gateway base URL."""

    def __init__(self, url: str, timeout: float = 10.0):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// urls supported, got {url!r}")
        netloc = parsed.netloc or parsed.path  # allow bare "host:port"
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()

    # -- transport ---------------------------------------------------------------
    def close(self) -> None:
        """Close the kept-alive connection; the next call opens a new one."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        """The open connection, unless the server ended it while idle."""
        conn = self._conn
        if conn is not None and conn.sock is not None and _readable(conn.sock):
            # between requests the server owes nothing: a readable socket
            # is EOF (it closed) or junk, and neither may meet our request
            self._drop()
            conn = None
        if conn is None:
            conn = self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return conn

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Any:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        with self._lock:
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except BaseException:
                self._drop()
                raise
        data = json.loads(raw) if raw else None
        if response.status >= 400:
            message = (
                data.get("error", raw.decode(errors="replace"))
                if isinstance(data, dict)
                else raw.decode(errors="replace")
            )
            raise ServiceError(response.status, message)
        return data

    # -- API ---------------------------------------------------------------------
    def submit(self, job: Union[Job, Dict[str, Any]]) -> int:
        """Submit a job (a :class:`Job` or its trace-dict form); returns its id."""
        spec = job_to_dict(job) if isinstance(job, Job) else job
        return int(self._request("POST", "/jobs", spec)["job_id"])

    def status(self, job_id: int) -> JobView:
        return JobView.from_dict(self._request("GET", f"/jobs/{job_id}"))

    def cancel(self, job_id: int) -> JobView:
        return JobView.from_dict(self._request("DELETE", f"/jobs/{job_id}"))

    def jobs(self, status: Optional[JobStatus] = None) -> List[JobView]:
        path = "/jobs"
        if status is not None:
            path += f"?status={status.value}"
        return [
            JobView.from_dict(item)
            for item in self._request("GET", path)["jobs"]
        ]

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def fail_node(self, node_id: int) -> List[int]:
        """Chaos hook: crash one grid node; returns the lost job ids."""
        return self._request("POST", f"/nodes/{node_id}/fail")["jobs_lost"]

    def wait(
        self,
        job_ids: Iterable[int],
        timeout: float = 60.0,
    ) -> Dict[int, JobView]:
        """Block until every job reaches a terminal state (or timeout).

        Raises :class:`TimeoutError` naming the stragglers; wall-clock
        timeout, independent of the service's dilated model clock.
        """
        pending = set(job_ids)
        done: Dict[int, JobView] = {}
        deadline = time.monotonic() + timeout
        while pending:
            for job_id in sorted(pending):
                view = self.status(job_id)
                if view.terminal:
                    done[job_id] = view
                    pending.discard(job_id)
            if pending:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"{len(pending)} jobs not terminal after "
                        f"{timeout}s: {sorted(pending)[:5]}"
                    )
                time.sleep(POLL_INTERVAL)
        return done
