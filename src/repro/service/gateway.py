"""Asyncio JSON/REST gateway in front of a :class:`GridService`.

Stdlib-only: the server is ``asyncio.start_server`` plus a deliberately
minimal HTTP/1.1 implementation (request line, headers, Content-Length
body).  The point of this module is not a web framework — it is that the
*protocol stack underneath runs unchanged*: the gateway owns an
:class:`~repro.service.aclock.AsyncioClock` and hands it to the same
``GridService``/heartbeat/matchmaker objects the DES drives with its
:class:`~repro.sim.core.Environment`.

Connections persist: one connection serves requests until the client
closes it, a request says ``Connection: close`` (or is HTTP/1.0 without
``keep-alive``), or a request cannot be framed exactly — a torn or
over-long line, a bad or oversize ``Content-Length``, any
``Transfer-Encoding`` — which gets a 400 and a close, so no leftover byte
is ever read as the next request.  :meth:`Gateway.stop` closes every open
connection and waits for its handler.

Routes::

    POST   /jobs            submit a job spec (workload-trace JSON form)
    GET    /jobs            list jobs; ?status=running filters
    GET    /jobs/<id>       one job's ledger record
    DELETE /jobs/<id>       cancel (409 once running or terminal)
    GET    /health          population, queue depth, ledger counts
    GET    /metrics         metrics snapshot (+ request latencies)
    POST   /nodes/<id>/fail chaos hook: crash one grid node

All handlers run on the event loop thread, so service state needs no
locking; job execution "runs" as dilated-clock timers on the same loop.

Fail closed: once a clock callback has raised, the clock runs nothing more
(:attr:`~repro.service.aclock.AsyncioClock.failure`), ``GET /health``
answers 503 with ``"status": "failed"`` and the exception, and
``POST /jobs`` answers 503 — the grid state behind it stopped mid-update.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, Dict, Optional, Tuple

from .core import CancelError, GridService
from .ledger import JobStatus

__all__ = ["Gateway"]

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_MAX_BODY = 1 << 20  # 1 MiB; job specs are tiny
#: the methods some route serves; the request counter books any other
#: method the client names as ``OTHER``, so it cannot grow a key per token
_ROUTED_METHODS = frozenset({"GET", "POST", "DELETE"})


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_line(reader: asyncio.StreamReader) -> Optional[str]:
    """One whole line, stripped; ``None`` when the stream ended before it."""
    try:
        raw = await reader.readline()
    except ValueError:  # longer than the stream reader's 64 KiB limit
        raise _HttpError(400, "request or header line too long")
    if not raw:
        return None
    if not raw.endswith(b"\n"):
        raise _HttpError(400, "connection closed mid-line")
    return raw.decode("latin-1").strip()


def _content_length(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()):
        raise _HttpError(400, "bad Content-Length")
    length = int(raw)
    if length > _MAX_BODY:
        raise _HttpError(400, "request body too large")
    return length


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    path, _, raw_query = target.partition("?")
    query: Dict[str, str] = {}
    for pair in raw_query.split("&"):
        if pair:
            key, _, value = pair.partition("=")
            query[key] = value
    return path, query


def _json_body(raw: bytes) -> Optional[Dict]:
    if not raw:
        return None
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}")


class Gateway:
    """Serve one :class:`GridService` over HTTP on the running loop."""

    def __init__(
        self,
        service: GridService,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics=None,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; real port filled in by start()
        self._server: Optional[asyncio.AbstractServer] = None
        #: every open connection's handler task and its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stopping = False
        self.metrics = metrics
        if metrics is not None:
            scope = metrics.scope("service")
            self._request_counter = scope.counter("requests")
            #: wall-clock request latencies, streamed into a constant-
            #: memory sketch (p50/p90/p99 survive any request volume)
            self._latency_sketch = scope.quantile_sketch("request_latency")
            self._request_window = scope.windowed_counter("request_rate")
        else:
            self._request_counter = None
            self._latency_sketch = None
            self._request_window = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Start the grid engine and begin accepting connections."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        tracer = self.service.tracer
        if tracer is not None:
            tracer.emit(
                self.service.clock.now,
                "service.listen",
                host=self.host,
                port=self.port,
            )

    async def stop(self) -> None:
        """Stop listening, close every open connection, stop the engine.

        No handler outlives this call: each open connection is closed and
        its handler awaited (a handler not yet started sees
        ``_stopping`` and returns at once), so ``wait_closed`` — which on
        Python 3.12+ waits for every connection — returns.
        """
        if self._server is not None:
            self._server.close()
            self._stopping = True
            handlers = list(self._connections)
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.service.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- HTTP plumbing -----------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            if not self._stopping:
                await self._serve(reader, writer)
        except ConnectionError:
            pass  # the peer went away; there is no one left to answer
        finally:
            self._connections.pop(task, None)
            writer.close()
            with contextlib.suppress(ConnectionError, RuntimeError):
                await writer.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer requests on one connection until either side ends it."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                request_line = await _read_line(reader)
                if request_line is None:
                    return  # the client closed between requests
                # idle time on a kept-alive connection is not request latency
                started = loop.time()
                method, target, headers, raw_body, keep_alive = (
                    await self._read_request(reader, request_line)
                )
            except _HttpError as exc:
                # unframed: no byte after this point can be trusted to
                # start the next request
                self._write_response(
                    writer, exc.status, {"error": exc.message}, False
                )
                await writer.drain()
                return
            try:
                path, query = _split_target(target)
                body = _json_body(raw_body)
                status, payload = self._route(method, path, query, body, headers)
            except _HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            except Exception as exc:  # don't let one request kill the loop
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._write_response(writer, status, payload, keep_alive)
            if self._request_counter is not None:
                booked = method if method in _ROUTED_METHODS else "OTHER"
                self._request_counter.add(f"{booked} {status}")
            if self._latency_sketch is not None:
                self._latency_sketch.insert(loop.time() - started)
                self._request_window.add(self.service.clock.now)
            await writer.drain()
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, request_line: str
    ) -> Tuple[str, str, Dict[str, str], bytes, bool]:
        """Frame the rest of one request: method, target, headers, body,
        and whether the connection stays open after the response.

        Anything that cannot be framed exactly raises a 400.
        """
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, version = parts
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _HttpError(400, f"unsupported version {version[:16]!r}")
        headers: Dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line is None:
                raise _HttpError(400, "connection closed mid-head")
            if not line:
                break
            name, colon, value = line.partition(":")
            name = name.strip().lower()
            if not colon:
                raise _HttpError(400, f"malformed header line: {line[:64]!r}")
            if name == "content-length" and name in headers:
                raise _HttpError(400, "repeated Content-Length")
            headers[name] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(400, "Transfer-Encoding is not supported")
        length = _content_length(headers.get("content-length", "0"))
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "connection closed mid-body")
        tokens = {
            token.strip().lower()
            for token in headers.get("connection", "").split(",")
        }
        keep_alive = "close" not in tokens and (
            version == "HTTP/1.1" or "keep-alive" in tokens
        )
        return method.upper(), target, headers, body, keep_alive

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
    ) -> None:
        # str payloads are pre-rendered text (Prometheus exposition);
        # everything else is the JSON API
        if isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    # -- routing -----------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[Dict],
        headers: Dict[str, str],
    ) -> Tuple[int, Any]:
        segments = [s for s in path.split("/") if s]
        if segments == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return self._list_jobs(query)
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(segments) == 2 and segments[0] == "jobs":
            job_id = self._job_id(segments[1])
            if method == "GET":
                return self._job_status(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            raise _HttpError(405, f"{method} not allowed on /jobs/<id>")
        if segments == ["health"] and method == "GET":
            return self._health()
        if segments == ["metrics"] and method == "GET":
            return self._metrics(query, headers)
        if (
            len(segments) == 3
            and segments[0] == "nodes"
            and segments[2] == "fail"
            and method == "POST"
        ):
            return self._fail_node(self._job_id(segments[1]))
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _job_id(raw: str) -> int:
        """A job or node id in canonical decimal form: ``int`` also reads
        ``+7``, ``07``, ``0_7`` and `` 7`` as 7, so each would alias id 7."""
        try:
            value = int(raw)
        except ValueError:
            raise _HttpError(400, f"bad id {raw!r}")
        if str(value) != raw:
            raise _HttpError(400, f"bad id {raw!r}")
        if not -(2**63) <= value < 2**63:
            # no ledger or grid ever issued it (and sqlite cannot bind it)
            raise _HttpError(404, f"id {raw[:24]}... not found")
        return value

    # -- handlers ----------------------------------------------------------------
    def _health(self) -> Tuple[int, Any]:
        failure = self.service.clock.failure
        if failure is None:
            return 200, self.service.health()
        return 503, {
            **self.service.health(), "status": "failed", "error": repr(failure)
        }

    def _submit(self, body: Optional[Dict]) -> Tuple[int, Any]:
        failure = self.service.clock.failure
        if failure is not None:
            raise _HttpError(503, f"the grid clock stopped on {failure!r}")
        if not isinstance(body, dict):
            raise _HttpError(400, "job spec body required")
        if "requirements" not in body or "base_duration" not in body:
            raise _HttpError(
                400, "job spec needs 'requirements' and 'base_duration'"
            )
        try:
            job_id = self.service.submit(body)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _HttpError(400, f"bad job spec: {exc}")
        return 201, {"job_id": job_id}

    def _job_status(self, job_id: int) -> Tuple[int, Any]:
        try:
            record = self.service.ledger.record(job_id)
        except KeyError:
            raise _HttpError(404, f"job {job_id} not found")
        return 200, record.as_dict()

    def _list_jobs(self, query: Dict[str, str]) -> Tuple[int, Any]:
        status: Optional[JobStatus] = None
        if "status" in query:
            try:
                status = JobStatus(query["status"].upper())
            except ValueError:
                raise _HttpError(400, f"unknown status {query['status']!r}")
        records = self.service.ledger.records(status)
        return 200, {"jobs": [r.as_dict() for r in records]}

    def _cancel(self, job_id: int) -> Tuple[int, Any]:
        try:
            self.service.cancel(job_id)
        except KeyError:
            raise _HttpError(404, f"job {job_id} not found")
        except CancelError as exc:
            raise _HttpError(409, str(exc))
        return 200, self.service.ledger.record(job_id).as_dict()

    def _metrics(
        self, query: Dict[str, str], headers: Dict[str, str]
    ) -> Tuple[int, Any]:
        # Content negotiation: JSON snapshot by default; the Prometheus
        # text exposition for scrapers (Accept: text/plain, like a stock
        # Prometheus agent sends) or explicitly via ?format=prom
        accept = headers.get("accept", "")
        wants_text = query.get("format") == "prom" or (
            "text/plain" in accept and "application/json" not in accept
        )
        if wants_text:
            return 200, self._prometheus_text()
        metrics = self.service.metrics
        counts = self.service.ledger.counts()
        payload: Dict[str, Any] = {
            "now": self.service.clock.now,
            "queue_depth": self.service.queue_depth(),
            "running": self.service.running_jobs(),
            "jobs": {status.value: n for status, n in counts.items() if n},
        }
        if metrics is not None:
            payload["monitors"] = metrics.snapshot(now=self.service.clock.now)
        return 200, payload

    def _prometheus_text(self) -> str:
        from ..obs.prom import render_prometheus

        now = self.service.clock.now
        metrics = self.service.metrics
        body = (
            render_prometheus(metrics, now=now) if metrics is not None else ""
        )
        # instantaneous service gauges, present even without a registry
        counts = self.service.ledger.counts()
        extra = [
            "# TYPE repro_service_queue_depth_current gauge",
            f"repro_service_queue_depth_current {self.service.queue_depth()}",
            "# TYPE repro_service_running_jobs gauge",
            f"repro_service_running_jobs {self.service.running_jobs()}",
            "# TYPE repro_service_jobs gauge",
        ]
        extra.extend(
            f'repro_service_jobs{{status="{status.value}"}} {n}'
            for status, n in sorted(counts.items(), key=lambda kv: kv[0].value)
            if n
        )
        return body + "\n".join(extra) + "\n"

    def _fail_node(self, node_id: int) -> Tuple[int, Any]:
        if node_id not in self.service.grid_nodes:
            raise _HttpError(404, f"node {node_id} not found or not alive")
        lost = self.service.fail_node(node_id)
        return 200, {"node_id": node_id, "jobs_lost": lost}
