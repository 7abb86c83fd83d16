"""Gateway + client over a real socket, under a heavily dilated clock."""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import select
import signal
import socket
import sys
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.service import (
    AsyncioClock,
    Gateway,
    GridService,
    JobStatus,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    open_ledger,
)
from repro.service.replay import record_trace, replay_trace
from repro.workload.presets import TINY_LOAD
from repro.workload.trace import job_to_dict, load_jobs

DILATION = 2_000.0


def run_gateway(
    scenario, metrics=None, ledger_path=None, loop_errors=None, **config_kwargs
):
    """Host a gateway on an ephemeral port; run ``scenario(client, service)``
    in a worker thread (the blocking client must stay off the loop).  No
    scenario may leave an unhandled exception on the event loop, unless it
    passes a ``loop_errors`` list to receive them.  The ledger is in memory
    unless ``ledger_path`` names a sqlite file."""
    expected = loop_errors is not None
    loop_errors = loop_errors if expected else []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        clock = AsyncioClock(loop=loop, dilation=DILATION)
        ledger = open_ledger(ledger_path)
        config = ServiceConfig(preset=TINY_LOAD, **config_kwargs)
        service = GridService(config, ledger, clock, metrics=metrics)
        gateway = Gateway(service, metrics=metrics)
        await gateway.start()
        client = ServiceClient(gateway.url, timeout=30.0)
        try:
            result = await asyncio.to_thread(scenario, client, service)
        finally:
            # the client still holds its connection: stop() must close it
            await gateway.stop()
            client.close()
        gc.collect()  # a never-retrieved task exception reports on collection
        assert expected or not loop_errors, loop_errors
        return result

    return asyncio.run(main())


def raw_get(host, port, target, headers=None):
    """One HTTP GET over a bare socket; returns (head, body) as text.

    It reads to EOF, so it asks the gateway to close after the response."""
    request = f"GET {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
    for name, value in (headers or {}).items():
        request += f"{name}: {value}\r\n"
    request += "\r\n"
    with socket.create_connection((host, port), timeout=10.0) as raw:
        raw.sendall(request.encode("latin-1"))
        chunks = []
        while True:
            data = raw.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head.decode("latin-1"), body.decode()


@pytest.fixture(scope="module")
def trace_jobs(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wl") / "workload.jsonl")
    record_trace(TINY_LOAD, path)
    return load_jobs(path)


class TestEndToEnd:
    def test_replay_drains_to_completed(self, trace_jobs):
        def scenario(client, service):
            summary = replay_trace(client, trace_jobs[:20], timeout=60.0)
            health = client.health()
            return summary, health

        summary, health = run_gateway(scenario)
        assert summary["terminal"] == {"COMPLETED": 20}
        assert health["jobs"] == {"COMPLETED": 20}
        assert health["population"] == TINY_LOAD.nodes

    def test_status_and_listing(self, trace_jobs):
        def scenario(client, service):
            job_id = client.submit(trace_jobs[0])
            view = client.status(job_id)
            assert view.job_id == job_id
            assert not view.terminal or view.status is JobStatus.COMPLETED
            client.wait([job_id], timeout=30.0)
            done = client.jobs(JobStatus.COMPLETED)
            assert [v.job_id for v in done] == [job_id]
            assert client.jobs(JobStatus.RUNNING) == []
            return client.status(job_id)

        final = run_gateway(scenario)
        assert final.status is JobStatus.COMPLETED
        assert final.node_id is not None

    def test_metrics_exposes_latency_and_census(self, trace_jobs):
        def scenario(client, service):
            ids = [client.submit(j) for j in trace_jobs[:5]]
            client.wait(ids, timeout=30.0)
            return client.metrics()

        metrics = run_gateway(scenario)
        assert metrics["jobs"] == {"COMPLETED": 5}
        assert metrics["queue_depth"] == 0

    def test_metrics_prometheus_scrape(self, trace_jobs):
        """Accept: text/plain gets the exposition; plain GET stays JSON."""

        def scenario(client, service):
            ids = [client.submit(j) for j in trace_jobs[:3]]
            client.wait(ids, timeout=30.0)
            scraped = raw_get(
                client.host,
                client.port,
                "/metrics",
                {"Accept": "text/plain"},
            )
            explicit = raw_get(client.host, client.port, "/metrics?format=prom")
            return scraped, explicit, client.metrics()

        (head, body), (_, body2), json_payload = run_gateway(
            scenario, metrics=MetricsRegistry()
        )
        assert "200 OK" in head
        assert "text/plain; version=0.0.4" in head
        assert '# TYPE repro_service_jobs gauge' in body
        assert 'repro_service_jobs{status="COMPLETED"} 3' in body
        # the request-latency sketch renders as a summary with quantiles
        assert "# TYPE repro_service_request_latency summary" in body
        assert 'repro_service_request_latency{quantile="0.5"}' in body
        assert "repro_service_requests_total" in body
        # ?format=prom negotiates text without any Accept header
        assert "repro_service_queue_depth_current" in body2
        # the JSON default keeps its shape, now with monitor snapshots
        assert json_payload["jobs"] == {"COMPLETED": 3}
        assert json_payload["monitors"]["service.request_latency"][
            "kind"
        ] == "quantile_sketch"

    def test_chaos_fail_node_recovers(self, trace_jobs):
        def scenario(client, service):
            ids = [client.submit(j) for j in trace_jobs[:15]]
            # crash whichever node is carrying live work
            for view in map(client.status, ids):
                if view.status is JobStatus.RUNNING and view.node_id is not None:
                    lost = client.fail_node(view.node_id)
                    break
            else:
                lost = []
            views = client.wait(ids, timeout=60.0)
            return lost, views

        lost, views = run_gateway(scenario)
        assert all(v.terminal for v in views.values())
        for job_id in lost:
            assert views[job_id].status in (
                JobStatus.COMPLETED,
                JobStatus.ABANDONED,
            )

    def test_chaos_recovery_shows_in_metrics(self, trace_jobs):
        """The service records what the faulty grid does, for the same reason:
        one loop.  After a crash with work on it, ``GET /metrics`` carries both
        recovery latency sketches and the recovery event counter."""

        def scenario(client, service):
            ids = [client.submit(j) for j in trace_jobs[:15]]
            lost = []
            for view in map(client.status, ids):
                if view.status is JobStatus.RUNNING and view.node_id is not None:
                    lost = client.fail_node(view.node_id)
                    if lost:
                        break
            client.wait(ids, timeout=60.0)
            scraped = raw_get(client.host, client.port, "/metrics?format=prom")
            return lost, client.metrics(), scraped[1]

        lost, payload, text = run_gateway(scenario, metrics=MetricsRegistry())
        assert lost, "no running job was found to crash"
        monitors = payload["monitors"]
        assert monitors["recovery.events"]["counts"]["detections"] >= 1
        assert monitors["recovery.events"]["kind"] == "counter"
        assert monitors["recovery.detection_latency"]["count"] >= 1
        resolved = monitors["recovery.resubmission_latency"]["count"]
        abandoned = payload["jobs"].get("ABANDONED", 0)
        assert resolved + abandoned >= len(lost)
        assert "repro_recovery_detection_latency" in text
        assert "repro_recovery_resubmission_latency" in text

    def test_total_loss_fails_closed(self, trace_jobs):
        """``POST /nodes/<id>/fail`` for every node: all answer 200, nothing
        reaches the loop's exception handler (``run_gateway`` asserts it),
        every job ends terminal, the heartbeat keeps ticking and ``/health``
        stops saying "ok" about a grid of zero nodes."""

        def scenario(client, service):
            ids = [client.submit(j) for j in trace_jobs[:30]]
            for node_id in sorted(service.grid_nodes):
                client.fail_node(node_id)
            rounds = service.protocol._round
            views = client.wait(ids, timeout=60.0)
            return views, client.health(), service.protocol._round - rounds

        views, health, rounds = run_gateway(scenario)
        assert all(v.terminal for v in views.values())
        assert {v.status for v in views.values()} <= {
            JobStatus.ABANDONED, JobStatus.COMPLETED,
        }
        assert health["population"] == 0 and health["status"] != "ok"
        assert set(health["jobs"]) <= {"ABANDONED", "COMPLETED"}
        # the retry budget alone spans ~30 heartbeat periods
        assert rounds >= 8


def fail_second_round(service, boom):
    """Make the heartbeat round raise ``boom`` on its 2nd call from now."""
    rounds = []
    run_round = service.protocol.run_round

    def failing(now):
        rounds.append(now)
        if len(rounds) == 2:
            raise boom
        run_round(now)

    service.protocol.run_round = failing
    return rounds


class TestClockFailure:
    """A model that raises stops the wall clock as it stops a DES run."""

    PERIOD_S = TINY_LOAD.heartbeat_period / DILATION

    def test_raising_callback_stops_every_timer(self):
        boom = RuntimeError("boom")

        async def main():
            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
            clock = AsyncioClock(loop=loop, dilation=DILATION)
            service = GridService(
                ServiceConfig(preset=TINY_LOAD), open_ledger(None), clock
            )
            steps = []
            step = service.aggregation.step
            service.aggregation.step = lambda: (steps.append(clock.now), step())
            service.start()
            warmup = len(steps)
            rounds = fail_second_round(service, boom)
            late = []
            clock.schedule_callback(
                8 * TINY_LOAD.heartbeat_period, lambda: late.append(clock.now)
            )
            deadline = loop.time() + 30.0
            while clock.failure is None and loop.time() < deadline:
                await asyncio.sleep(self.PERIOD_S / 4)
            await asyncio.sleep(10 * self.PERIOD_S)
            service.stop()
            return clock.failure, rounds, len(steps) - warmup, late, loop_errors

        failure, rounds, steps, late, loop_errors = asyncio.run(main())
        assert failure is boom
        # the round that raised never ran a 3rd time, the other periodic
        # timer ended with it, and a pending one-shot lapsed
        assert len(rounds) == 2 and steps == 2 and late == []
        # still reported the way the loop reports any callback's exception
        assert [ctx["exception"] for ctx in loop_errors] == [boom]

    def test_gateway_answers_503_once_the_clock_stopped(self, trace_jobs):
        boom = RuntimeError("boom")

        def scenario(client, service):
            job_id = client.submit(trace_jobs[0])
            fail_second_round(service, boom)
            deadline = time.monotonic() + 30.0
            while service.clock.failure is None and time.monotonic() < deadline:
                time.sleep(self.PERIOD_S / 4)
            with pytest.raises(ServiceError) as health:
                client.health()
            with pytest.raises(ServiceError) as submit:
                client.submit(trace_jobs[1])
            head, body = raw_get(client.host, client.port, "/health")
            return health.value, submit.value, head, json.loads(body), (
                client.status(job_id)  # queries keep answering
            )

        loop_errors = []
        health, submit, head, body, view = run_gateway(
            scenario, loop_errors=loop_errors
        )
        assert health.status == 503 and "RuntimeError('boom')" in health.message
        assert submit.status == 503 and "RuntimeError('boom')" in submit.message
        assert "503 Service Unavailable" in head
        assert body["status"] == "failed" and body["error"] == repr(boom)
        assert body["population"] == TINY_LOAD.nodes
        assert view.job_id is not None
        assert [ctx["exception"] for ctx in loop_errors] == [boom]

    def test_serve_exits_nonzero_after_a_clock_failure(self, monkeypatch, capsys):
        import repro.service.__main__ as cli

        boom = RuntimeError("boom")
        build = cli._build_stack

        def build_and_break(args, loop):
            stack = build(args, loop)
            service = stack[2]

            def bad():
                raise boom

            service.clock.schedule_callback(1.0, bad)
            loop.call_later(0.2, signal.raise_signal, signal.SIGTERM)
            loop.set_exception_handler(lambda _loop, _ctx: None)
            return stack

        monkeypatch.setattr(cli, "_build_stack", build_and_break)
        code = cli.main(
            ["serve", "--port", "0", "--preset", "tiny", "--dilation", str(DILATION)]
        )
        assert code == 1
        assert "RuntimeError('boom')" in capsys.readouterr().err


class TestHttpErrors:
    def test_unknown_job_is_404(self, trace_jobs):
        def scenario(client, service):
            with pytest.raises(ServiceError) as excinfo:
                client.status(987654)
            return excinfo.value.status

        assert run_gateway(scenario) == 404

    def test_cancel_completed_is_409(self, trace_jobs):
        def scenario(client, service):
            job_id = client.submit(trace_jobs[0])
            client.wait([job_id], timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(job_id)
            return excinfo.value.status

        assert run_gateway(scenario) == 409

    def test_bad_spec_is_400(self, trace_jobs):
        def scenario(client, service):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/jobs", {"nonsense": True})
            status_bad_spec = excinfo.value.status
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/no/such/route")
            return status_bad_spec, excinfo.value.status

        assert run_gateway(scenario) == (400, 404)

    def test_torn_request_does_not_kill_the_server(self, trace_jobs):
        def scenario(client, service):
            with socket.create_connection(
                (client.host, client.port), timeout=5.0
            ) as raw:
                raw.sendall(b"GARBAGE\r\n\r\n")
                raw.recv(1024)
            # the server must still answer real requests afterwards
            return client.health()["status"]

        assert run_gateway(scenario) == "ok"

    @pytest.mark.parametrize(
        "request_head",
        [
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["negative-content-length", "header-line-over-64KiB"],
    )
    def test_hostile_request_gets_400(self, request_head):
        """Fail closed: a 400 status line, nothing unhandled on the loop
        (``run_gateway`` asserts it), and the next request is served."""

        def scenario(client, service):
            with socket.create_connection(
                (client.host, client.port), timeout=5.0
            ) as raw:
                raw.sendall(request_head)
                status_line = raw.recv(1024).split(b"\r\n", 1)[0]
            return status_line, client.health()["status"]

        assert run_gateway(scenario) == (b"HTTP/1.1 400 Bad Request", "ok")

    @pytest.mark.parametrize(
        "method,target,body,status_line",
        [
            # Python's json reads the bare tokens NaN / Infinity; a job that
            # runs for ever would hold its node as RUNNING for ever
            ("POST", "/jobs", b'{"requirements": {"cpu": {}}, "base_duration": NaN}', 400),
            ("POST", "/jobs", b'{"requirements": {"cpu": {}}, "base_duration": Infinity}', 400),
            ("POST", "/jobs", b'{"requirements": {"cpu": {"clock": NaN}}, "base_duration": 60}', 400),
            ("POST", "/jobs", b'{"requirements": {"cpu": {"cores": Infinity}}, "base_duration": 60}', 400),
            ("POST", "/jobs", b'{"requirements": {"cpu": {}}, "base_duration": 60, "submit_time": Infinity}', 400),
            ("POST", "/jobs", b'{"requirements": [1, 2], "base_duration": 60}', 400),
            ("POST", "/jobs", b'{"requirements": {"cpu": [1]}, "base_duration": 60}', 400),
            ("GET", "/jobs/" + "9" * 400, b"", 404),
            ("DELETE", "/jobs/-" + "9" * 400, b"", 404),
        ],
        ids=[
            "duration-nan", "duration-inf", "clock-nan", "cores-inf",
            "submit-time-inf", "requirements-list", "slot-list",
            "get-id-past-int64", "delete-id-past-int64",
        ],
    )
    def test_hostile_value_is_refused(
        self, method, target, body, status_line, tmp_path
    ):
        """Fail closed on well-formed requests carrying values no job or id
        can have: a 4xx status line, no ledger row, nothing unhandled on the
        loop (``run_gateway`` asserts it), and the next request is served.
        On the durable ledger: sqlite is what cannot bind a 400-digit id."""

        def scenario(client, service):
            head = (
                f"{method} {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            with socket.create_connection(
                (client.host, client.port), timeout=5.0
            ) as raw:
                raw.sendall(head + body)
                answer = raw.recv(4096).split(b"\r\n", 1)[0]
            return answer, client.health(), service.ledger.records()

        answer, health, rows = run_gateway(
            scenario, ledger_path=str(tmp_path / "ledger.sqlite")
        )
        phrase = {400: b"Bad Request", 404: b"Not Found"}[status_line]
        assert answer == b"HTTP/1.1 %d %s" % (status_line, phrase)
        assert health["status"] == "ok"
        assert rows == []  # a refused spec is not durable either

    def test_a_non_canonical_id_is_refused(self, trace_jobs):
        """``int`` reads ``+7``, ``07`` and ``0_7`` as 7, so each spelling
        would read, cancel or crash what id 7 names.  Every spelling but the
        canonical one gets 400, and the job's ledger row and the node stay
        as they were."""

        def scenario(client, service):
            spec = {**job_to_dict(trace_jobs[0]), "base_duration": 1e9}
            job_id = client.submit(spec)
            deadline = time.monotonic() + 10.0
            while client.status(job_id).status is not JobStatus.RUNNING:
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.01)
            node_id = client.status(job_id).node_id
            before = service.ledger.record(job_id), client.health()["population"]
            requests = [
                (method, f"/jobs/{alias}")
                for method in ("GET", "DELETE")
                for alias in (f"+{job_id}", f"0{job_id}", f"0_{job_id}")
            ] + [("POST", f"/nodes/{alias}/fail") for alias in (f"+{node_id}", f"0_{node_id}")]
            answers = {}
            raw, stream = raw_connection(client)
            with raw, stream:
                for method, target in requests:
                    raw.sendall(
                        f"{method} {target} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode()
                    )
                    answers[method, target] = read_response(stream)[0]
            after = service.ledger.record(job_id), client.health()["population"]
            return answers, before, after

        answers, before, after = run_gateway(scenario)
        assert set(answers.values()) == {"HTTP/1.1 400 Bad Request"}, answers
        assert after == before

    def test_unrouted_methods_share_one_counter_key(self, trace_jobs):
        """The request counter books a method no route serves as ``OTHER``:
        a client naming a fresh token per request must not grow the counter
        (and ``/metrics``) a key per token, nor touch the routed methods'
        keys."""
        metrics = MetricsRegistry()
        bogus = [f"BREW{i}{'X' * 200}" for i in range(40)]

        def scenario(client, service):
            body = json.dumps(job_to_dict(trace_jobs[0]))
            routed = [
                f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}",
                "GET /health HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                "DELETE /jobs/999999 HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            ]
            unrouted = [
                f"{method} {target} HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                for method in bogus
                for target in ("/jobs", "/nowhere")
            ]
            statuses = []
            raw, stream = raw_connection(client)
            with raw, stream:
                for request in routed + unrouted:
                    raw.sendall(request.encode())
                    statuses.append(read_response(stream)[0])
            return statuses

        statuses = run_gateway(scenario, metrics=metrics)
        assert statuses[:3] == [
            "HTTP/1.1 201 Created", "HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found",
        ]
        assert set(statuses[3:]) == {
            "HTTP/1.1 405 Method Not Allowed", "HTTP/1.1 404 Not Found",
        }
        assert metrics.get("service.requests").as_dict() == {
            "POST 201": 1.0,
            "GET 200": 1.0,
            "DELETE 404": 1.0,
            "OTHER 405": float(len(bogus)),
            "OTHER 404": float(len(bogus)),
        }

    def test_unknown_fields_are_not_stored(self, trace_jobs):
        """The ledger keeps the parsed job, not the body as sent: an extra
        field (here a bare NaN, which is no JSON) is dropped, so the status
        reply stays strict JSON."""

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        def scenario(client, service):
            spec = job_to_dict(trace_jobs[0])
            job_id = client.submit({**spec, "note": float("nan")})
            _head, reply = raw_get(client.host, client.port, f"/jobs/{job_id}")
            return spec, reply, service.ledger.record(job_id).spec

        spec, reply, stored = run_gateway(scenario)
        view = json.loads(reply, parse_constant=refuse)
        assert view["spec"] == stored
        assert set(stored) == {"job_id", "submit_time", "base_duration", "requirements"}
        assert stored == {**spec, "job_id": None}

    def test_unknown_status_filter_is_400(self, trace_jobs):
        def scenario(client, service):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/jobs?status=bogus")
            return excinfo.value.status

        assert run_gateway(scenario) == 400


HEALTH = b"GET /health HTTP/1.1\r\nHost: grid\r\n\r\n"


def raw_connection(client):
    raw = socket.create_connection((client.host, client.port), timeout=10.0)
    return raw, raw.makefile("rb")


def read_response(stream):
    """One response off a socket's binary file: (status line, headers, body)."""
    status = stream.readline().decode("latin-1").strip()
    headers = {}
    while True:
        line = stream.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers.get("content-length", 0)))


def rest_of_stream(stream):
    """What the server sends until it closes the connection."""
    try:
        return stream.read()
    except ConnectionResetError:
        return b""


class TestConnections:
    """HTTP/1.1 persistence, and the framing errors that end it."""

    def test_two_requests_on_one_socket(self):
        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                answers = []
                for _ in range(2):
                    raw.sendall(HEALTH)
                    answers.append(read_response(stream))
                raw.sendall(HEALTH * 2)  # pipelined: two requests, one write
                answers += [read_response(stream), read_response(stream)]
            return answers

        answers = run_gateway(scenario)
        assert len(answers) == 4
        for status, headers, body in answers:
            assert status == "HTTP/1.1 200 OK"
            assert headers["connection"] == "keep-alive"
            assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /health HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_one_response_then_close(self, request_head):
        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                # the request behind it is never answered
                raw.sendall(request_head + HEALTH)
                return read_response(stream), rest_of_stream(stream)

        (status, headers, _), rest = run_gateway(scenario)
        assert status == "HTTP/1.1 200 OK"
        assert headers["connection"] == "close"
        assert rest == b""

    def test_http_1_0_keep_alive_stays_open(self):
        head = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"

        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                raw.sendall(head)
                first = read_response(stream)
                raw.sendall(head)
                return first, read_response(stream)

        for status, headers, _ in run_gateway(scenario):
            assert status == "HTTP/1.1 200 OK"
            assert headers["connection"] == "keep-alive"

    def test_chunked_post_is_refused_and_closed(self, trace_jobs, tmp_path):
        spec = json.dumps(job_to_dict(trace_jobs[0])).encode()
        request = (
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/json\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(spec), spec)
        )

        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                raw.sendall(request)
                answer = read_response(stream)
                rest = rest_of_stream(stream)
            return answer, rest, service.ledger.records(), client.health()

        (status, headers, body), rest, rows, health = run_gateway(
            scenario, ledger_path=str(tmp_path / "ledger.sqlite")
        )
        assert status == "HTTP/1.1 400 Bad Request"
        assert headers["connection"] == "close"
        assert b"Transfer-Encoding" in body
        assert rest == b""  # the chunks were never read as a request
        assert rows == []
        assert health["status"] == "ok"

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /hea",
            b"GET /health HTTP/1.1\r\nHost: gr",
            b"GET /health HTTP/1.1\r\nHost: grid\r\n",
            b'POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{"require',
        ],
        ids=["mid-request-line", "mid-header-line", "mid-head", "mid-body"],
    )
    def test_half_closed_mid_request_gets_400(self, partial):
        """The client shuts its sending side mid-request: a 400 and a close,
        nothing unhandled on the loop (``run_gateway`` asserts it)."""

        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                raw.sendall(partial)
                raw.shutdown(socket.SHUT_WR)
                answer = read_response(stream)
                rest = rest_of_stream(stream)
            return answer, rest, client.health()["status"], service.ledger.records()

        (status, headers, _), rest, health, rows = run_gateway(scenario)
        assert status == "HTTP/1.1 400 Bad Request"
        assert headers["connection"] == "close"
        assert rest == b"" and health == "ok" and rows == []

    def test_idle_connections_do_not_delay_another_client(self):
        def scenario(client, service):
            idle, idle_stream = raw_connection(client)
            stalled, stalled_stream = raw_connection(client)
            with idle, idle_stream, stalled, stalled_stream:
                idle.sendall(HEALTH)
                read_response(idle_stream)  # answered; now idle and open
                stalled.sendall(b"GET /health HTTP/1.1\r\nHost:")  # mid-head
                other = ServiceClient(f"http://{client.host}:{client.port}")
                start = time.monotonic()
                status = other.health()["status"]
                elapsed = time.monotonic() - start
                other.close()
            return status, elapsed

        status, elapsed = run_gateway(scenario)
        assert status == "ok"
        assert elapsed < 2.0

    def test_idle_time_is_not_request_latency(self):
        def scenario(client, service):
            raw, stream = raw_connection(client)
            with raw, stream:
                for _ in range(2):
                    time.sleep(0.5)  # connected, no request on the wire
                    raw.sendall(HEALTH)
                    read_response(stream)
            return client.metrics()["monitors"]["service.request_latency"]

        sketch = run_gateway(scenario, metrics=MetricsRegistry())
        assert sketch["count"] == 2
        assert sketch["max"] < 0.25

    def test_stop_closes_connections_still_open(self):
        """``stop()`` returns with one client idle and one mid-request:
        both connections are closed, nothing is left on the loop."""

        def scenario(client, service):
            idle = ServiceClient(f"http://{client.host}:{client.port}")
            idle.health()  # the client keeps its connection, idle
            raw, stream = raw_connection(client)
            raw.sendall(HEALTH)
            read_response(stream)
            raw.sendall(b"GET /health HTTP/1.1\r\nHost:")  # mid-head
            return idle, raw, stream

        idle, raw, stream = run_gateway(scenario)
        with raw, stream:
            assert rest_of_stream(stream) == b""
        held = idle._conn.sock
        held.settimeout(5.0)
        assert held.recv(1) == b""
        idle.close()


class _DroppingServer:
    """A bare HTTP server that answers one request per connection (or, with
    ``answer=False``, only reads it), then closes without saying so."""

    def __init__(self, answer=True):
        self.answer = answer
        self.requests = []
        self.connections = 0
        self.dropped = threading.Event()
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            conn.settimeout(5.0)
            with conn, conn.makefile("rb") as stream:
                method = stream.readline().split(b" ")[0].decode()
                length = 0
                while line := stream.readline().strip():
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                self.requests.append((method, stream.read(length)))
                if self.answer:
                    body = b'{"job_id": 7, "status": "ok"}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
            self.dropped.set()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


SPEC = {"requirements": {"cpu": {}}, "base_duration": 60.0}


class TestClientConnection:
    """One kept-alive connection per client: reused, replaced when the
    server ended it, never used to send a request twice."""

    def test_reconnects_to_a_gateway_restarted_on_the_same_port(self):
        async def main():
            loop = asyncio.get_running_loop()
            port, client, seen = 0, None, []
            for _life in range(2):
                clock = AsyncioClock(loop=loop, dilation=DILATION)
                service = GridService(
                    ServiceConfig(preset=TINY_LOAD),
                    open_ledger(None),
                    clock,
                )
                gateway = Gateway(service, port=port)
                await gateway.start()
                port = gateway.port
                client = client or ServiceClient(gateway.url, timeout=10.0)
                try:
                    health = await asyncio.to_thread(client.health)
                    seen.append((health["status"], client._conn))
                finally:
                    await gateway.stop()
            client.close()
            return seen

        (first, before), (second, after) = asyncio.run(main())
        assert first == second == "ok"
        assert after is not before  # a fresh connection, not the dead one

    def test_post_after_the_server_dropped_the_connection_goes_once(self):
        server = _DroppingServer()
        client = ServiceClient(server.url, timeout=5.0)
        try:
            assert client.health()["status"] == "ok"
            assert server.dropped.wait(5.0)
            # the drop has reached the client: its idle socket reads EOF
            assert select.select([client._conn.sock], [], [], 5.0)[0]
            assert client.submit(SPEC) == 7
        finally:
            client.close()
            server.close()
        assert [method for method, _ in server.requests] == ["GET", "POST"]
        assert server.connections == 2

    def test_a_written_request_is_never_sent_again(self):
        server = _DroppingServer(answer=False)
        client = ServiceClient(server.url, timeout=5.0)
        try:
            with pytest.raises((OSError, http.client.HTTPException)):
                client.submit(SPEC)
            assert client._conn is None  # dropped with the error
        finally:
            client.close()
            server.close()
        assert [method for method, _ in server.requests] == ["POST"]
        assert server.connections == 1

    def test_threads_share_one_client(self, trace_jobs):
        """More threads than cores and a short switch interval: every
        answer still belongs to the request that asked for it."""

        def scenario(client, service):
            answers = {}

            def worker(index):
                jobs = trace_jobs[index * 5 : (index + 1) * 5]
                answers[index] = [
                    (job_id, client.status(job_id).job_id)
                    for job_id in map(client.submit, jobs)
                ]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            return answers, len(service.ledger.records())

        answers, rows = run_gateway(scenario)
        pairs = [pair for index in range(4) for pair in answers[index]]
        assert rows == 20 and len(pairs) == 20
        assert all(job_id == seen for job_id, seen in pairs)
        assert len({job_id for job_id, _ in pairs}) == 20
