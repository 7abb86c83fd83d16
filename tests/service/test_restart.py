"""Restart survival: orphan recovery after abrupt death, in-process and kill -9.

The in-process test drives two successive :class:`GridService` instances
over the same sqlite file under a dilated ``AsyncioClock`` — the wall-clock
analogue of ``tests/service/test_core.py::TestRestartRecovery``.  The
subprocess test is the acceptance criterion verbatim: ``kill -9`` a serving
gateway mid-workload, restart it on the same ledger, and prove the replay
completes with accounting intact and zero duplicate executions.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.gridsim.invariants import check_service_accounting
from repro.service import (
    AsyncioClock,
    Gateway,
    GridService,
    JobStatus,
    ServiceClient,
    ServiceConfig,
    TERMINAL_STATES,
    open_ledger,
)
from repro.service.replay import record_trace
from repro.workload.presets import TINY_LOAD
from repro.workload.trace import load_jobs

DILATION = 2_000.0
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wl") / "workload.jsonl")
    record_trace(TINY_LOAD, path)
    return path


def ledger_census(db_path):
    """Read a ledger's status census without a service attached."""
    ledger = open_ledger(db_path)
    try:
        counts = {s.value: n for s, n in ledger.counts().items() if n}
        in_flight = len(ledger.in_flight())
        completions = {
            r.job_id: ledger.completions(r.job_id) for r in ledger.records()
        }
    finally:
        ledger.close()
    return counts, in_flight, completions


class TestInProcessRestart:
    def test_orphans_drain_after_restart_on_dilated_clock(
        self, tmp_path, trace_path
    ):
        db = str(tmp_path / "ledger.sqlite")
        jobs = load_jobs(trace_path)[:20]

        async def first_life():
            loop = asyncio.get_running_loop()
            clock = AsyncioClock(loop=loop, dilation=DILATION)
            ledger = open_ledger(db)
            service = GridService(
                ServiceConfig(preset=TINY_LOAD), ledger, clock
            )
            gateway = Gateway(service)
            await gateway.start()
            client = ServiceClient(gateway.url, timeout=30.0)
            ids = await asyncio.to_thread(
                lambda: [client.submit(j) for j in jobs]
            )
            # give the engine a moment so some jobs are MATCHED/RUNNING,
            # then drop everything without a clean stop — no transitions
            # are written; the sqlite file is left mid-flight
            await asyncio.sleep(0.2)
            in_flight = len(ledger.in_flight())
            gateway._server.close()
            ledger.close()
            return ids, in_flight

        ids, in_flight = asyncio.run(first_life())
        assert in_flight > 0, "first life drained before the crash point"

        async def second_life():
            loop = asyncio.get_running_loop()
            ledger = open_ledger(db)
            origin = max(
                (r.updated_at for r in ledger.records()), default=0.0
            )
            clock = AsyncioClock(
                loop=loop, dilation=DILATION, origin=origin
            )
            service = GridService(
                ServiceConfig(preset=TINY_LOAD), ledger, clock
            )
            gateway = Gateway(service)
            await gateway.start()  # start() runs recover()
            client = ServiceClient(gateway.url, timeout=30.0)
            try:
                views = await asyncio.to_thread(
                    client.wait, ids, 60.0
                )
                check_service_accounting(service, final=True)
                completions = {i: service.ledger.completions(i) for i in ids}
                return views, completions
            finally:
                await gateway.stop()
                ledger.close()

        views, completions = asyncio.run(second_life())
        assert set(views) == set(ids)
        assert all(v.terminal for v in views.values())
        # clock origin resumed past the first life's persisted timestamps,
        # so no terminal record can predate its own submission
        for view in views.values():
            assert view.updated_at >= view.submitted_at
        # the headline invariant: zero duplicate executions across restart
        for job_id, count in completions.items():
            assert count <= 1
            if views[job_id].status is JobStatus.COMPLETED:
                assert count == 1


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(db, port, dilation=300.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--db",
            db,
            "--port",
            str(port),
            "--dilation",
            str(dilation),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died on startup (rc={proc.returncode})")
        try:
            with urllib.request.urlopen(f"{url}/health", timeout=1.0) as resp:
                if json.load(resp)["status"] == "ok":
                    return proc, url
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not come up within 20s")


class TestKillDashNine:
    def test_sigkill_mid_workload_then_restart_completes(
        self, tmp_path, trace_path
    ):
        db = str(tmp_path / "ledger.sqlite")
        port = free_port()
        jobs = load_jobs(trace_path)[:30]

        proc, url = spawn_server(db, port)
        try:
            client = ServiceClient(url, timeout=30.0)
            ids = [client.submit(j) for j in jobs]
        finally:
            # no drain, no shutdown hooks: the hard-kill acceptance case
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)

        counts, in_flight, _ = ledger_census(db)
        assert sum(counts.values()) == len(ids)
        assert in_flight > 0, "kill landed after the workload drained"

        # the restart drains the orphans on the in-process test's dilation
        proc, url = spawn_server(db, free_port(), dilation=DILATION)
        try:
            client = ServiceClient(url, timeout=30.0)
            views = client.wait(ids, timeout=90.0)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10.0)

        assert all(v.terminal for v in views.values())
        counts, in_flight, completions = ledger_census(db)
        assert in_flight == 0
        assert sum(counts.values()) == len(ids)
        terminal = sum(counts.get(s.value, 0) for s in TERMINAL_STATES)
        assert terminal == len(ids)
        # zero duplicate executions: at most one RUNNING->COMPLETED edge
        # per job across both server lives
        for job_id in ids:
            assert completions[job_id] <= 1
            if views[job_id].status is JobStatus.COMPLETED:
                assert completions[job_id] == 1
