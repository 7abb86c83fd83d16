"""The Clock seam: both backends drive the same protocol code identically."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.aclock import AsyncioClock
from repro.sim.clock import CallbackHandle, Clock
from repro.sim.core import Environment

from ..conftest import cpu_job, make_grid_node

#: model seconds per wall second in the asyncio backend's tests — high
#: enough that a 100-model-second scenario runs in ~50 ms of wall time
DILATION = 2_000.0


class SimDriver:
    """DES backend: the kernel is the clock; advancing is running it."""

    name = "sim"

    def __init__(self):
        self.env = self.clock = Environment()

    def advance(self, model_seconds: float) -> None:
        self.env.run(until=self.env.now + model_seconds)

    def close(self) -> None:
        pass


class AsyncioDriver:
    """Wall-clock backend: advancing is sleeping dilated wall time."""

    name = "asyncio"

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.clock = AsyncioClock(loop=self.loop, dilation=DILATION)

    def advance(self, model_seconds: float) -> None:
        # +25% slack absorbs scheduler latency; assertions below are
        # written to hold under that slack on both backends
        self.loop.run_until_complete(
            asyncio.sleep(model_seconds * 1.25 / DILATION)
        )

    def close(self) -> None:
        self.loop.close()


@pytest.fixture(params=[SimDriver, AsyncioDriver], ids=["sim", "asyncio"])
def driver(request):
    d = request.param()
    yield d
    d.close()


class TestClockContract:
    def test_now_starts_near_zero_and_advances(self, driver):
        # "near zero" must tolerate scheduler latency between the clock's
        # construction and this read: at dilation 2000 even a millisecond
        # of wall time is 2 model seconds, so bound by a fraction of the
        # 100-model-second advance rather than an absolute sliver
        start = driver.clock.now
        assert start < 20.0
        driver.advance(100.0)
        assert driver.clock.now >= start + 100.0

    def test_one_shot_fires_once_after_delay(self, driver):
        fired = []
        driver.clock.schedule_callback(50.0, lambda: fired.append(driver.clock.now))
        driver.advance(20.0)
        assert fired == []
        driver.advance(80.0)
        assert len(fired) == 1
        assert fired[0] >= 50.0
        driver.advance(100.0)
        assert len(fired) == 1

    def test_cancel_prevents_firing(self, driver):
        fired = []
        handle = driver.clock.schedule_callback(50.0, lambda: fired.append(1))
        assert isinstance(handle, CallbackHandle)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        handle.cancel()  # idempotent
        driver.advance(200.0)
        assert fired == []

    def test_call_every_repeats_until_cancelled(self, driver):
        fired = []
        handle = driver.clock.call_every(30.0, lambda: fired.append(1))
        driver.advance(100.0)
        assert len(fired) >= 3
        handle.cancel()
        seen = len(fired)
        driver.advance(100.0)
        assert len(fired) == seen

    def test_call_every_start_delay(self, driver):
        fired = []
        driver.clock.call_every(1_000.0, lambda: fired.append(1), start_delay=10.0)
        driver.advance(50.0)
        assert len(fired) == 1

    def test_call_every_rejects_bad_period(self, driver):
        with pytest.raises(ValueError):
            driver.clock.call_every(0.0, lambda: None)

    def test_grid_node_runs_jobs_on_either_backend(self, driver):
        """The job engine is protocol code: unchanged under both clocks."""
        finished = []
        node = make_grid_node(driver.clock)
        node.on_job_finished = lambda n, j: finished.append(j.job_id)
        node.submit(cpu_job(duration=40.0, job_id=7))
        driver.advance(10.0)
        assert finished == []
        assert node.running_jobs() == 1
        driver.advance(60.0)
        assert finished == [7]
        assert node.is_free()


def test_asyncio_clock_validates_dilation():
    with pytest.raises(ValueError):
        AsyncioClock(loop=asyncio.new_event_loop(), dilation=0.0)


def test_asyncio_clock_origin_offsets_model_time():
    loop = asyncio.new_event_loop()
    try:
        clock = AsyncioClock(loop=loop, dilation=1.0, origin=1234.5)
        assert clock.now >= 1234.5
    finally:
        loop.close()


def test_environment_satisfies_the_seam_shape():
    """GridNode and friends accept a bare Environment: it is a Clock."""
    env = Environment()
    assert isinstance(env, Clock)
    assert isinstance(env.schedule_callback(1.0, lambda: None), CallbackHandle)


def test_protocol_modules_stay_asyncio_free():
    """The acceptance guard: heartbeat/matchmaking/recovery code imports
    no asyncio and branches on no clock backend — the seam is the only
    thing they see."""
    import repro.can.heartbeat
    import repro.gridsim.recovery
    import repro.model.node
    import repro.sched.base
    import repro.sched.can_het
    import repro.sched.can_hom
    import repro.sched.central
    import repro.sim.clock

    import ast

    for module in [
        repro.can.heartbeat,
        repro.gridsim.recovery,
        repro.model.node,
        repro.sched.base,
        repro.sched.can_het,
        repro.sched.can_hom,
        repro.sched.central,
        repro.sim.clock,
    ]:
        tree = ast.parse(open(module.__file__).read())
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom):
                names = [stmt.module or ""]
            else:
                continue
            for name in names:
                assert not name.startswith("asyncio"), (
                    f"{module.__name__} imports asyncio"
                )
                assert "service" not in name, (
                    f"{module.__name__} imports the wall-clock layer"
                )
