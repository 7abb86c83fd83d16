"""The wall-clock backend refuses every value that would put NaN or inf
into model time or into the event loop's timer heap."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.service import AsyncioClock


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.mark.parametrize("dilation", [math.nan, math.inf, 0.0, -2.0])
def test_dilation_must_be_finite_and_positive(loop, dilation):
    with pytest.raises(ValueError):
        AsyncioClock(loop=loop, dilation=dilation)


@pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
def test_origin_must_be_finite(loop, origin):
    with pytest.raises(ValueError):
        AsyncioClock(loop=loop, dilation=1.0, origin=origin)


@pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
def test_a_delay_outside_zero_to_inf_is_refused(loop, delay):
    clock = AsyncioClock(loop=loop, dilation=1.0)
    fired = []
    with pytest.raises(ValueError):
        clock.schedule_callback(delay, lambda: fired.append(delay))
    clock.schedule_callback(0.0, lambda: fired.append(0.0))
    loop.run_until_complete(asyncio.sleep(0.01))
    assert fired == [0.0]
    assert math.isfinite(clock.now)
