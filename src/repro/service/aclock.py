"""The wall-clock backend of the :class:`~repro.sim.clock.Clock` seam.

:class:`AsyncioClock` maps *model* time onto an asyncio event loop's
monotonic clock through a **dilation factor**: ``dilation`` model seconds
pass per wall-clock second.  At ``dilation=1`` the service runs in real
time; at ``dilation=1000`` a 60-second heartbeat period fires every 60 ms,
which is what lets the integration tests drive a full workload — heartbeat
rounds, retry backoffs, job executions — through the *unchanged* protocol
code in tens of milliseconds.

Only this module (and the rest of :mod:`repro.service`) touches asyncio;
the protocol modules import the seam, never the loop.

A model that raises stops this clock as it stops a DES run.  An event loop
logs what a callback raises and carries on, so the clock keeps the first
exception in :attr:`AsyncioClock.failure` and runs no callback after it:
periodic ticks end, pending timers lapse, and the gateway reports the
failure instead of serving a half-updated grid.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Optional

from ..sim.clock import CallbackHandle, Clock

__all__ = ["AsyncioClock"]


class AsyncioClock(Clock):
    """Model time = ``origin + (loop.time() - t0) * dilation``.

    ``origin`` seeds the model clock, letting a restarted service resume
    *after* the times already persisted in its ledger instead of rewinding
    to zero (ledger timestamps are model-time and must stay monotonic
    across restarts).
    """

    __slots__ = ("_loop", "dilation", "_t0", "_origin", "failure")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        dilation: float,
        origin: float = 0.0,
    ):
        if not 0.0 < dilation < math.inf:
            raise ValueError(f"dilation must be finite and positive, got {dilation!r}")
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        self._loop = loop
        self.dilation = float(dilation)
        self._t0 = self._loop.time()
        self._origin = float(origin)
        #: the exception that stopped this clock, if a callback raised
        self.failure: Optional[Exception] = None

    @property
    def now(self) -> float:
        return self._origin + (self._loop.time() - self._t0) * self.dilation

    def schedule_callback(
        self, delay: float, fn: Callable[[], Any]
    ) -> CallbackHandle:
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        timer = self._loop.call_later(delay / self.dilation, self._run, fn)
        return CallbackHandle(timer.cancel)

    def _run(self, fn: Callable[[], Any]) -> None:
        if self.failure is not None:
            return
        try:
            fn()
        except Exception as exc:
            self.failure = exc
            raise  # to the loop's exception handler, which logs it
