"""Discrete-event simulation kernel.

A small, dependency-free engine: an :class:`Environment` owns a virtual
clock and a heap of scheduled callbacks.  Model code runs through
:meth:`Environment.schedule_callback` and the inherited
:meth:`~repro.sim.clock.Clock.call_every`; a chore that repeats is a
callback that schedules its own next run.  No entry is triggered by hand
and none can fail.

The kernel is deliberately deterministic: entries scheduled for the same
simulated time fire in insertion order, so a seeded simulation replays
identically.

An exception in model code ends the run: whatever a scheduled callback
raises propagates out of :meth:`Environment.run` unchanged, with
``env.now`` at the entry that raised and every later entry still queued.
Nothing is caught, so an invariant checker that raises mid-run fails the
run.

Example
-------
>>> env = Environment()
>>> log = []
>>> def tick(name, period, left):
...     log.append((env.now, name))
...     if left > 1:
...         env.schedule_callback(period, lambda: tick(name, period, left - 1))
>>> _ = env.schedule_callback(2.0, lambda: tick("a", 2.0, 2))
>>> _ = env.schedule_callback(1.0, lambda: tick("b", 1.0, 2))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a'), (2.0, 'b'), (4.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, List, Optional, Tuple

from .clock import CallbackHandle, Clock

__all__ = ["Environment", "SimulationError"]


class SimulationError(Exception):
    """A misuse of the kernel: a process yielding a non-timeout, ``step()``
    when idle."""


def _nothing() -> None:
    """What a bare timeout runs."""


class _Callback(CallbackHandle):
    """A scheduled ``fn()``.  The heap entry is the handle: the queue is
    append-only, so ``cancel`` sets a flag that is read when the entry fires."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]):
        super().__init__()
        self.fn = fn

    def _fire(self) -> None:
        if not self._cancelled:
            self.fn()


class Environment(Clock):
    """The simulation clock plus the pending-entry queue.

    It is the DES backend of the :class:`~repro.sim.clock.Clock` seam:
    ``now`` is virtual time, :meth:`schedule_callback` returns a cancellable
    handle, ``call_every`` is inherited.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, _Callback]] = []
        self._eid = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule_callback(self, delay: float, fn: Callable[[], Any]) -> CallbackHandle:
        """Run ``fn()`` after ``delay``, a finite number >= 0.  A NaN key
        would stop :meth:`run` the moment it reached the heap top."""
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        entry = _Callback(fn)
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, entry))
        return entry

    # -- a generator driver on callbacks ----------------------------------------
    def timeout(self, delay: float) -> CallbackHandle:
        """An entry that does nothing ``delay`` from now: what a process yields."""
        return self.schedule_callback(delay, _nothing)

    def process(self, generator: Generator) -> None:
        """Run ``generator`` to its first ``yield`` now, and on from each
        yielded :meth:`timeout` when that entry fires."""
        if not hasattr(generator, "send"):
            raise TypeError("process() requires a generator")

        def resume() -> None:
            try:
                entry = next(generator)
            except StopIteration:
                return
            if not isinstance(entry, _Callback):
                raise SimulationError(
                    f"process {generator.__name__!r} yielded a non-timeout: {entry!r}"
                )
            entry.fn = resume

        resume()

    # -- execution ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next entry."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _eid, entry = heapq.heappop(self._queue)
        self._now = when
        entry._fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` (exclusive of later entries).

        When ``until`` is given the clock is advanced exactly to it, so a
        subsequent ``run`` continues from there.
        """
        limit = float("inf") if until is None else float(until)
        if not limit >= self._now:  # a NaN limit fails the test too
            raise ValueError(
                f"until={until!r} is NaN or lies in the past (now={self._now!r})"
            )
        while self._queue and self._queue[0][0] <= limit:
            self.step()
        if until is not None:
            self._now = limit
