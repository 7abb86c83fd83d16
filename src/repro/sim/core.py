"""Discrete-event simulation kernel.

A small, dependency-free engine: an :class:`Environment` owns a virtual
clock and a heap of scheduled entries; generator-based :class:`Process`
coroutines drive the model by yielding events (most commonly
:class:`Timeout`), and :meth:`Environment.schedule_callback` runs a plain
function at a later time.  The surface is what the simulators use: no
event is triggered by hand and none can fail.

The kernel is deliberately deterministic: entries scheduled for the same
simulated time fire in (priority, insertion-order) sequence, so a seeded
simulation replays identically.

An exception in model code ends the run: whatever a process's generator or
a scheduled callback raises propagates out of :meth:`Environment.run`
unchanged, with ``env.now`` at the entry that raised and every later entry
still queued.  Nothing is caught, so an invariant checker that raises
mid-run fails the run.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .clock import CallbackHandle, Clock

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]

# Entry priorities: lower fires first among entries at the same time.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """A misuse of the kernel: a non-event ``yield``, ``step()`` when idle."""


class Event:
    """Something a process waits on by yielding it.

    The kernel fires an event once, at its scheduled time: every waiter is
    resumed with :attr:`value`.  ``callbacks`` is the list of waiters until
    then and ``None`` afterwards, which is how a process tells an event
    that already fired (and resumes at once) from one still to come.
    """

    __slots__ = ("callbacks", "value")

    def __init__(self, value: Any = None):
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.value = value

    def _fire(self) -> None:
        """Resume the waiters.  Called by the environment's run loop."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(value)
        env._schedule(self, NORMAL, delay)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator may yield any :class:`Event` (another process included)
    and resumes with that event's value when it fires; its own ``return``
    value becomes the process event's value.  Whatever else it yields, and
    whatever it raises, ends the run (see the module docstring).
    """

    __slots__ = ("env", "_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        super().__init__()
        self.env = env
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # started by the kernel, ahead of what else is due at this time
        start = Event()
        start.callbacks.append(self._resume)
        env._schedule(start, URGENT)

    def _resume(self, event: Event) -> None:
        while True:
            try:
                target = self._generator.send(event.value)
            except StopIteration as stop:
                self.value = stop.value
                self.env._schedule(self, NORMAL)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
            if target.callbacks is None:
                # Already fired: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


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

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Any]] = []
        self._eid = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def _schedule(self, entry: Any, priority: int, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, entry))

    # -- what model code schedules ----------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch a process coroutine."""
        return Process(self, generator, name)

    def schedule_callback(self, delay: float, fn: Callable[[], Any]) -> CallbackHandle:
        """Run ``fn()`` after ``delay``; lighter-weight than a process."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        entry = _Callback(fn)
        self._schedule(entry, NORMAL, delay)
        return entry

    # -- execution ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next entry."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, entry = heapq.heappop(self._queue)
        self._now = when
        entry._fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` (exclusive of later entries).

        When ``until`` is given the clock is advanced exactly to it, so a
        subsequent ``run`` continues from there.
        """
        limit = float("inf") if until is None else float(until)
        if limit < self._now:
            raise ValueError(f"until={until!r} lies in the past (now={self._now!r})")
        while self._queue and self._queue[0][0] <= limit:
            self.step()
        if until is not None:
            self._now = limit
