"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: an
:class:`Environment` owns a virtual clock and a priority queue of scheduled
events; generator-based :class:`Process` coroutines drive the model by
yielding events (most commonly :class:`Timeout`).

The kernel is deliberately deterministic: events scheduled for the same
simulated time fire in (priority, insertion-order) sequence, so a seeded
simulation replays identically.

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

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "StopSimulation",
]

# Event priorities: lower fires first among events at the same time.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A condition that may be *triggered* at some simulated time.

    Processes wait on events by yielding them.  Callbacks attached via
    :attr:`callbacks` run when the event fires.  An event fires at most
    once; its :attr:`value` is delivered to every waiter.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered: bool = False
        self._processed: bool = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``False`` when the event carries a failure (an exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def _fire(self) -> None:
        """Run callbacks.  Called by the environment's main loop."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal: kicks off a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._triggered = True
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator may yield any :class:`Event`.  When that event fires, the
    process resumes with the event's value (or the event's exception is
    thrown into the generator if it failed).
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        target = self._generator.send(event._value)
                    else:
                        target = self._generator.throw(event._value)
                except StopIteration as stop:
                    if not self._triggered:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if not self._triggered:
                        self.fail(exc)
                        return
                    raise

                if not isinstance(target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    event = Event(self.env)
                    event._ok = False
                    event._value = exc
                    continue
                if target._processed:
                    # Already fired: resume immediately with its value.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                return
        finally:
            self.env._active_process = None


class Environment:
    """The simulation clock plus the pending-event queue.

    ``tracer`` is an optional :class:`repro.obs.Tracer`.  The kernel never
    emits on it itself — it is the well-known place components sharing an
    environment find the run's tracer (``env.tracer``), and it stays
    ``None`` unless observability was requested, so instrumented call
    sites cost one attribute test on the default path.

    ``profiler`` is an optional :class:`repro.obs.Profiler`.  When set,
    :meth:`run` times every event dispatch under a per-event-type scope
    (``sim.dispatch.Timeout``, ``sim.dispatch.Process``, ...); when
    ``None`` the run loop is byte-for-byte the historical tight loop.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        tracer: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self.tracer = tracer
        self.profiler = profiler

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    # -- public factory helpers -------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch a process coroutine."""
        return Process(self, generator, name)

    def schedule_callback(
        self, delay: float, fn: Callable[[], Any], priority: int = NORMAL
    ) -> Event:
        """Run ``fn()`` after ``delay``; lighter-weight than a process."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        ev = Event(self)
        ev._triggered = True
        ev.callbacks.append(lambda _e: fn())
        self._schedule(ev, priority, delay)
        return ev

    # -- execution ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        event._fire()

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the queue drains or ``until`` (exclusive of later events).

        When ``until`` is given the clock is advanced exactly to it, so a
        subsequent ``run`` continues from there.
        """
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until={until!r} lies in the past (now={self._now!r})"
                )
            limit = float(until)
        else:
            limit = float("inf")
        profiler = self.profiler
        try:
            if profiler is None or not profiler.enabled:
                # The default (and benchmark-grade) tight loop.
                while self._queue and self._queue[0][0] <= limit:
                    self.step()
            else:
                self._run_profiled(limit, profiler)
        except StopSimulation as stop:
            return stop.value
        if until is not None:
            self._now = limit
        return None

    def _run_profiled(self, limit: float, profiler: Any) -> None:
        """The run loop with per-event-type dispatch timing.

        Scope names are cached per event class: the profiled loop adds two
        profiler calls and two dict probes per event, nothing else.
        """
        queue = self._queue
        names: dict = {}
        while queue and queue[0][0] <= limit:
            when, _prio, _eid, event = heapq.heappop(queue)
            self._now = when
            cls = event.__class__
            name = names.get(cls)
            if name is None:
                name = names[cls] = "sim.dispatch." + cls.__name__
            profiler.push(name)
            try:
                event._fire()
            finally:
                profiler.pop()

    def stop(self, value: Any = None) -> None:
        """Halt :meth:`run` from inside a callback or process."""
        raise StopSimulation(value)
