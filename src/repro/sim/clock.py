"""The clock/scheduler seam: protocol code runs on *a* clock, not *the* kernel.

What a time-driven component needs from its host is three operations —
read the current time, run a callback after a delay, run a callback
periodically — so this module names that contract:

* :class:`Clock` — the abstract seam.  ``now`` is a property,
  :meth:`~Clock.schedule_callback` returns a cancelable handle, and
  :meth:`~Clock.call_every` builds a periodic callback out of one-shot
  scheduling, so backends only implement the two primitives.
* The DES backend is the kernel itself:
  :class:`~repro.sim.core.Environment` subclasses :class:`Clock` (virtual
  time, deterministic order), so every batch simulation runs on the seam
  by type.  The kernel imports this module, never the reverse.
* The wall-clock backend lives in :mod:`repro.service.aclock`
  (:class:`~repro.service.aclock.AsyncioClock`, with a time-dilation
  factor); this module stays free of asyncio so the simulation kernel and
  every protocol module built on the seam import nothing event-loop-shaped.

Components written against :class:`Clock` (the heartbeat driver, the
retry/resubmission loop, :class:`~repro.model.node.GridNode`'s completion
scheduling) run unchanged under both backends — that single seam is what
lets the same protocol code power the batch simulator and the live
:mod:`repro.service` gateway.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

__all__ = ["Clock", "CallbackHandle"]


class CallbackHandle:
    """Cancelable handle for a scheduled (or periodic) callback.

    Cancellation is cooperative: a backend that cannot unschedule (the DES
    kernel's queue is append-only, so its handle *is* the queued entry)
    skips the callback when it fires.  ``cancel`` is idempotent, and a
    no-op once the callback has run.
    """

    __slots__ = ("_cancelled", "_cancel_fn")

    def __init__(self, cancel_fn: Optional[Callable[[], None]] = None):
        self._cancelled = False
        self._cancel_fn: Optional[Callable[[], None]] = cancel_fn

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        fn, self._cancel_fn = self._cancel_fn, None
        if fn is not None:
            fn()

    def _chain(self, cancel_fn: Optional[Callable[[], None]]) -> None:
        """Point the handle at the next underlying one-shot (periodic use)."""
        self._cancel_fn = cancel_fn


class Clock(abc.ABC):
    """What time-driven protocol code needs from its host: nothing more.

    Two primitives per backend; :meth:`call_every` is written once here, so
    periodic callbacks behave identically on virtual and on wall time.
    """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in *model* seconds (virtual or dilated wall time)."""

    @abc.abstractmethod
    def schedule_callback(self, delay: float, fn: Callable[[], Any]) -> CallbackHandle:
        """Run ``fn()`` once, ``delay`` model seconds from now."""

    def call_every(
        self,
        period: float,
        fn: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> CallbackHandle:
        """Run ``fn()`` every ``period`` model seconds until cancelled.

        The first firing happens after ``start_delay`` (default: one full
        period).  Built from :meth:`schedule_callback`, so every backend
        gets periodic callbacks for free and they behave identically.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        handle = CallbackHandle()

        def tick() -> None:
            if handle.cancelled:
                return
            fn()
            if not handle.cancelled:
                inner = self.schedule_callback(period, tick)
                handle._chain(inner.cancel)

        first = self.schedule_callback(
            period if start_delay is None else start_delay, tick
        )
        handle._chain(first.cancel)
        return handle
