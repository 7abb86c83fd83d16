"""Human-facing progress reporting, backed by the same event bus.

Replaces the historical ``print(..., file=sys.stderr)`` lines in the
experiment harness.  A :class:`ProgressReporter` writes one-line progress
to a stream (stderr by default) *and* mirrors each report as a
``run.progress`` event when a tracer is attached, so traces record the
harness's phase transitions alongside the simulation events.

Silencing: pass ``quiet=True``, or set the ``REPRO_QUIET`` environment
variable to any non-empty value other than ``0`` — the benchmark suite
does this so timing runs stay free of terminal I/O.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, Optional, TextIO

from .events import Tracer

__all__ = ["ProgressReporter", "quiet_from_env"]


def quiet_from_env(default: bool = False) -> bool:
    """True when ``REPRO_QUIET`` requests silence."""
    raw = os.environ.get("REPRO_QUIET")
    if raw is None:
        return default
    return raw.strip() not in ("", "0", "false", "no")


class ProgressReporter:
    """Labelled start/progress/done/info lines with optional trace mirroring.

    :meth:`start` stamps the label with ``clock`` (default
    :func:`time.perf_counter`); :meth:`progress` derives a completion
    rate and an ETA from that stamp, and :meth:`done` derives
    elapsed seconds and an events/sec rate when the caller reports how
    many events the phase processed.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        quiet: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._stream = stream
        #: None defers to REPRO_QUIET at report time, so long-lived
        #: reporters pick up fixture/benchmark environment changes
        self._quiet = quiet
        self.tracer = tracer
        self._clock = clock if clock is not None else time.perf_counter
        #: label -> clock stamp from the matching start()
        self._started: Dict[str, float] = {}

    @property
    def quiet(self) -> bool:
        return quiet_from_env() if self._quiet is None else self._quiet

    @quiet.setter
    def quiet(self, value: Optional[bool]) -> None:
        self._quiet = value

    def _emit(self, label: str, status: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(0.0, "run.progress", label=label, status=status, **fields)
        if self.quiet:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        extra = ""
        if "seconds" in fields:
            extra = f" in {fields['seconds']:.1f}s"
            if "rate" in fields:
                extra += f" ({fields['rate']:.0f} events/s)"
        elif "completed" in fields:
            pct = fields.get("percent")
            extra = f" {fields['completed']}/{fields['total']}"
            if pct is not None:
                extra += f" ({pct:.0f}%)"
            if "rate" in fields:
                extra += f" {fields['rate']:.1f}/s"
            if "eta_seconds" in fields:
                extra += f" ETA {fields['eta_seconds']:.1f}s"
        elif "message" in fields:
            extra = f" {fields['message']}"
        print(f"[{label}] {status}{extra}", file=stream, flush=True)

    # -- the report shapes the harness uses -----------------------------------
    def start(self, label: str) -> None:
        self._started[label] = self._clock()
        self._emit(label, "running ...")

    def progress(self, label: str, completed: int, total: int) -> None:
        """Mid-phase completion line with rate and ETA.

        Rate is ``completed`` items per second since the matching
        :meth:`start`; ETA extrapolates it over the remaining items.
        Without a prior ``start`` (or with nothing completed yet) the
        line degrades to the bare ``completed/total`` count.
        """
        fields: Dict[str, Any] = {
            "completed": int(completed),
            "total": int(total),
        }
        if total > 0:
            fields["percent"] = 100.0 * completed / total
        t0 = self._started.get(label)
        if t0 is not None and completed > 0:
            elapsed = self._clock() - t0
            if elapsed > 0:
                rate = completed / elapsed
                fields["rate"] = rate
                fields["eta_seconds"] = max(total - completed, 0) / rate
        self._emit(label, "progress", **fields)

    def done(
        self,
        label: str,
        seconds: Optional[float] = None,
        events: Optional[int] = None,
    ) -> None:
        """Phase-complete line; ``seconds`` defaults to the start() stamp.

        Pass ``events`` (however many simulation events / items the phase
        processed) to append an events/sec rate.
        """
        if seconds is None:
            t0 = self._started.get(label)
            seconds = (self._clock() - t0) if t0 is not None else 0.0
        fields: Dict[str, Any] = {"seconds": seconds}
        if events is not None and seconds > 0:
            fields["rate"] = events / seconds
        self._emit(label, "done", **fields)
        self._started.pop(label, None)

    def info(self, label: str, message: str) -> None:
        self._emit(label, "info", message=message)

    def timed(self, label: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` bracketed by start/done reports; return its result."""
        start = self._clock()
        self.start(label)
        result = fn(*args, **kwargs)
        self.done(label, self._clock() - start)
        return result
