"""Measurement helpers: counters, time series, and time-weighted statistics.

The experiment harness records three kinds of data:

* event counts (messages sent, jobs completed) — :class:`Counter`;
* sampled time series (broken links over time) — :class:`TimeSeries`;
* durations of piecewise-constant quantities (queue lengths, utilization)
  — :class:`TimeWeighted`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["Counter", "TimeSeries", "TimeWeighted"]


class Counter:
    """A named bag of monotonically increasing counts."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("Counter.add amount must be non-negative")
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def get(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def total(self) -> float:
        return sum(self._counts.values())

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


class TimeSeries:
    """Append-only (time, value) samples with numpy export."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values)

    def rows(self) -> Sequence[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def last(self) -> Tuple[float, float]:
        if not self._times:
            raise IndexError("empty time series")
        return self._times[-1], self._values[-1]


class TimeWeighted:
    """Time-weighted mean of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the integral of the old
    value over the elapsed interval accumulates automatically.
    """

    def __init__(self, time: float = 0.0, value: float = 0.0):
        self._last_time = float(time)
        self._value = float(value)
        self._area = 0.0
        self._start = float(time)

    @property
    def current(self) -> float:
        return self._value

    def update(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (time - self._last_time)
        self._last_time = float(time)
        self._value = float(value)

    def mean(self, now: float) -> float:
        """Time-weighted mean from construction until ``now``."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        span = now - self._start
        if span <= 0:
            return self._value
        return (self._area + self._value * (now - self._last_time)) / span
