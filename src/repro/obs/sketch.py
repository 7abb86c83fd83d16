"""Constant-memory streaming telemetry: quantile sketches and windowed counters.

Distributions whose sample count grows with a run's length (the live
service's queue depth, recovery latencies, the manifest's wait and
turnaround summaries) are kept here in bounded memory:

* :class:`QuantileSketch` — a deterministic KLL/MRL-style compactor
  sketch.  Inserts are amortised O(1); memory is bounded by
  ``k * ceil(log2(n / k))`` retained samples (a few thousand floats at a
  million inserts), independent of the value distribution.  Rank error is
  ~``1/k`` in practice — well inside the 1 % the harness pins in tests —
  and compaction is *deterministic* (per-level alternating parity instead
  of coin flips), so a seeded run snapshots byte-identically every time.
* :class:`WindowedCounter` — event counts over a sliding time window,
  stored in a fixed ring of buckets (O(1) memory, O(1) add).

Both are registered as first-class monitor kinds in
:class:`~repro.obs.registry.MetricsRegistry` and rendered by the
Prometheus text exposition (:mod:`repro.obs.prom`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["QuantileSketch", "WindowedCounter"]

#: per-level compactor capacity ``k`` (even); rank error scales like 1/k
K = 512

#: a :class:`WindowedCounter`'s window (seconds) and its ring of buckets
WINDOW = 60.0
BUCKETS = 12


class QuantileSketch:
    """Streaming quantile estimator with bounded memory.

    Values live in per-level buffers; level ``L`` items each stand for
    ``2**L`` original samples.  When a level fills to ``k`` items it is
    sorted and every other item is promoted to the next level (the parity
    alternates per level between compactions, cancelling rank bias).  The
    first ``k`` inserts are therefore *exact*.
    """

    __slots__ = ("k", "n", "_levels", "_parity", "_min", "_max", "_sum")

    def __init__(self):
        self.k = K
        self.n = 0
        self._levels: List[List[float]] = [[]]
        self._parity: List[bool] = [False]
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    # -- ingest ------------------------------------------------------------------
    def insert(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot insert NaN")
        self.n += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        level0 = self._levels[0]
        level0.append(value)
        if len(level0) >= self.k:
            self._compact(0)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.insert(value)

    def _compact(self, level: int) -> None:
        buf = self._levels[level]
        buf.sort()
        offset = 1 if self._parity[level] else 0
        self._parity[level] = not self._parity[level]
        survivors = buf[offset::2]
        buf.clear()
        if level + 1 == len(self._levels):
            self._levels.append([])
            self._parity.append(False)
        upper = self._levels[level + 1]
        upper.extend(survivors)
        if len(upper) >= self.k:
            self._compact(level + 1)

    # -- introspection -----------------------------------------------------------
    @property
    def retained(self) -> int:
        """Samples currently held — the sketch's memory footprint."""
        return sum(len(buf) for buf in self._levels)

    @property
    def levels(self) -> int:
        return len(self._levels)

    @property
    def min(self) -> float:
        return self._min if self.n else math.nan

    @property
    def max(self) -> float:
        return self._max if self.n else math.nan

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self.n if self.n else math.nan

    def __len__(self) -> int:
        return self.n

    # -- queries -----------------------------------------------------------------
    def _weighted(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted values, cumulative weights) over every retained sample."""
        values: List[float] = []
        weights: List[float] = []
        for level, buf in enumerate(self._levels):
            if buf:
                values.extend(buf)
                weights.extend([float(1 << level)] * len(buf))
        if not values:
            return np.empty(0), np.empty(0)
        v = np.asarray(values)
        w = np.asarray(weights)
        order = np.argsort(v, kind="stable")
        return v[order], np.cumsum(w[order])

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (min/max are exact)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.n:
            return math.nan
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        values, cum = self._weighted()
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, values.size - 1)
        return float(values[idx])

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able summary (what registry snapshots and manifests store)."""
        if not self.n:
            return {"count": 0, "retained": 0}
        return {
            "count": self.n,
            "retained": self.retained,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(n={self.n}, retained={self.retained}, "
            f"levels={self.levels})"
        )


class WindowedCounter:
    """Event counts over a sliding window, in a fixed ring of time buckets.

    ``add(t, amount)`` books ``amount`` into the bucket containing ``t``;
    buckets older than the window are recycled as time advances.  ``total``
    and ``rate`` answer "how much in the last ``window`` seconds?" in O(
    buckets).  Time may be simulated or wall-clock — the counter only
    requires it to be (mostly) monotone; a sample older than the current
    window is dropped.
    """

    __slots__ = ("window", "buckets", "_span", "_counts", "_slots", "_last_t", "lifetime")

    def __init__(self):
        self.window = WINDOW
        self.buckets = BUCKETS
        self._span = self.window / self.buckets
        self._counts = [0.0] * self.buckets
        #: absolute bucket index currently stored in each ring slot
        self._slots = [-1] * self.buckets
        self._last_t = 0.0
        #: total ever added (monotone, survives bucket expiry)
        self.lifetime = 0.0

    def add(self, t: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.lifetime += amount
        if t > self._last_t:
            self._last_t = t
        bucket = int(t // self._span)
        newest = int(self._last_t // self._span)
        if bucket <= newest - self.buckets:
            return  # older than the whole ring: already expired
        slot = bucket % self.buckets
        if self._slots[slot] != bucket:
            self._slots[slot] = bucket
            self._counts[slot] = 0.0
        self._counts[slot] += amount

    def total(self, now: Optional[float] = None) -> float:
        """Amount booked in the window ending at ``now`` (default: last add)."""
        now = self._last_t if now is None else max(float(now), self._last_t)
        newest = int(now // self._span)
        oldest = newest - self.buckets + 1
        return sum(
            count
            for slot, count in zip(self._slots, self._counts)
            if oldest <= slot <= newest
        )

    def rate(self, now: Optional[float]) -> float:
        """Events per second over the window ending at ``now``."""
        return self.total(now) / self.window

    def as_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        return {
            "window": self.window,
            "total": self.total(now),
            "rate": self.rate(now),
            "lifetime": self.lifetime,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedCounter(window={self.window}, "
            f"total={self.total():g})"
        )
