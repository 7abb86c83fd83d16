"""A named, hierarchical registry over the ``sim.monitor`` primitives.

The simulation stack measures with three primitive monitors —
:class:`~repro.sim.monitor.Counter`, :class:`~repro.sim.monitor.TimeSeries`
and :class:`~repro.sim.monitor.TimeWeighted` — historically created ad hoc
by whichever component needed one.  :class:`MetricsRegistry` gives them a
shared namespace (``protocol.broken_links``, ``grid.jobs.lost`` …) so a run
can be snapshotted as one JSON-able tree, exported into the run manifest,
and inspected without knowing which object owns which monitor.

Two *streaming* monitor kinds join the original three:
:class:`~repro.obs.sketch.QuantileSketch` (constant-memory latency/wait
distributions — the million-job replacement for per-job sample arrays)
and :class:`~repro.obs.sketch.WindowedCounter` (sliding-window rates).

Scopes are cheap views: ``registry.scope("protocol")`` returns a child
whose names are automatically prefixed; all monitors live in the root's
flat store, keyed by their full dotted path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..sim.monitor import Counter, TimeSeries, TimeWeighted
from .sketch import QuantileSketch, WindowedCounter

__all__ = ["MetricsRegistry"]

Monitor = Union[Counter, TimeSeries, TimeWeighted, QuantileSketch, WindowedCounter]


class MetricsRegistry:
    """Create, adopt, and snapshot monitors under dotted names."""

    def __init__(self, _store: Optional[Dict[str, Monitor]] = None, _prefix: str = ""):
        self._store: Dict[str, Monitor] = _store if _store is not None else {}
        self._prefix = _prefix

    # -- namespace -------------------------------------------------------------
    def scope(self, name: str) -> "MetricsRegistry":
        """A child registry whose monitor names are prefixed ``name.``."""
        if not name:
            raise ValueError("scope name must be non-empty")
        return MetricsRegistry(self._store, self._full(name) + ".")

    def _full(self, name: str) -> str:
        if not name:
            raise ValueError("monitor name must be non-empty")
        return self._prefix + name

    # -- creation / adoption ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` at ``name``."""
        return self._get_or_create(name, Counter)

    def timeweighted(self, name: str, time: float = 0.0, value: float = 0.0) -> TimeWeighted:
        """Get or create the :class:`TimeWeighted` at ``name``."""
        full = self._full(name)
        mon = self._store.get(full)
        if mon is None:
            mon = TimeWeighted(time, value)
            self._store[full] = mon
        elif not isinstance(mon, TimeWeighted):
            raise TypeError(f"{full!r} is a {type(mon).__name__}, not TimeWeighted")
        return mon

    def quantile_sketch(self, name: str, k: Optional[int] = None) -> QuantileSketch:
        """Get or create the streaming :class:`QuantileSketch` at ``name``."""
        full = self._full(name)
        mon = self._store.get(full)
        if mon is None:
            mon = QuantileSketch(**({"k": k} if k is not None else {}))
            self._store[full] = mon
        elif not isinstance(mon, QuantileSketch):
            raise TypeError(
                f"{full!r} is a {type(mon).__name__}, not QuantileSketch"
            )
        return mon

    def windowed_counter(
        self, name: str, window: float = 300.0, buckets: int = 60
    ) -> WindowedCounter:
        """Get or create the sliding-window :class:`WindowedCounter` at ``name``."""
        full = self._full(name)
        mon = self._store.get(full)
        if mon is None:
            mon = WindowedCounter(window=window, buckets=buckets)
            self._store[full] = mon
        elif not isinstance(mon, WindowedCounter):
            raise TypeError(
                f"{full!r} is a {type(mon).__name__}, not WindowedCounter"
            )
        return mon

    def register(self, name: str, monitor: Monitor) -> Monitor:
        """Adopt an existing monitor (e.g. a protocol's own TimeSeries)."""
        if not isinstance(
            monitor,
            (Counter, TimeSeries, TimeWeighted, QuantileSketch, WindowedCounter),
        ):
            raise TypeError(f"not a monitor: {type(monitor).__name__}")
        full = self._full(name)
        existing = self._store.get(full)
        if existing is not None and existing is not monitor:
            raise ValueError(f"{full!r} already registered")
        self._store[full] = monitor
        return monitor

    def _get_or_create(self, name: str, cls) -> Any:
        full = self._full(name)
        mon = self._store.get(full)
        if mon is None:
            mon = cls()
            self._store[full] = mon
        elif not isinstance(mon, cls):
            raise TypeError(f"{full!r} is a {type(mon).__name__}, not {cls.__name__}")
        return mon

    # -- introspection ----------------------------------------------------------
    def names(self) -> list:
        """All registered full names (sorted) visible from this scope."""
        return sorted(n for n in self._store if n.startswith(self._prefix))

    def get(self, name: str) -> Optional[Monitor]:
        return self._store.get(self._full(name))

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """One JSON-able dict per monitor, keyed by full dotted name.

        ``now`` closes the integration window for :class:`TimeWeighted`
        means; when omitted their mean is reported as ``None``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            mon = self._store[name]
            if isinstance(mon, Counter):
                out[name] = {
                    "kind": "counter",
                    "counts": mon.as_dict(),
                    "total": mon.total(),
                }
            elif isinstance(mon, TimeSeries):
                entry: Dict[str, Any] = {"kind": "timeseries", "samples": len(mon)}
                if len(mon):
                    last_t, last_v = mon.last()
                    entry["last_time"] = last_t
                    entry["last_value"] = last_v
                    entry["mean_value"] = float(mon.values.mean())
                out[name] = entry
            elif isinstance(mon, QuantileSketch):
                out[name] = {"kind": "quantile_sketch", **mon.as_dict()}
            elif isinstance(mon, WindowedCounter):
                out[name] = {"kind": "windowed_counter", **mon.as_dict(now)}
            else:  # TimeWeighted
                out[name] = {
                    "kind": "timeweighted",
                    "current": mon.current,
                    "mean": mon.mean(now) if now is not None else None,
                }
        return out
