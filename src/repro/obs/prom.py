"""Prometheus text exposition for a :class:`MetricsRegistry`.

Renders every registered monitor in the Prometheus text format
(version 0.0.4) so the live gateway's ``GET /metrics`` can be scraped by a
stock Prometheus/VictoriaMetrics agent.  The JSON snapshot stays the
default; the gateway selects this renderer by content negotiation.

Mapping of monitor kinds:

* ``Counter`` — one ``<name>_total{key="..."}`` sample per key;
* ``TimeSeries`` — ``<name>_count`` plus a ``<name>_last`` gauge;
* ``TimeWeighted`` — one gauge of the current value;
* ``QuantileSketch`` — a Prometheus *summary*: ``{quantile="0.5|0.9|0.99"}``
  samples plus ``_count`` and ``_sum``;
* ``WindowedCounter`` — ``<name>_rate`` gauge (per-second over the window)
  plus a lifetime ``<name>_total`` counter.

Dotted registry names become underscore-separated metric names under the
``repro_`` namespace; anything outside ``[a-zA-Z0-9_]`` is folded to ``_``.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional

from ..sim.monitor import Counter, TimeSeries, TimeWeighted
from .registry import MetricsRegistry
from .sketch import QuantileSketch, WindowedCounter

__all__ = ["render_prometheus", "prom_name"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_ESCAPE = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})

#: summary quantiles exported for every sketch
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


def prom_name(dotted: str) -> str:
    """``service.request_latency`` -> ``repro_service_request_latency``."""
    return "repro_" + _NAME_RE.sub("_", dotted)


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _sample(name: str, value: float, labels: str = "") -> str:
    return f"{name}{labels} {_fmt(value)}"


def render_prometheus(registry: MetricsRegistry, now: Optional[float]) -> str:
    """One scrape body; ends with a trailing newline as the format requires."""
    lines: List[str] = []
    for dotted in registry.names():
        mon = registry.get(dotted)
        name = prom_name(dotted)
        if isinstance(mon, Counter):
            lines.append(f"# TYPE {name}_total counter")
            for key in sorted(mon.as_dict()):
                label = key.translate(_LABEL_ESCAPE)
                lines.append(
                    _sample(f"{name}_total", mon.get(key), f'{{key="{label}"}}')
                )
        elif isinstance(mon, QuantileSketch):
            lines.append(f"# TYPE {name} summary")
            for q in SUMMARY_QUANTILES:
                lines.append(
                    _sample(name, mon.quantile(q), f'{{quantile="{q}"}}')
                )
            lines.append(_sample(f"{name}_sum", mon.sum))
            lines.append(_sample(f"{name}_count", mon.n))
        elif isinstance(mon, WindowedCounter):
            lines.append(f"# TYPE {name}_rate gauge")
            lines.append(_sample(f"{name}_rate", mon.rate(now)))
            lines.append(f"# TYPE {name}_total counter")
            lines.append(_sample(f"{name}_total", mon.lifetime))
        elif isinstance(mon, TimeSeries):
            lines.append(f"# TYPE {name}_count counter")
            lines.append(_sample(f"{name}_count", len(mon)))
            if len(mon):
                lines.append(f"# TYPE {name}_last gauge")
                lines.append(_sample(f"{name}_last", mon.last()[1]))
        elif isinstance(mon, TimeWeighted):
            lines.append(f"# TYPE {name} gauge")
            lines.append(_sample(name, mon.current))
    return "\n".join(lines) + "\n"
