"""repro.obs — structured tracing, metrics, and run manifests.

The observability layer for the whole simulation stack:

* :mod:`~repro.obs.events` — :class:`TraceEvent`, :class:`EventBus`, and
  the :class:`Tracer` handle components hold (zero-cost when absent);
* :mod:`~repro.obs.registry` — :class:`MetricsRegistry`, hierarchical
  names over the ``sim.monitor`` primitives with JSON-able snapshots;
* :mod:`~repro.obs.trace` — JSONL export and the per-run
  :class:`RunRecorder` harness;
* :mod:`~repro.obs.manifest` — :class:`RunManifest` (config, seeds,
  git describe, wall time, event counts) written next to result CSVs;
* :mod:`~repro.obs.summarize` — offline trace analysis, also available as
  ``python -m repro.obs summarize <trace.jsonl>``;
* :mod:`~repro.obs.schema` — the artifact schema version and the
  major-version compatibility check every reader applies;
* :mod:`~repro.obs.spans` — causal per-job :class:`Span` trees rebuilt
  from the event stream (live via :class:`SpanBuilder` or offline over a
  trace file) with critical-path extraction
  (``python -m repro.obs spans`` / ``critical-path``);
* :mod:`~repro.obs.sketch` — constant-memory streaming telemetry:
  :class:`QuantileSketch` (deterministic KLL-style quantiles) and
  :class:`WindowedCounter` (sliding-window rates), first-class registry
  monitor kinds;
* :mod:`~repro.obs.prom` — Prometheus text exposition of a registry for
  the live gateway's ``/metrics``.

Wall time is attributed from outside ``src/``: the end-to-end benchmark's
tracer (``benchmarks/e2e/trace.py``) wraps the bound methods each layer is
entered through and reports calls, total and self time per layer.
Nothing in this package needs turning on for that.
"""

from .events import EV, EventBus, TraceEvent, Tracer
from .manifest import RunManifest, git_describe
from .prom import prom_name, render_prometheus
from .registry import MetricsRegistry
from .schema import SCHEMA_VERSION, check_schema_version
from .sketch import QuantileSketch, WindowedCounter
from .spans import (
    Span,
    SpanBuilder,
    build_spans,
    build_spans_from_file,
    critical_path_summary,
    render_critical_path,
    render_spans,
)
from .summarize import TraceSummary, render_summary, summarize_events, summarize_file
from .trace import JsonlTraceWriter, RunRecorder, read_trace

__all__ = [
    "EV",
    "EventBus",
    "TraceEvent",
    "Tracer",
    "MetricsRegistry",
    "QuantileSketch",
    "WindowedCounter",
    "render_prometheus",
    "prom_name",
    "Span",
    "SpanBuilder",
    "build_spans",
    "build_spans_from_file",
    "critical_path_summary",
    "render_spans",
    "render_critical_path",
    "JsonlTraceWriter",
    "RunRecorder",
    "read_trace",
    "RunManifest",
    "git_describe",
    "TraceSummary",
    "summarize_events",
    "summarize_file",
    "render_summary",
    "SCHEMA_VERSION",
    "check_schema_version",
]
