"""Causal spans derived from the flat trace-event stream.

The trace layer records *events* — instants with no structure.  Operators
(and the paper's latency figures) reason about *intervals*: how long did
job 17 sit in matchmaking, how much of its life was heartbeat-detection
lag after its node crashed?  This module rebuilds that causal structure
deterministically from the event stream, either live (subscribe a
:class:`SpanBuilder` to the bus) or offline over a recorded JSONL trace
(:func:`build_spans`); both paths produce identical spans.

Span taxonomy (parent rules are documented per kind in DESIGN.md):

========== ============================================= =================
kind       covers                                        parent
========== ============================================= =================
job        submit -> terminal state (the trace root)     —
matchmake  placement attempt: first push -> placed/      job, or retry
           unplaced                                      when re-searching
push       one routing hop of the job advert (instant)   matchmake
queue      placed on a CE -> execution starts            job
run        executing on the CE -> finish/lost            job
crash      the hosting node dies (instant)               job
detect     crash -> heartbeat protocol notices           job
retry      detection -> resubmission decision            job
ring       expanding-ring degraded search (instant)      retry/matchmake
========== ============================================= =================

Span ids are deterministic — ``job<id>/<kind>#<seq>`` where ``seq`` is a
per-job monotone counter — so two rebuilds of the same trace (or a live
build and an offline one) agree byte-for-byte.  The *critical path* of a
job is the time-ordered chain of the root's direct children: because
nested detail (push hops, ring probes) hangs off deeper spans, the direct
children partition the job's life into the segments the paper plots
(matchmaking, queueing, execution, detection latency, retry backoff).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import EV, TraceEvent
from .trace import read_trace

__all__ = [
    "Span",
    "SpanBuilder",
    "build_spans",
]

#: span kinds, in taxonomy order (used for stable report ordering)
SPAN_KINDS = (
    "job",
    "matchmake",
    "push",
    "queue",
    "run",
    "crash",
    "detect",
    "retry",
    "ring",
)

_KIND_ORDER = {kind: i for i, kind in enumerate(SPAN_KINDS)}


class Span:
    """One causal interval in a job's life.  ``end is None`` while open."""

    __slots__ = ("span_id", "parent_id", "job", "kind", "start", "end", "status", "attrs")

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        job: int,
        kind: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.job = job
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def close(self, t: float, status: str = "ok") -> None:
        if self.end is None:
            self.end = t
            self.status = status

    def as_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "job": self.job,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = "open" if self.end is None else f"{self.duration:.6g}s"
        return f"Span({self.span_id}, {dur}, {self.status})"


class _JobState:
    """Per-job builder state: the root span plus at most one open span per kind."""

    __slots__ = (
        "root",
        "seq",
        "matchmake",
        "queue",
        "run",
        "detect",
        "retry",
        "crashed_node",
    )

    def __init__(self, root: Span):
        self.root = root
        self.seq = 0
        self.matchmake: Optional[Span] = None
        self.queue: Optional[Span] = None
        self.run: Optional[Span] = None
        self.detect: Optional[Span] = None
        self.retry: Optional[Span] = None
        self.crashed_node: Optional[int] = None


class SpanBuilder:
    """Rebuild causal spans from trace events, live or offline.

    Subscribe an instance to a :class:`~repro.obs.events.Tracer`/bus
    (``tracer.subscribe(builder)``) for a live build, or feed recorded
    dicts through :meth:`add_record`.  The builder is a per-job state
    machine; events for unknown jobs open an implicit root so partial
    traces (or ones recorded before the ``grid.job_submit`` event
    existed) still yield useful trees, flagged ``implicit_root``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._jobs: Dict[int, _JobState] = {}
        #: jobs whose crash is awaiting heartbeat detection, per node
        self._awaiting: Dict[Optional[int], List[int]] = {}
        self._handlers = {
            EV.GRID_JOB_SUBMIT: self._on_submit,
            EV.SERVICE_SUBMIT: self._on_submit,
            EV.MM_PUSH: self._on_push,
            EV.MM_PLACED: self._on_placed,
            EV.MM_UNPLACED: self._on_unplaced,
            EV.GRID_JOB_START: self._on_start,
            EV.GRID_JOB_FINISH: self._on_finish,
            EV.SERVICE_COMPLETE: self._on_finish,
            EV.GRID_JOB_UNPLACED: self._on_terminal_unplaced,
            EV.GRID_JOB_LOST: self._on_lost,
            EV.RECOVERY_DETECTED: self._on_detected,
            EV.GRID_JOB_RESUBMIT: self._on_resubmit,
            EV.GRID_JOB_ABANDONED: self._on_abandoned,
            EV.RECOVERY_FALLBACK: self._on_fallback,
            EV.SERVICE_CANCEL: self._on_cancel,
            EV.SERVICE_JOB_STATUS: self._on_job_status,
        }

    # -- ingestion ---------------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        """Bus-subscriber entry point."""
        self.add(event.t, event.etype, event.fields)

    def add(self, t: float, etype: str, fields: Dict[str, Any]) -> None:
        handler = self._handlers.get(etype)
        if handler is not None:
            handler(t, fields)

    def add_record(self, record: Dict[str, Any]) -> None:
        """Feed one decoded JSONL trace line (``{"t": ..., "type": ..., ...}``)."""
        etype = record.get("type")
        if etype is None or "t" not in record:
            return
        fields = {k: v for k, v in record.items() if k not in ("t", "type")}
        self.add(record["t"], etype, fields)

    def finish(self, t: Optional[float] = None) -> None:
        """Close every span still open (end of trace / shutdown).

        Open spans get status ``"open"``; with no ``t`` the span's own
        start time is used so durations never go negative.
        """
        for span in self.spans:
            if span.end is None:
                span.close(t if t is not None else span.start, "open")

    # -- span bookkeeping --------------------------------------------------------
    def _state(self, t: float, job: int) -> _JobState:
        state = self._jobs.get(job)
        if state is None:
            root = Span(f"job{job}/job#0", None, job, "job", t)
            root.attrs["implicit_root"] = True
            state = _JobState(root)
            self._jobs[job] = state
            self.spans.append(root)
        return state

    def _open(
        self,
        state: _JobState,
        kind: str,
        t: float,
        parent: Span,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        state.seq += 1
        span = Span(
            f"job{state.root.job}/{kind}#{state.seq}",
            parent.span_id,
            state.root.job,
            kind,
            t,
            attrs,
        )
        self.spans.append(span)
        return span

    def _instant(
        self,
        state: _JobState,
        kind: str,
        t: float,
        parent: Span,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        span = self._open(state, kind, t, parent, attrs)
        span.close(t)
        return span

    def _close_active(self, state: _JobState, t: float, status: str) -> None:
        """Close whatever interval the job is currently inside."""
        for name in ("matchmake", "queue", "run", "detect", "retry"):
            span = getattr(state, name)
            if span is not None:
                span.close(t, status)
                setattr(state, name, None)

    def _terminal(self, state: _JobState, t: float, status: str) -> None:
        if state.root.end is not None:
            return
        self._close_active(state, t, status)
        state.root.close(t, status)

    # -- event handlers ----------------------------------------------------------
    def _on_submit(self, t: float, fields: Dict[str, Any]) -> None:
        job = fields["job"]
        if job in self._jobs:
            return
        root = Span(f"job{job}/job#0", None, job, "job", t)
        self._jobs[job] = _JobState(root)
        self.spans.append(root)

    def _on_push(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.root.end is not None:
            return
        if state.matchmake is None:
            parent = state.retry if state.retry is not None else state.root
            state.matchmake = self._open(state, "matchmake", t, parent)
        attrs = {
            k: fields[k] for k in ("frm", "to", "dim", "hop") if k in fields
        }
        self._instant(state, "push", t, state.matchmake, attrs)

    def _on_placed(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.root.end is not None:
            return
        if state.matchmake is None:
            parent = state.retry if state.retry is not None else state.root
            state.matchmake = self._open(state, "matchmake", t, parent)
        attrs = {k: fields[k] for k in ("node", "hops", "score") if k in fields}
        state.matchmake.attrs.update(attrs)
        state.matchmake.close(t, "placed")
        state.matchmake = None
        self._open_queue(state, t, fields.get("node"))

    def _on_unplaced(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.matchmake is not None:
            if "hops" in fields:
                state.matchmake.attrs["hops"] = fields["hops"]
            state.matchmake.close(t, "unplaced")
            state.matchmake = None

    def _open_queue(self, state: _JobState, t: float, node: Any) -> None:
        if state.queue is None and state.run is None:
            attrs = {"node": node} if node is not None else None
            state.queue = self._open(state, "queue", t, state.root, attrs)

    def _on_start(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.root.end is not None:
            return
        if state.queue is not None:
            state.queue.close(t, "ok")
            state.queue = None
        if state.run is None:
            attrs = {"node": fields["node"]} if "node" in fields else None
            state.run = self._open(state, "run", t, state.root, attrs)

    def _on_finish(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.run is not None:
            state.run.close(t, "ok")
            state.run = None
        self._terminal(state, t, "completed")

    def _on_terminal_unplaced(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        self._terminal(state, t, "unplaced")

    def _on_lost(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.root.end is not None:
            return
        node = fields.get("node")
        self._close_active(state, t, "lost")
        self._instant(
            state, "crash", t, state.root,
            {"node": node} if node is not None else None,
        )
        state.crashed_node = node
        state.detect = self._open(
            state, "detect", t, state.root,
            {"node": node} if node is not None else None,
        )
        self._awaiting.setdefault(node, []).append(state.root.job)

    def _on_detected(self, t: float, fields: Dict[str, Any]) -> None:
        node = fields.get("node")
        for job in self._awaiting.pop(node, []):
            state = self._jobs.get(job)
            if state is None or state.detect is None:
                continue
            if "latency" in fields:
                state.detect.attrs["latency"] = fields["latency"]
            state.detect.close(t, "detected")
            state.detect = None
            state.retry = self._open(
                state, "retry", t, state.root,
                {"node": node} if node is not None else None,
            )

    def _on_resubmit(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.retry is not None:
            if "attempt" in fields:
                state.retry.attrs["attempt"] = fields["attempt"]
            state.retry.close(t, "resubmitted")
            state.retry = None
        elif state.detect is not None:
            # resubmitted before any detection event (e.g. claim-time fallback)
            state.detect.close(t, "detected")
            state.detect = None

    def _on_abandoned(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        self._terminal(state, t, "abandoned")

    def _on_fallback(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        if state.root.end is not None:
            return
        parent = state.matchmake or state.retry or state.root
        attrs = {
            k: fields[k] for k in ("node", "candidates") if k in fields
        }
        self._instant(state, "ring", t, parent, attrs)

    def _on_cancel(self, t: float, fields: Dict[str, Any]) -> None:
        state = self._state(t, fields["job"])
        self._terminal(state, t, "cancelled")

    def _on_job_status(self, t: float, fields: Dict[str, Any]) -> None:
        """Ledger transitions from the live service (no sim-level grid.* events)."""
        to = fields.get("to")
        job = fields.get("job")
        if to is None or job is None:
            return
        state = self._state(t, job)
        if to == "RUNNING":
            self._on_start(t, {"job": job, **(
                {"node": fields["node"]} if fields.get("node") is not None else {}
            )})
        elif to == "MATCHED":
            if state.root.end is None:
                self._open_queue(state, t, fields.get("node"))
        elif to == "FAILED":
            # the edge clears node_id; grid.job_lost (emitted first, by the
            # shared crash path) already opened the node-attributed detect span
            if state.detect is None:
                self._on_lost(t, {"job": job, "node": fields.get("node")})
        elif to == "COMPLETED":
            self._on_finish(t, {"job": job})
        elif to == "CANCELLED":
            self._terminal(state, t, "cancelled")
        elif to == "ABANDONED":
            self._terminal(state, t, "abandoned")

    # -- queries -----------------------------------------------------------------
    def jobs(self) -> List[int]:
        return sorted(self._jobs)

    def root(self, job: int) -> Optional[Span]:
        state = self._jobs.get(job)
        return state.root if state is not None else None

    def children(self, span: Span) -> List[Span]:
        """Direct children, in open order (== deterministic seq order)."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def critical_path(self, job: int) -> List[Span]:
        """The job's life as a time-ordered chain of top-level segments.

        Direct children of the root partition the job's wall-clock life
        (matchmaking, queueing, execution, detection, retry); nested
        detail like push hops stays below them.  Instants (crash, ring)
        are included as zero-duration markers.
        """
        root = self.root(job)
        if root is None:
            return []
        segments = self.children(root)
        segments.sort(key=lambda s: (s.start, _KIND_ORDER.get(s.kind, 99)))
        return segments

    def validate(self) -> List[str]:
        """Structural problems: orphan parents, open spans, jobs without a verdict."""
        problems: List[str] = []
        ids = {s.span_id for s in self.spans}
        for span in self.spans:
            if span.parent_id is not None and span.parent_id not in ids:
                problems.append(f"orphan span {span.span_id}: parent {span.parent_id} missing")
            if span.end is None:
                problems.append(f"open span {span.span_id} (started t={span.start:g})")
        for job, state in sorted(self._jobs.items()):
            if state.root.status in (None, "open"):
                problems.append(f"job {job} has no terminal status")
        return problems


# -- offline (JSONL) entry points ------------------------------------------------

def build_spans(events: Iterable[Dict[str, Any]]) -> SpanBuilder:
    """Run a :class:`SpanBuilder` over decoded event dicts and finish it."""
    builder = SpanBuilder()
    last_t: Optional[float] = None
    for record in events:
        builder.add_record(record)
        t = record.get("t")
        if t is not None and (last_t is None or t > last_t):
            last_t = t
    builder.finish(last_t)
    return builder


def build_spans_from_file(path: str) -> SpanBuilder:
    return build_spans(read_trace(path))


# -- rendering -------------------------------------------------------------------

def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "open"
    return f"{value:,.1f}s"


def render_spans(builder: SpanBuilder, job: Optional[int] = None) -> str:
    """Human-readable view: one job's tree, or a per-kind summary table."""
    if job is not None:
        root = builder.root(job)
        if root is None:
            return f"no spans for job {job}"
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                attrs = "  " + json.dumps(span.attrs, sort_keys=True)
            lines.append(
                f"{'  ' * depth}{span.kind:<10} {span.start:>12,.1f} -> "
                f"{_fmt_seconds(span.duration):>12}  [{span.status}]{attrs}"
            )
            for child in builder.children(span):
                walk(child, depth + 1)

        walk(root, 0)
        return "\n".join(lines)

    # summary: per-kind stats + per-job verdicts
    by_kind: Dict[str, List[float]] = {}
    open_count = 0
    for span in builder.spans:
        if span.end is None:
            open_count += 1
            continue
        by_kind.setdefault(span.kind, []).append(span.end - span.start)
    verdicts: Dict[str, int] = {}
    for j in builder.jobs():
        status = builder.root(j).status or "open"
        verdicts[status] = verdicts.get(status, 0) + 1

    lines = [f"{len(builder.jobs())} jobs, {len(builder.spans)} spans"
             + (f" ({open_count} open)" if open_count else "")]
    lines.append(f"{'kind':<10} {'count':>8} {'total':>14} {'mean':>12} {'max':>12}")
    for kind in SPAN_KINDS:
        durations = by_kind.get(kind)
        if not durations:
            continue
        total = sum(durations)
        lines.append(
            f"{kind:<10} {len(durations):>8} {total:>13,.1f}s "
            f"{total / len(durations):>11,.1f}s {max(durations):>11,.1f}s"
        )
    lines.append("")
    lines.append("job outcomes: " + ", ".join(
        f"{status}={count}" for status, count in sorted(verdicts.items())
    ))
    return "\n".join(lines)


def critical_path_summary(
    builder: SpanBuilder,
) -> List[Tuple[str, int, float, float, float]]:
    """Aggregate critical-path segments over every job.

    Returns ``(kind, segments, total, mean, max)`` rows in taxonomy
    order, computed over the direct children of each job root — the
    chain :meth:`SpanBuilder.critical_path` yields per job.
    """
    totals: Dict[str, List[float]] = {}
    for job in builder.jobs():
        for span in builder.critical_path(job):
            if span.end is None:
                continue
            totals.setdefault(span.kind, []).append(span.end - span.start)
    rows: List[Tuple[str, int, float, float, float]] = []
    for kind in SPAN_KINDS:
        durations = totals.get(kind)
        if not durations:
            continue
        rows.append((
            kind,
            len(durations),
            sum(durations),
            sum(durations) / len(durations),
            max(durations),
        ))
    return rows


def render_critical_path(builder: SpanBuilder, job: Optional[int] = None) -> str:
    """Critical-path report: one job's chain, or the fleet-wide aggregate."""
    if job is not None:
        segments = builder.critical_path(job)
        if not segments:
            return f"no spans for job {job}"
        lines = [f"job {job} critical path:"]
        for span in segments:
            attrs = f"  {json.dumps(span.attrs, sort_keys=True)}" if span.attrs else ""
            lines.append(
                f"  {span.kind:<10} {span.start:>12,.1f} "
                f"+{_fmt_seconds(span.duration):>12}  [{span.status}]{attrs}"
            )
        return "\n".join(lines)

    rows = critical_path_summary(builder)
    grand_total = sum(row[2] for row in rows) or 1.0
    lines = [
        f"{'segment':<10} {'count':>8} {'total':>14} {'mean':>12} "
        f"{'max':>12} {'share':>7}"
    ]
    for kind, count, total, mean, peak in rows:
        lines.append(
            f"{kind:<10} {count:>8} {total:>13,.1f}s {mean:>11,.1f}s "
            f"{peak:>11,.1f}s {100.0 * total / grand_total:>6.1f}%"
        )
    return "\n".join(lines)
