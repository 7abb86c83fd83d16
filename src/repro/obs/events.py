"""Typed trace events and the bus that carries them.

The observability layer is built around three small pieces:

* :class:`TraceEvent` — an immutable ``(t, type, fields)`` record.  Event
  *types* are dotted strings from the taxonomy in :class:`EV` (documented
  in DESIGN.md), so consumers can filter by prefix (``hb.*``, ``mm.*``).
* :class:`EventBus` — a synchronous fan-out of events to subscribers
  (JSONL writers, counters, span builders).
* :class:`Tracer` — the producer-side handle components hold.  Producers
  keep the disabled path free: every instrumented call site guards with
  ``if tracer is not None`` (an attribute load plus a ``None`` test), so a
  simulation constructed without a tracer allocates no event objects and
  pays no measurable overhead.

Determinism matters here: a seeded simulation must emit a byte-identical
event stream on every run, so events carry *simulated* time only and the
bus delivers synchronously in emission order.  Wall-clock data belongs in
the run manifest, not the trace.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["EV", "TraceEvent", "EventBus", "Tracer"]


class EV:
    """The event-type taxonomy (dotted names, filterable by prefix).

    ``run.*``   harness lifecycle (one trace file may hold several runs)
    ``can.*``   CAN overlay topology changes (ground truth)
    ``chord.*`` Chord ring membership changes (ground truth)
    ``hb.*``    heartbeat-engine observations (beliefs, detection, repair)
    ``mm.*``    matchmaker decisions
    ``grid.*``  grid-level churn consequences (crashes, lost/resubmitted jobs)
    ``recovery.*``  failure-recovery milestones (detection)
    ``fault.*`` scripted fault injection (crash bursts, flash crowds)
    ``net.*``   network-channel verdicts (drops, late deliveries)
    ``service.*``  live-gateway lifecycle, cancellations, restart orphans
    """

    # -- harness lifecycle
    RUN_START = "run.start"          # label, scheme?, config?
    RUN_END = "run.end"              # label

    # -- overlay topology (ground truth changes)
    CAN_JOIN = "can.join"            # node
    CAN_JOIN_DEFERRED = "can.join_deferred"  # node (target zone in limbo)
    CAN_LEAVE = "can.leave"          # node (graceful)
    CAN_FAIL = "can.fail"            # node (silent crash)
    CHORD_JOIN = "chord.join"        # node
    CHORD_JOIN_DEFERRED = "chord.join_deferred"  # node (arc in limbo)
    CHORD_LEAVE = "chord.leave"      # node (graceful)
    CHORD_FAIL = "chord.fail"        # node (silent crash)

    # -- heartbeat engine (belief-plane observations)
    #: sent: {mtype: [messages, bytes]}, the MessageStats window so far
    HB_ROUND = "hb.round"            # round, population, broken_links, sent
    HB_FAILURE_DETECTED = "hb.failure_detected"  # node, suspect
    HB_TAKEOVER = "hb.takeover"      # claimant, dead, informed
    HB_GAP_FOUND = "hb.gap_found"    # node, attempt (broken link found)
    HB_GAP_REPAIRED = "hb.gap_repaired"  # node (broken link repaired)

    # -- matchmaking
    MM_PUSH = "mm.push"              # job, frm, to, dim
    MM_PLACED = "mm.placed"          # job, node, hops, score?
    MM_UNPLACED = "mm.unplaced"      # job, hops

    # -- grid-level churn consequences
    GRID_CRASH = "grid.crash"        # node, jobs_lost
    GRID_JOIN = "grid.join"          # node
    GRID_JOB_SUBMIT = "grid.job_submit"  # job
    GRID_JOB_START = "grid.job_start"    # job, node
    GRID_JOB_FINISH = "grid.job_finish"  # job, node
    GRID_JOB_UNPLACED = "grid.job_unplaced"  # job (terminal: never placed)
    GRID_JOB_LOST = "grid.job_lost"  # job, node
    GRID_JOB_RESUBMIT = "grid.job_resubmit"  # job, attempt
    GRID_JOB_ABANDONED = "grid.job_abandoned"  # job, attempts

    # -- failure recovery (protocol-driven detection & resubmission)
    RECOVERY_DETECTED = "recovery.detected"  # node, latency, jobs
    FAULT_BURST = "fault.burst"      # count, correlated, victims
    FAULT_FLASH_CROWD = "fault.flash_crowd"  # count

    # -- network channel (only non-identity models emit these)
    NET_DROP = "net.drop"            # src, dst (loss or flap)
    NET_DELIVER_LATE = "net.deliver_late"  # src, dst, sent_at (> period)

    # -- live service (what the simulator has no counterpart for)
    SERVICE_START = "service.start"  # nodes, scheme, heartbeat_class, recovered
    SERVICE_STOP = "service.stop"
    SERVICE_LISTEN = "service.listen"  # host, port
    SERVICE_CANCEL = "service.cancel"  # job
    SERVICE_ORPHAN = "service.orphan"  # job, node, vanished (restart recovery)


class TraceEvent:
    """One observation: simulated time, dotted type, and a field dict."""

    __slots__ = ("t", "etype", "fields")

    def __init__(self, t: float, etype: str, fields: Dict[str, Any]):
        self.t = t
        self.etype = etype
        self.fields = fields

    def as_dict(self) -> Dict[str, Any]:
        d = {"t": self.t, "type": self.etype}
        d.update(self.fields)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(t={self.t:.6g}, {self.etype}, {self.fields!r})"


class EventBus:
    """Synchronous fan-out of :class:`TraceEvent` to subscribers."""

    def __init__(self) -> None:
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> Callable[[TraceEvent], None]:
        """Register ``fn`` to receive every published event; returns it."""
        self._subscribers.append(fn)
        return fn

    def publish(self, event: TraceEvent) -> None:
        for fn in self._subscribers:
            fn(event)

    def __len__(self) -> int:
        return len(self._subscribers)


class Tracer:
    """Producer-side handle: builds events and pushes them onto a bus.

    Components store an ``Optional[Tracer]`` and guard emission with
    ``if self.tracer is not None:`` — the disabled path is just that test.
    ``counts`` tallies events by type as they are emitted, which both the
    run manifest and the overhead tests rely on.
    """

    __slots__ = ("bus", "counts")

    def __init__(self):
        self.bus = EventBus()
        self.counts: Dict[str, int] = {}

    def emit(self, t: float, etype: str, **fields: Any) -> None:
        """Publish one event at simulated time ``t``."""
        self.counts[etype] = self.counts.get(etype, 0) + 1
        self.bus.publish(TraceEvent(t, etype, fields))

    def total_events(self) -> int:
        return sum(self.counts.values())

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> Callable[[TraceEvent], None]:
        return self.bus.subscribe(fn)
