"""The crash-recovery path, written once: backoff, ledger, and the loop itself.

Three pieces live here:

* :func:`retry_delay` and the constants beside it — the resubmission
  loop's exponential backoff with jitter and its per-job attempt budget
  (``MAX_ATTEMPTS``).  They are our extension, not the paper's: no run
  varies them, so they are constants.
* :class:`RecoveryTracker` — the ledger of in-flight recoveries: which
  jobs are awaiting failure *detection* (the heartbeat protocol has not
  yet noticed their node died), which are between placement attempts, and
  the latency samples the ``recovery`` experiment reports
  (crash → detection, crash → successful resubmission).
* :class:`RecoveryLoop` — crash → detect → place-with-retry on a
  :class:`~repro.sim.clock.Clock`.  The batch simulator
  (:class:`~repro.gridsim.faulty.FaultyGridSimulation`) and the live
  :class:`~repro.service.core.GridService` host this one object, so the
  ``recovery`` experiment measures the code the gateway runs.

The backoff and the tracker stay simulation-agnostic (unit-testable
without an :class:`~repro.sim.core.Environment`).  The tracker is the
authoritative answer to "is recovery work still pending?" —
:meth:`FaultyGridSimulation._work_remaining` consults it, so the
aggregation and churn chains keep running until every lost job is
either resubmitted or abandoned (previously, jobs whose detection callback
had not fired yet were invisible and the grid could freeze early).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..model.job import Job
from ..model.node import GridNode
from ..obs.registry import MetricsRegistry
from ..sim.clock import CallbackHandle, Clock

__all__ = ["retry_delay", "PendingRecovery", "RecoveryTracker", "RecoveryLoop"]


#: delay before the first retry after a failed placement attempt (seconds)
BASE_DELAY = 120.0
#: multiplier applied per further attempt
BACKOFF_FACTOR = 2.0
#: ceiling on any single backoff delay (seconds)
MAX_DELAY = 1800.0
#: +/- fractional jitter on each delay, drawn from the seeded ``retry``
#: stream, so runs stay reproducible
JITTER = 0.1
#: a job is abandoned after this many failed placement attempts
MAX_ATTEMPTS = 5


def retry_delay(attempt: int, rng: np.random.Generator) -> float:
    """Backoff before retrying after failed attempt number ``attempt``:
    exponential, capped, jittered by one draw from ``rng``."""
    delay = min(BASE_DELAY * BACKOFF_FACTOR ** (attempt - 1), MAX_DELAY)
    return delay * (1.0 + JITTER * float(rng.uniform(-1.0, 1.0)))


@dataclass
class PendingRecovery:
    """One lost job's recovery state, from crash until resubmit/abandon."""

    job: Job
    node_id: int  # node the job was lost with
    lost_at: float
    attempts: int = 0
    detected_at: Optional[float] = None

    @property
    def awaiting_detection(self) -> bool:
        return self.detected_at is None


class RecoveryTracker:
    """Ledger of crashes and lost jobs moving through recovery.

    Lifecycle of a lost job::

        node_crashed ─┐
        job_lost ─────┴─> (awaiting detection) ─ node_detected ─>
            (retrying) ─ job_resubmitted | job_abandoned

    Counters here are *event* counts (a job lost twice contributes two
    losses and up to two resubmissions), which is what makes the churn
    ledger balance exactly::

        jobs_lost == jobs_resubmitted + jobs_abandoned + len(pending)
    """

    def __init__(self) -> None:
        #: job_id -> in-flight recovery record
        self.pending: Dict[int, PendingRecovery] = {}
        #: node_id -> crash time, removed once the crash is detected
        self._crash_times: Dict[int, float] = {}
        #: crash-to-detection latency samples (one per crashed node)
        self.detection_latencies: List[float] = []
        #: crash-to-successful-resubmission samples (one per recovered job)
        self.resubmission_latencies: List[float] = []
        self.losses = 0
        self.resubmissions = 0
        self.abandonments = 0

    # -- crash side -------------------------------------------------------------
    def node_crashed(self, node_id: int, now: float) -> None:
        self._crash_times[node_id] = now

    def job_lost(self, job: Job, node_id: int, now: float) -> None:
        self.losses += 1
        self.pending[job.job_id] = PendingRecovery(job, node_id, now)

    def node_detected(self, node_id: int, now: float) -> Tuple[Optional[float], List[Job]]:
        """Record a detection; return (latency, jobs now eligible to retry).

        Unknown nodes (never registered via :meth:`node_crashed`, or already
        detected) yield ``(None, [])`` — detection is idempotent here even
        if the caller's dedup slips.
        """
        crashed_at = self._crash_times.pop(node_id, None)
        if crashed_at is None:
            return None, []
        latency = now - crashed_at
        self.detection_latencies.append(latency)
        released: List[Job] = []
        for rec in self.pending.values():
            if rec.node_id == node_id and rec.awaiting_detection:
                rec.detected_at = now
                released.append(rec.job)
        return latency, released

    # -- resubmission side ------------------------------------------------------
    def begin_attempt(self, job_id: int) -> int:
        """Count one placement attempt; returns the new attempt number."""
        rec = self.pending[job_id]
        rec.attempts += 1
        return rec.attempts

    def job_resubmitted(self, job_id: int, now: float) -> None:
        rec = self.pending.pop(job_id)
        self.resubmissions += 1
        self.resubmission_latencies.append(now - rec.lost_at)

    def job_abandoned(self, job_id: int) -> None:
        del self.pending[job_id]
        self.abandonments += 1

    # -- queries ----------------------------------------------------------------
    def has_pending(self) -> bool:
        return bool(self.pending)

    def undetected_crashes(self) -> List[int]:
        return list(self._crash_times)

    def balances(self) -> bool:
        """The ledger identity: every loss is resolved or still pending."""
        return self.losses == (
            self.resubmissions + self.abandonments + len(self.pending)
        )


def _no_edge(*_args: Any) -> None:
    """A host with nothing to record at this point of the loop."""


class RecoveryLoop:
    """Crash → detect → place-with-retry, for whichever host holds the grid.

    ``host`` supplies the ``retry`` stream of its ``rngs`` and the stack the
    loop acts on — ``grid_nodes``, ``protocol``, ``matchmaker``,
    ``tracer`` — read at call time, so a host may wrap or replace
    them after construction.  A crash is detected one way: the host wires
    the protocol's ``on_failure_detected`` to :meth:`detected`, which fires
    when believers' heartbeat timeouts do (or, with no believer left, at
    once).  What
    *differs* between hosts (counters on one, persistent-ledger edges on the
    other) are callbacks:

    * ``placed(job, node)`` — hand the job over (after a crash retry,
      ``grid.job_resubmit`` has just been emitted);
    * ``abandoned(job, attempts)`` — the budget ran out after ``attempts``
      failed placements (``grid.job_abandoned`` follows);
    * ``crashed(node_id, lost)`` — the victim's jobs are ledgered as lost,
      detection is not yet in motion;
    * ``retrying(job, attempt)`` — the job now waits on the loop: a
      crash-lost one before its placement, a never-placed one after a miss.

    :meth:`attempt` serves both a job lost to a crash (attempts counted on
    its :class:`PendingRecovery`) and one never yet placed (counted in
    ``_unplaced``): the budget is checked *before* each attempt, so a job
    gets exactly ``MAX_ATTEMPTS`` failed placements before abandonment.
    The ``retry`` stream gives one jitter per miss and nothing else.
    """

    def __init__(
        self,
        host: Any,
        clock: Clock,
        *,
        placed: Callable[[Job, GridNode], None],
        abandoned: Callable[[Job, int], None],
        crashed: Callable[[int, List[Job]], None] = _no_edge,
        retrying: Callable[[Job, int], None] = _no_edge,
        metrics: Optional[MetricsRegistry],
    ):
        self.host, self.clock = host, clock
        self.rng = host.rngs.stream("retry")
        self.tracker = RecoveryTracker()
        self._placed, self._abandoned = placed, abandoned
        self._crashed, self._retrying = crashed, retrying
        #: failed placements so far of jobs that were never lost to a crash
        self._unplaced: Dict[int, int] = {}
        #: job_id -> pending backoff timer, cancelled by :meth:`forget` — a
        #: timer that fires therefore always finds its job still unresolved
        self.timers: Dict[int, CallbackHandle] = {}
        scope = (metrics or MetricsRegistry()).scope("recovery")
        self._counter = scope.counter("events")
        #: streaming latency distributions (crash -> detection, crash ->
        #: successful resubmission) — constant memory regardless of churn
        self._detection_sketch = scope.quantile_sketch("detection_latency")
        self._resubmission_sketch = scope.quantile_sketch("resubmission_latency")

    def _emit(self, now: float, etype: str, **fields: Any) -> None:
        if self.host.tracer is not None:
            self.host.tracer.emit(now, etype, **fields)

    # -- crash side -------------------------------------------------------------
    def crash(self, node_id: int) -> List[Job]:
        """Crash one node: its jobs are lost, detection is set in motion."""
        host, now = self.host, self.clock.now
        lost = host.grid_nodes.pop(node_id).fail()
        for job in lost:
            job.enqueue_time = job.start_time = job.finish_time = job.run_node_id = None
        self._emit(now, "grid.crash", node=node_id, jobs_lost=len(lost))
        self.lose(node_id, lost, now)
        self._crashed(node_id, lost)
        # zones linger as ghosts until believers time the victim out and the
        # take-over path claims them; detection arrives via on_failure_detected
        host.protocol.fail(node_id, now)
        if not host.grid_nodes:
            # no believer is left to time anyone out: the host notices
            for dead_id in self.tracker.undetected_crashes():
                self.detected(dead_id, now)
        return lost

    def lose(self, node_id: int, jobs: List[Job], now: float) -> None:
        """Ledger ``jobs`` as lost with ``node_id``, awaiting its detection."""
        self.tracker.node_crashed(node_id, now)
        for job in jobs:
            self.tracker.job_lost(job, node_id, now)
            self._emit(now, "grid.job_lost", job=job.job_id, node=node_id)

    def detected(self, node_id: int, now: float) -> None:
        """A crash was noticed; retry the jobs that died with it.

        The one detection entry point: the protocol's ``on_failure_detected``,
        a total loss in :meth:`crash`, and a restarted service's orphans."""
        latency, released = self.tracker.node_detected(node_id, now)
        if latency is None:
            return  # already detected through another path
        self._counter.add("detections")
        self._detection_sketch.insert(latency)
        self._emit(
            now, "recovery.detected", node=node_id, latency=latency, jobs=len(released)
        )
        for job in released:
            self.attempt(job)

    # -- placement side ---------------------------------------------------------
    def attempt(self, job: Job) -> None:
        """One placement attempt: hand over, back off, or abandon on budget."""
        host, job_id = self.host, job.job_id
        lost = job_id in self.tracker.pending
        if lost:
            attempts = self.tracker.begin_attempt(job_id)
        else:
            attempts = self._unplaced.get(job_id, 0) + 1
        if attempts > MAX_ATTEMPTS:
            self.forget(job_id)
            self._abandoned(job, attempts - 1)
            self._emit(
                self.clock.now, "grid.job_abandoned", job=job_id, attempts=attempts - 1
            )
            return
        if lost:
            self._retrying(job, attempts)
        # a grid with no node left has no candidate
        node = host.matchmaker.place(job) if host.grid_nodes else None
        if node is None:
            if not lost:
                self._unplaced[job_id] = attempts
                self._retrying(job, attempts)
            self.timers[job_id] = self.clock.schedule_callback(
                retry_delay(attempts, self.rng), lambda: self._tick(job)
            )
            return
        if lost:
            now = self.clock.now
            self.tracker.job_resubmitted(job_id, now)
            self._resubmission_sketch.insert(self.tracker.resubmission_latencies[-1])
            self._emit(now, "grid.job_resubmit", job=job_id, attempt=attempts)
        else:
            self._unplaced.pop(job_id, None)
        self._placed(job, node)

    def _tick(self, job: Job) -> None:
        del self.timers[job.job_id]
        self.attempt(job)

    def forget(self, job_id: int) -> None:
        """Resolve ``job_id`` without a placement (budget spent, cancelled): its
        backoff timer is cancelled, a pending crash recovery is booked with the
        abandonments so the loss identity keeps balancing."""
        self._unplaced.pop(job_id, None)
        handle = self.timers.pop(job_id, None)
        if handle is not None:
            handle.cancel()
        if job_id in self.tracker.pending:
            self.tracker.job_abandoned(job_id)
