"""The crash-recovery path, written once: policy, ledger, and the loop itself.

Three pieces live here:

* :class:`RetryPolicy` — the knobs of the resubmission loop: exponential
  backoff with jitter, a per-job attempt budget, and the degradation
  switch to an expanding-ring search when the aggregation snapshot is
  stale (a placement "failure" right after a crash usually means the
  aggregates have not caught up, not that no capable node exists).
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

The policy and the tracker stay simulation-agnostic (unit-testable
without an :class:`~repro.sim.core.Environment`).  The tracker is the
authoritative answer to "is recovery work still pending?" —
:meth:`FaultyGridSimulation._work_remaining` consults it, so the
aggregation and churn processes keep running until every lost job is
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
from ..sched.base import fastest_dominant_clock, ring_search
from ..sim.clock import CallbackHandle, Clock

__all__ = ["RetryPolicy", "PendingRecovery", "RecoveryTracker", "RecoveryLoop"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/budget knobs for resubmitting jobs lost to node crashes."""

    #: delay before the first retry after a failed placement attempt
    base_delay: float = 120.0
    #: multiplier applied per further attempt (1.0 = flat retries)
    backoff_factor: float = 2.0
    #: ceiling on any single backoff delay
    max_delay: float = 1800.0
    #: +/- fractional jitter applied to each delay (0 = deterministic gaps;
    #: the draw comes from a seeded stream, so runs stay reproducible)
    jitter: float = 0.1
    #: a job is abandoned after this many failed placement attempts
    max_attempts: int = 5
    #: when a placement fails while the aggregation snapshot is stale,
    #: degrade to an expanding-ring search over the ground-truth overlay
    #: instead of waiting out a full backoff period
    ring_fallback: bool = True
    #: how many nodes that search may discover (:func:`ring_search`)
    ring_budget: int = 128

    def __post_init__(self) -> None:
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("retry delays must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("need at least one placement attempt")
        if self.ring_budget < 1:
            raise ValueError("ring_budget must be positive")

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retrying after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        raw = self.base_delay * self.backoff_factor ** (attempt - 1)
        capped = min(raw, self.max_delay)
        if self.jitter and rng is not None:
            capped *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return capped

    def exhausted(self, attempts: int) -> bool:
        return attempts > self.max_attempts


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
    loop acts on — ``grid_nodes``, ``overlay``, ``protocol`` (None: no
    heartbeats, detection after ``detection_delay``), ``matchmaker``,
    ``aggregation``, ``space``, ``tracer``, ``config.scheme`` — read at call
    time, so a host may wrap or replace them after construction.  What
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
    gets exactly ``max_attempts`` failed placements before abandonment.
    The ``retry`` stream is drawn in a fixed order — one coordinate per
    degraded search, then one jitter per miss.
    """

    def __init__(
        self,
        host: Any,
        policy: RetryPolicy,
        clock: Clock,
        *,
        placed: Callable[[Job, GridNode], None],
        abandoned: Callable[[Job, int], None],
        crashed: Callable[[int, List[Job]], None] = _no_edge,
        retrying: Callable[[Job, int], None] = _no_edge,
        detection_delay: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.host, self.policy, self.clock = host, policy, clock
        self.rng = host.rngs.stream("retry")
        self.detection_delay = detection_delay
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
        if host.protocol is not None:
            # zones linger as ghosts until believers time the victim out
            # and the take-over path claims them; detection arrives via
            # on_failure_detected
            host.protocol.fail(node_id, now)
            if not host.grid_nodes:
                # no believer is left to time anyone out: the host notices
                for dead_id in self.tracker.undetected_crashes():
                    self.detected(dead_id, now)
            return lost
        host.overlay.fail(node_id)
        host.overlay.claim_zones(node_id)
        if self.detection_delay > 0:
            self.clock.schedule_callback(
                self.detection_delay, lambda: self.detected(node_id, self.clock.now)
            )
        else:
            self.detected(node_id, now)
        return lost

    def lose(self, node_id: int, jobs: List[Job], now: float) -> None:
        """Ledger ``jobs`` as lost with ``node_id``, awaiting its detection."""
        self.tracker.node_crashed(node_id, now)
        for job in jobs:
            self.tracker.job_lost(job, node_id, now)
            self._emit(now, "grid.job_lost", job=job.job_id, node=node_id)

    def detected(self, node_id: int, now: float) -> None:
        """A crash was noticed; retry the jobs that died with it."""
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
        if self.policy.exhausted(attempts):
            self.forget(job_id)
            self._abandoned(job, attempts - 1)
            self._emit(
                self.clock.now, "grid.job_abandoned", job=job_id, attempts=attempts - 1
            )
            return
        if lost:
            self._retrying(job, attempts)
        node = None
        if host.grid_nodes:  # a grid with no node left has no candidate
            node = host.matchmaker.place(job)
            if node is None:
                node = self._degraded_search(job)
        if node is None:
            if not lost:
                self._unplaced[job_id] = attempts
                self._retrying(job, attempts)
            self.timers[job_id] = self.clock.schedule_callback(
                self.policy.delay(attempts, self.rng), lambda: self._tick(job)
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

    def _degraded_search(self, job: Job) -> Optional[GridNode]:
        """Expanding-ring rescue when a placement fails on stale aggregates.

        Right after a crash the matchmaker's directional summaries still
        describe the pre-crash topology (and are reset on the next
        aggregation step), so "no candidate found" is weak evidence.  A
        bounded ring search over the ground-truth overlay answers the real
        question — does a live capable node exist near the job's
        coordinate — at the cost the paper already budgets for rare
        fallback sweeps.
        """
        host, policy = self.host, self.policy
        if not policy.ring_fallback or host.config.scheme == "central":
            return None
        if not host.aggregation.is_stale():
            return None
        coord = host.space.job_coordinate(job, float(self.rng.random()))
        origin = host.overlay.locate_owner(coord)
        neighbors = host.overlay.neighbors
        candidates = ring_search(
            host.grid_nodes, origin, job,
            lambda nid: sorted(neighbors(nid)), policy.ring_budget,
        )
        if not candidates:
            return None
        self._counter.add("ring_fallbacks")
        chosen = fastest_dominant_clock(candidates, job)
        self._emit(
            self.clock.now,
            "recovery.fallback",
            job=job.job_id,
            node=chosen.node_id,
            candidates=len(candidates),
        )
        return chosen
