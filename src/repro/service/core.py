"""GridService: the live grid engine behind the gateway, clock-agnostic.

This is the simulator's protocol stack re-hosted as a long-running
service.  The overlay, aggregation engine, matchmakers, heartbeat
protocol, and retry policy are the *same objects* the batch experiments
use; :class:`GridService` only changes three things:

* time comes from a :class:`~repro.sim.clock.Clock` — the DES kernel's
  :class:`~repro.sim.clock.SimClock` in tests, an
  :class:`~repro.service.aclock.AsyncioClock` under the gateway — so this
  module contains no asyncio and no DES-vs-wall-clock branches;
* job state lives in the persistent :class:`~repro.service.ledger`
  (status transitions are the single source of truth; the in-memory
  :class:`~repro.model.job.Job` objects are a cache of it);
* submissions arrive one at a time through :meth:`submit` instead of a
  pre-generated arrival process.

Crash recovery composes the two previous PRs' machinery: a node failure
routes lost jobs through the :class:`~repro.gridsim.recovery`
``RecoveryTracker``/``RetryPolicy`` pair exactly as the faulty-grid
simulation does, and a *process* restart (:meth:`recover`, run at
startup) treats every non-terminal ledger row the same way — a
``MATCHED``/``RUNNING`` job whose node vanished with the old process is
"lost to a crash" whose detection is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..can.aggregation import AggregationEngine
from ..can.heartbeat import HeartbeatScheme, ProtocolConfig
from ..can.space import ResourceSpace
from ..overlay import MaintenanceProtocol, get_substrate
from ..gridsim.config import MatchmakingConfig
from ..gridsim.recovery import RecoveryTracker, RetryPolicy
from ..gridsim.simulation import build_matchmaker
from ..model.job import Job
from ..model.node import GridNode
from ..sched.base import expanding_ring_search, fastest_dominant_clock
from ..sim.clock import CallbackHandle, Clock
from ..sim.rng import RngRegistry
from ..workload.nodes import generate_node_specs
from ..workload.presets import TINY_LOAD, WorkloadPreset
from ..workload.trace import job_from_dict
from .ledger import JobLedger, JobStatus, TERMINAL_STATES

__all__ = ["ServiceConfig", "GridService", "CancelError"]


class CancelError(ValueError):
    """The job exists but is not in a cancellable state."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a live grid service."""

    #: population/space shape (nodes, gpu_slots, heartbeat_period, seed);
    #: the preset's job-stream fields are ignored — jobs arrive via submit()
    preset: WorkloadPreset = TINY_LOAD
    scheme: str = "can-het"  # can-het | can-hom | central
    #: run a live HeartbeatProtocol next to the matchmaker (crash detection
    #: through missed-heartbeat timeouts, zone take-over on failure)
    heartbeat: bool = True
    heartbeat_scheme: HeartbeatScheme = HeartbeatScheme.VANILLA
    failure_timeout_periods: float = 2.5
    #: backoff/budget for retrying lost and not-yet-placeable jobs
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    aggregation_warmup_rounds: int = 5
    stopping_factor: float = 4.0
    max_push_hops: int = 64
    #: overlay substrate backing the service ("can", "chord", or any
    #: registered name); matchmaker and heartbeat run on either
    substrate: str = "can"

    def matchmaking(self) -> MatchmakingConfig:
        return MatchmakingConfig(
            self.preset,
            scheme=self.scheme,
            stopping_factor=self.stopping_factor,
            max_push_hops=self.max_push_hops,
            substrate=self.substrate,
        )


class GridService:
    """Overlay + matchmaker + heartbeat + ledger, driven by one Clock."""

    def __init__(
        self,
        config: ServiceConfig,
        ledger: JobLedger,
        clock: Clock,
        tracer=None,
        metrics=None,
        profiler=None,
    ):
        self.config = config
        self.ledger = ledger
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics
        preset = config.preset
        self.rngs = RngRegistry(preset.seed)
        self.space = ResourceSpace(gpu_slots=preset.gpu_slots)
        self._substrate = get_substrate(config.substrate)
        self.overlay = self._substrate.make_overlay(self.space)
        self.grid_nodes: Dict[int, GridNode] = {}
        mm_config = config.matchmaking()
        virtual_rng = self.rngs.stream("virtual")
        for spec in generate_node_specs(
            preset.nodes, preset.gpu_slots, self.rngs.stream("nodes")
        ):
            coord = self.space.node_coordinate(spec, float(virtual_rng.random()))
            self.overlay.add_node(spec.node_id, coord)
            self.grid_nodes[spec.node_id] = GridNode(
                spec,
                clock,
                contention=mm_config.contention,
                on_job_started=self._on_job_started,
                on_job_finished=self._on_job_finished,
            )
        self.aggregation = AggregationEngine(self.overlay, self.grid_nodes)
        self.matchmaker = build_matchmaker(
            mm_config,
            self.overlay,
            self.grid_nodes,
            self.aggregation,
            self.rngs.stream("matchmaking"),
        )
        self.matchmaker.attach_tracer(tracer, lambda: self.clock.now)
        self.matchmaker.attach_profiler(profiler)
        self.tracker = RecoveryTracker()
        self._retry_rng = self.rngs.stream("retry")
        #: live Job objects for every non-terminal ledger row
        self._jobs: Dict[int, Job] = {}
        #: pending retry timers, cancellable on cancel()/stop()
        self._retry_handles: Dict[int, CallbackHandle] = {}
        self._periodic: List[CallbackHandle] = []
        #: submit-side attempt counts for jobs that were never lost to a
        #: crash (the tracker only ledgers crash recoveries)
        self._submit_attempts: Dict[int, int] = {}
        self.protocol: Optional[MaintenanceProtocol] = None
        if config.heartbeat:
            self.protocol = self._substrate.make_protocol(
                self.overlay,
                ProtocolConfig(
                    scheme=config.heartbeat_scheme,
                    period=preset.heartbeat_period,
                    failure_timeout_periods=config.failure_timeout_periods,
                ),
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
            )
            self.protocol.adopt_overlay(self.clock.now)
            self.protocol.on_failure_detected = self._on_node_detected
        if metrics is not None:
            scope = metrics.scope("service")
            self._job_counter = scope.counter("jobs")
            #: streaming queue-depth distribution — O(1) memory however
            #: many samples the service's lifetime produces
            self._depth_sketch = scope.quantile_sketch("queue_depth")
        else:
            self._job_counter = None
            self._depth_sketch = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Warm the aggregates, recover ledger orphans, begin periodic ticks."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.aggregation.run_rounds(self.config.aggregation_warmup_rounds)
        self.recover()
        period = self.config.preset.heartbeat_period
        self._periodic.append(
            self.clock.call_every(period, self.aggregation.step)
        )
        if self.protocol is not None:
            self._periodic.append(
                self.clock.call_every(
                    self.protocol.config.period,
                    lambda: self.protocol.run_round(self.clock.now),
                )
            )
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now,
                "service.start",
                nodes=len(self.grid_nodes),
                scheme=self.config.scheme,
                heartbeat_class=(
                    None if self.protocol is None else type(self.protocol).__name__
                ),
                recovered=len(self._jobs),
            )

    def stop(self) -> None:
        """Cancel every timer.  Ledger state survives; timers do not."""
        for handle in self._periodic:
            handle.cancel()
        self._periodic.clear()
        for handle in self._retry_handles.values():
            handle.cancel()
        self._retry_handles.clear()
        if self.tracer is not None:
            self.tracer.emit(self.clock.now, "service.stop")
        self._started = False

    # -- restart recovery --------------------------------------------------------
    def recover(self) -> int:
        """Route every non-terminal ledger row back into scheduling.

        ``MATCHED``/``RUNNING`` rows are orphans: whatever node they were
        on, the run state died with the previous process (and the node
        itself may be gone from the rebuilt population).  They take the
        node-crash path — ``FAILED`` in the ledger, a loss in the
        :class:`RecoveryTracker` with immediate detection, then the
        :class:`RetryPolicy` loop — so the PR 4 accounting identity keeps
        holding across restarts.  ``SUBMITTED``/``RETRYING``/``FAILED``
        rows simply re-enter placement.  Returns the number of jobs
        re-entered.
        """
        now = self.clock.now
        recovered = 0
        for rec in self.ledger.in_flight():
            job = job_from_dict(rec.spec, job_id=rec.job_id)
            self._jobs[job.job_id] = job
            recovered += 1
            if rec.status in (
                JobStatus.MATCHED,
                JobStatus.RUNNING,
                JobStatus.FAILED,
            ):
                # MATCHED/RUNNING rows are orphans of the dead process; a
                # FAILED row means the kill landed between the FAILED write
                # and the RETRYING one.  All three are "lost to a crash"
                # whose detection is immediate — the crashed node *is* the
                # old process.
                orphan_node = rec.node_id if rec.node_id is not None else -1
                vanished = orphan_node not in self.grid_nodes
                self.tracker.node_crashed(orphan_node, now)
                self.tracker.job_lost(job, orphan_node, now)
                if rec.status is not JobStatus.FAILED:
                    self.ledger.transition(
                        rec.job_id,
                        JobStatus.FAILED,
                        now=now,
                        node_id=None,
                        detail=(
                            "node vanished across restart"
                            if vanished
                            else "orphaned by restart"
                        ),
                    )
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "service.orphan",
                        job=rec.job_id,
                        node=orphan_node,
                        vanished=vanished,
                    )
                self._on_node_detected(orphan_node, now)
            else:  # SUBMITTED or RETRYING: re-enter placement directly
                self._try_place(job)
        return recovered

    # -- submission --------------------------------------------------------------
    def submit(self, spec: Dict) -> int:
        """Accept one job spec (``workload.trace`` form); returns its id.

        The ledger row is durable before any scheduling happens; the
        recorded ``job_id`` (if any) is ignored — ids are the ledger's.
        """
        # parsed first: a spec that is refused must leave no ledger row
        job = job_from_dict(spec, job_id=-1)
        record = self.ledger.submit(
            {**spec, "job_id": None}, now=self.clock.now
        )
        job.job_id = record.job_id
        self._jobs[job.job_id] = job
        job.submit_time = self.clock.now
        if self._job_counter is not None:
            self._job_counter.add("submitted")
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now, "service.submit", job=record.job_id
            )
        self._try_place(job)
        self._sample_depth()
        return record.job_id

    def _try_place(self, job: Job) -> None:
        """One placement attempt from SUBMITTED/RETRYING (not crash retry).

        Attempt accounting mirrors :class:`RetryPolicy`'s contract (and the
        faulty grid's resubmission loop): the budget is checked *before*
        each attempt, so a job gets exactly ``max_attempts`` failed
        placements before abandonment.
        """
        attempts = self._submit_attempts.get(job.job_id, 0) + 1
        self._submit_attempts[job.job_id] = attempts
        policy = self.config.retry
        if policy.exhausted(attempts):
            self._abandon(job, attempts - 1)
            return
        node = self.matchmaker.place(job)
        if node is None:
            node = self._degraded_search(job)
        if node is not None:
            self.ledger.transition(
                job.job_id,
                JobStatus.MATCHED,
                now=self.clock.now,
                node_id=node.node_id,
            )
            node.submit(job)
            return
        record = self.ledger.record(job.job_id)
        if record.status is not JobStatus.RETRYING:
            self.ledger.transition(
                job.job_id,
                JobStatus.RETRYING,
                now=self.clock.now,
                attempts=attempts,
                detail="no capable node available",
            )
        delay = policy.delay(attempts, self._retry_rng)
        self._retry_handles[job.job_id] = self.clock.schedule_callback(
            delay, lambda j=job: self._retry_tick(j)
        )

    def _retry_tick(self, job: Job) -> None:
        self._retry_handles.pop(job.job_id, None)
        if self.ledger.record(job.job_id).status in TERMINAL_STATES:
            return
        if job.job_id in self.tracker.pending:
            self._resubmit(job)
        else:
            self._try_place(job)

    def _abandon(self, job: Job, attempts: int) -> None:
        self.ledger.transition(
            job.job_id,
            JobStatus.ABANDONED,
            now=self.clock.now,
            attempts=attempts,
        )
        if job.job_id in self.tracker.pending:
            self.tracker.job_abandoned(job.job_id)
        self._forget(job.job_id)
        if self._job_counter is not None:
            self._job_counter.add("abandoned")
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now,
                "grid.job_abandoned",
                job=job.job_id,
                attempts=attempts,
            )

    def _forget(self, job_id: int) -> None:
        self._jobs.pop(job_id, None)
        self._submit_attempts.pop(job_id, None)
        handle = self._retry_handles.pop(job_id, None)
        if handle is not None:
            handle.cancel()

    # -- node callbacks ----------------------------------------------------------
    def _on_job_started(self, node: GridNode, job: Job) -> None:
        self.ledger.transition(
            job.job_id,
            JobStatus.RUNNING,
            now=self.clock.now,
            node_id=node.node_id,
        )

    def _on_job_finished(self, node: GridNode, job: Job) -> None:
        self.ledger.transition(
            job.job_id, JobStatus.COMPLETED, now=self.clock.now
        )
        self._forget(job.job_id)
        if self._job_counter is not None:
            self._job_counter.add("completed")
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now,
                "service.complete",
                job=job.job_id,
                node=node.node_id,
            )
        self._sample_depth()

    # -- failures ----------------------------------------------------------------
    def fail_node(self, node_id: int) -> List[int]:
        """Crash one node; returns the ids of the jobs lost with it.

        Detection then follows the heartbeat protocol (believers time the
        node out, the take-over path reclaims its zones) exactly as in the
        faulty-grid simulation; without a protocol the loss is detected
        immediately.
        """
        now = self.clock.now
        victim = self.grid_nodes.pop(node_id)
        lost = victim.fail()
        self.tracker.node_crashed(node_id, now)
        for job in lost:
            job.enqueue_time = None
            job.start_time = None
            job.finish_time = None
            job.run_node_id = None
            self.tracker.job_lost(job, node_id, now)
            self.ledger.transition(
                job.job_id,
                JobStatus.FAILED,
                now=now,
                node_id=None,
                detail=f"node {node_id} crashed",
            )
        if self.tracer is not None:
            self.tracer.emit(
                now, "grid.crash", node=node_id, jobs_lost=len(lost)
            )
        if self.protocol is not None:
            self.protocol.fail(node_id, now)
        else:
            self.overlay.fail(node_id)
            self.overlay.claim_zones(node_id)
            self._on_node_detected(node_id, now)
        return [job.job_id for job in lost]

    def _on_node_detected(self, node_id: int, now: float) -> None:
        latency, released = self.tracker.node_detected(node_id, now)
        if latency is None:
            return
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "recovery.detected",
                node=node_id,
                latency=latency,
                jobs=len(released),
            )
        for job in released:
            self._resubmit(job)

    def _resubmit(self, job: Job) -> None:
        """The crash-recovery retry loop (FAILED -> RETRYING -> MATCHED)."""
        policy = self.config.retry
        attempts = self.tracker.begin_attempt(job.job_id)
        if policy.exhausted(attempts):
            self.tracker.job_abandoned(job.job_id)
            # FAILED -> ABANDONED and RETRYING -> ABANDONED are both legal,
            # so no intermediate transition is needed whichever state the
            # budget ran out in
            self.ledger.transition(
                job.job_id,
                JobStatus.ABANDONED,
                now=self.clock.now,
                attempts=attempts - 1,
            )
            self._forget(job.job_id)
            if self._job_counter is not None:
                self._job_counter.add("abandoned")
            if self.tracer is not None:
                self.tracer.emit(
                    self.clock.now,
                    "grid.job_abandoned",
                    job=job.job_id,
                    attempts=attempts - 1,
                )
            return
        record = self.ledger.record(job.job_id)
        if record.status is JobStatus.FAILED:
            self.ledger.transition(
                job.job_id,
                JobStatus.RETRYING,
                now=self.clock.now,
                attempts=attempts,
            )
        node = self.matchmaker.place(job)
        if node is None:
            node = self._degraded_search(job)
        if node is None:
            delay = policy.delay(attempts, self._retry_rng)
            self._retry_handles[job.job_id] = self.clock.schedule_callback(
                delay, lambda j=job: self._retry_tick(j)
            )
            return
        self.tracker.job_resubmitted(job.job_id, self.clock.now)
        self.ledger.transition(
            job.job_id,
            JobStatus.MATCHED,
            now=self.clock.now,
            node_id=node.node_id,
        )
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now,
                "grid.job_resubmit",
                job=job.job_id,
                attempt=attempts,
            )
        node.submit(job)

    def _degraded_search(self, job: Job) -> Optional[GridNode]:
        """Bounded ring search when the aggregates are stale (see faulty.py)."""
        policy = self.config.retry
        if not policy.ring_fallback or self.config.scheme == "central":
            return None
        if not self.aggregation.is_stale():
            return None
        coord = self.space.job_coordinate(job, float(self._retry_rng.random()))
        origin = self.overlay.locate_owner(coord)
        candidates = expanding_ring_search(
            self.overlay, self.grid_nodes, origin, job, policy.ring_budget
        )
        if not candidates:
            return None
        chosen = fastest_dominant_clock(candidates, job)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now,
                "recovery.fallback",
                job=job.job_id,
                node=chosen.node_id,
                candidates=len(candidates),
            )
        return chosen

    # -- cancel / queries --------------------------------------------------------
    def cancel(self, job_id: int) -> None:
        """Cancel a job that has not started running.

        Legal from ``SUBMITTED``/``RETRYING`` (drop the pending retry) and
        from ``MATCHED`` (remove from its node's queue).  ``RUNNING`` and
        terminal jobs raise :class:`CancelError`.
        """
        record = self.ledger.record(job_id)
        if record.status not in (
            JobStatus.SUBMITTED,
            JobStatus.RETRYING,
            JobStatus.MATCHED,
        ):
            raise CancelError(
                f"job {job_id} is {record.status.value}; not cancellable"
            )
        if record.status is JobStatus.MATCHED:
            node = self.grid_nodes.get(record.node_id)
            job = self._jobs.get(job_id)
            if node is None or job is None or not node.dequeue(job):
                raise CancelError(
                    f"job {job_id} is no longer queued; cannot cancel"
                )
        if job_id in self.tracker.pending:
            # a crash recovery resolved by the user: ledger says CANCELLED,
            # the tracker books it with the abandonments (resolved without
            # resubmission) so its loss identity keeps balancing
            self.tracker.job_abandoned(job_id)
        self.ledger.transition(job_id, JobStatus.CANCELLED, now=self.clock.now)
        self._forget(job_id)
        if self._job_counter is not None:
            self._job_counter.add("cancelled")
        if self.tracer is not None:
            self.tracer.emit(self.clock.now, "service.cancel", job=job_id)
        self._sample_depth()

    def queue_depth(self) -> int:
        """Jobs enqueued on nodes plus jobs waiting on a retry timer."""
        queued = sum(
            node.queued_jobs() for node in self.grid_nodes.values()
        )
        return queued + len(self._retry_handles)

    def running_jobs(self) -> int:
        return sum(node.running_jobs() for node in self.grid_nodes.values())

    def quiesced(self) -> bool:
        """No in-flight ledger rows — every submitted job reached a terminal state."""
        return not self.ledger.in_flight()

    def _sample_depth(self) -> None:
        if self._depth_sketch is not None:
            self._depth_sketch.insert(float(self.queue_depth()))

    def health(self) -> Dict:
        counts = self.ledger.counts()
        return {
            "status": "ok",
            "now": self.clock.now,
            "scheme": self.config.scheme,
            "population": len(self.grid_nodes),
            "queue_depth": self.queue_depth(),
            "running": self.running_jobs(),
            "jobs": {status.value: n for status, n in counts.items() if n},
        }
