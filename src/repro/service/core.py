"""GridService: the live grid engine behind the gateway, clock-agnostic.

This is the simulator's protocol stack re-hosted as a long-running
service.  The overlay, aggregation engine, matchmakers, heartbeat
protocol, and recovery loop are the *same objects* the batch experiments
use; :class:`GridService` only changes three things:

* time comes from a :class:`~repro.sim.clock.Clock` — a DES
  :class:`~repro.sim.core.Environment` in tests, an
  :class:`~repro.service.aclock.AsyncioClock` under the gateway — so this
  module contains no asyncio and no DES-vs-wall-clock branches.  Neither
  clock swallows an exception from this stack: the DES run raises it, the
  asyncio clock stops on it and the gateway answers 503;
* job state lives in the persistent :class:`~repro.service.ledger`
  (status transitions are the single source of truth; the in-memory
  :class:`~repro.model.job.Job` objects are a cache of it);
* submissions arrive one at a time through :meth:`submit` instead of a
  pre-generated arrival chain.

Neither the job lifecycle nor crash recovery is re-implemented here: the
service hosts the same :class:`~repro.gridsim.simulation.JobLifecycle`
(the ``grid.job_*`` events and the wait sketches) and
:class:`~repro.gridsim.recovery.RecoveryLoop` (crash, detection,
placement with retry, abandonment) the faulty-grid simulation does, and
contributes only the ledger edges around them.  A *process* restart
(:meth:`recover`, run at startup) treats every non-terminal ledger row
the same way — a ``MATCHED``/``RUNNING`` job whose node vanished with the
old process is "lost to a crash" whose detection is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..can.heartbeat import HeartbeatScheme
from ..can.space import ResourceSpace
from ..gridsim.config import MatchmakingConfig
from ..gridsim.simulation import AGGREGATION_WARMUP_ROUNDS, JobLifecycle, wire_grid
from ..model.job import Job
from ..model.node import GridNode
from ..sim.clock import CallbackHandle, Clock
from ..sim.rng import RngRegistry
from ..workload.nodes import generate_node_specs
from ..workload.presets import TINY_LOAD, WorkloadPreset
from ..workload.trace import job_from_dict, job_to_dict
from .ledger import JobLedger, JobStatus

__all__ = ["ServiceConfig", "GridService", "CancelError"]


class CancelError(ValueError):
    """The job exists but is not in a cancellable state."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a live grid service."""

    #: population/space shape (nodes, gpu_slots, seed);
    #: the preset's job-stream fields are ignored — jobs arrive via submit()
    preset: WorkloadPreset = TINY_LOAD
    scheme: str = "can-het"  # can-het | can-hom | central

    def matchmaking(self) -> MatchmakingConfig:
        return MatchmakingConfig(self.preset, scheme=self.scheme)


class GridService:
    """Overlay + matchmaker + heartbeat + ledger, driven by one Clock."""

    def __init__(
        self,
        config: ServiceConfig,
        ledger: JobLedger,
        clock: Clock,
        tracer=None,
        metrics=None,
    ):
        self.config = config
        self.ledger = ledger
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics
        preset = config.preset
        self.rngs = RngRegistry(preset.seed)
        self.space = ResourceSpace(gpu_slots=preset.gpu_slots)
        #: live Job objects for every non-terminal ledger row
        self._jobs: Dict[int, Job] = {}
        self._periodic: List[CallbackHandle] = []
        # the faulty grid's wiring; the lifecycle's and the recovery loop's
        # callbacks are this host's ledger edges
        self.lifecycle = JobLifecycle(
            clock, tracer, metrics,
            started=self._job_started, finished=self._job_finished,
        )
        wire_grid(
            self,
            generate_node_specs(
                preset.nodes, preset.gpu_slots, self.rngs.stream("nodes")
            ),
            clock,
            config.matchmaking(),
            HeartbeatScheme.VANILLA,
            crashed=self._node_crashed,
            placed=self._job_placed,
            abandoned=self._job_abandoned,
            retrying=self._job_retrying,
        )
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
        self.aggregation.run_rounds(AGGREGATION_WARMUP_ROUNDS)
        self.recover()
        period = self.config.preset.heartbeat_period
        self._periodic.append(
            self.clock.call_every(period, self.aggregation.step)
        )
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
                heartbeat_class=type(self.protocol).__name__,
                recovered=len(self._jobs),
            )

    def stop(self) -> None:
        """Cancel every timer: the periodic ticks, the retry backoffs and
        the running jobs' completions.  Ledger state survives; timers do
        not."""
        for handle in self._periodic:
            handle.cancel()
        self._periodic.clear()
        for handle in self.recovery.timers.values():
            handle.cancel()
        self.recovery.timers.clear()
        for node in self.grid_nodes.values():
            node.cancel_completions()
        if self.tracer is not None:
            self.tracer.emit(self.clock.now, "service.stop")
        self._started = False

    # -- restart recovery --------------------------------------------------------
    def recover(self) -> int:
        """Route every non-terminal ledger row back into scheduling.

        ``MATCHED``/``RUNNING`` rows are orphans: whatever node they were
        on, the run state died with the previous process (and the node
        itself may be gone from the rebuilt population); a ``FAILED`` row
        means the kill landed between the FAILED write and the RETRYING
        one.  All three take the node-crash path — ``FAILED`` in the
        ledger, a loss in the :class:`RecoveryTracker` whose detection is
        immediate (the crashed node *is* the old process), then the
        :class:`RecoveryLoop` — so the PR 4 accounting identity keeps
        holding across restarts.  ``SUBMITTED``/``RETRYING`` rows simply
        re-enter placement.  Returns the number of jobs re-entered.
        """
        now = self.clock.now
        recovered = 0
        for rec in self.ledger.in_flight():
            job = job_from_dict(rec.spec, job_id=rec.job_id)
            self._jobs[job.job_id] = job
            recovered += 1
            if rec.status in (JobStatus.SUBMITTED, JobStatus.RETRYING):
                self.recovery.attempt(job)
                continue
            orphan_node = rec.node_id if rec.node_id is not None else -1
            vanished = orphan_node not in self.grid_nodes
            self.recovery.lose(orphan_node, [job], now)
            why = "node vanished across restart" if vanished else "orphaned by restart"
            if rec.status is not JobStatus.FAILED:
                self._edge(rec.job_id, JobStatus.FAILED, node_id=None, detail=why)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "service.orphan",
                    job=rec.job_id,
                    node=orphan_node,
                    vanished=vanished,
                )
            self.recovery.detected(orphan_node, now)
        return recovered

    # -- submission --------------------------------------------------------------
    def submit(self, spec: Dict) -> int:
        """Accept one job spec (``workload.trace`` form); returns its id.

        The ledger row is durable before any scheduling happens; the
        recorded ``job_id`` (if any) is ignored — ids are the ledger's.
        The row holds the parsed job's canonical spec, not the body as
        sent: unknown fields are dropped.
        """
        # parsed first: a spec that is refused must leave no ledger row
        job = job_from_dict(spec, job_id=-1)
        record = self.ledger.submit(
            {**job_to_dict(job), "job_id": None}, now=self.clock.now
        )
        job.job_id = record.job_id
        self._jobs[job.job_id] = job
        job.submit_time = self.clock.now
        if self._job_counter is not None:
            self._job_counter.add("submitted")
        self.lifecycle.submitted(job)
        self.recovery.attempt(job)
        self._sample_depth()
        return record.job_id

    # -- ledger edges of the recovery loop -----------------------------------------
    def _edge(self, job_id: int, to: JobStatus, **changes) -> None:
        self.ledger.transition(job_id, to, now=self.clock.now, **changes)

    def _job_placed(self, job: Job, node: GridNode) -> None:
        self._edge(job.job_id, JobStatus.MATCHED, node_id=node.node_id)
        node.submit(job)

    def _job_retrying(self, job: Job, attempts: int) -> None:
        """FAILED -> RETRYING before a crash retry's placement (FAILED ->
        MATCHED is no ledger edge), SUBMITTED -> RETRYING after a first miss."""
        status = self.ledger.record(job.job_id).status
        if status is not JobStatus.RETRYING:
            # a FAILED row keeps its "node N crashed"
            why = None if status is JobStatus.FAILED else "no capable node available"
            self._edge(job.job_id, JobStatus.RETRYING, attempts=attempts, detail=why)

    def _job_abandoned(self, job: Job, attempts: int) -> None:
        # FAILED -> ABANDONED and RETRYING -> ABANDONED are both legal, so
        # no intermediate transition is needed whichever state the budget
        # ran out in
        self._edge(job.job_id, JobStatus.ABANDONED, attempts=attempts)
        self._forget(job.job_id)
        if self._job_counter is not None:
            self._job_counter.add("abandoned")

    def _forget(self, job_id: int) -> None:
        self._jobs.pop(job_id, None)
        self.recovery.forget(job_id)

    # -- ledger edges of the job lifecycle ----------------------------------------
    def _job_started(self, node: GridNode, job: Job) -> None:
        self._edge(job.job_id, JobStatus.RUNNING, node_id=node.node_id)

    def _job_finished(self, node: GridNode, job: Job) -> None:
        self._edge(job.job_id, JobStatus.COMPLETED)
        self._forget(job.job_id)
        if self._job_counter is not None:
            self._job_counter.add("completed")
        self._sample_depth()

    # -- failures ----------------------------------------------------------------
    def fail_node(self, node_id: int) -> List[int]:
        """Crash one node; returns the ids of the jobs lost with it.

        Detection follows the heartbeat protocol: believers time the node
        out and the take-over path reclaims its zones.  With no node left
        to believe anything, the loss is detected at once.
        """
        return [job.job_id for job in self.recovery.crash(node_id)]

    def _node_crashed(self, node_id: int, lost: List[Job]) -> None:
        detail = f"node {node_id} crashed"
        for job in lost:
            self._edge(job.job_id, JobStatus.FAILED, node_id=None, detail=detail)

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
        self._edge(job_id, JobStatus.CANCELLED)
        # drops the pending retry; a crash recovery resolved by the user is
        # booked with the tracker's abandonments (resolved without
        # resubmission)
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
        return queued + len(self.recovery.timers)

    def running_jobs(self) -> int:
        return sum(node.running_jobs() for node in self.grid_nodes.values())

    def _sample_depth(self) -> None:
        if self._depth_sketch is not None:
            self._depth_sketch.insert(float(self.queue_depth()))

    def health(self) -> Dict:
        counts = self.ledger.counts()
        return {
            "status": "ok" if self.grid_nodes else "no nodes",
            "now": self.clock.now,
            "scheme": self.config.scheme,
            "population": len(self.grid_nodes),
            "queue_depth": self.queue_depth(),
            "running": self.running_jobs(),
            "jobs": {status.value: n for status, n in counts.items() if n},
        }
