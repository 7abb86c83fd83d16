"""Grid nodes: a bundle of CEs with per-CE FIFO queues and a job engine.

A :class:`GridNode` owns one CPU CE and zero or more GPU CEs.  Jobs are
enqueued on their dominant CE's FIFO queue and start as soon as the head of
that queue can claim cores on *every* CE it requires (dedicated CEs must be
idle, non-dedicated CEs need enough free cores).  Completions are scheduled
on the node's clock; finishing a job re-dispatches the queues.

The node is written against the :class:`~repro.sim.clock.Clock` seam — a
``now`` property and ``schedule_callback(delay, fn)``.  The simulators
hand nodes their DES :class:`~repro.sim.core.Environment` (virtual time),
the live service an :class:`~repro.service.aclock.AsyncioClock` (dilated
wall time); the job engine is identical under both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.clock import CallbackHandle, Clock
from .ce import CESpec, ComputingElement, CPU_SLOT, specs_by_slot
from .contention import execution_time
from .job import Job

__all__ = ["NodeSpec", "GridNode"]


@dataclass(frozen=True)
class NodeSpec:
    """Immutable hardware description of a grid node."""

    node_id: int
    ces: Tuple[CESpec, ...]

    def __post_init__(self) -> None:
        slots = specs_by_slot(list(self.ces))  # validates duplicates
        if CPU_SLOT not in slots:
            raise ValueError(f"node {self.node_id} lacks a {CPU_SLOT!r} CE")

    @property
    def slots(self) -> Tuple[str, ...]:
        return tuple(spec.slot for spec in self.ces)

    def ce_spec(self, slot: str) -> Optional[CESpec]:
        for spec in self.ces:
            if spec.slot == slot:
                return spec
        return None

    @property
    def cpu(self) -> CESpec:
        spec = self.ce_spec(CPU_SLOT)
        assert spec is not None  # guaranteed by __post_init__
        return spec


class GridNode:
    """Runtime node: CE state, FIFO queues, and job start/finish engine."""

    def __init__(self, spec: NodeSpec, clock: Clock):
        self.spec = spec
        self.clock = clock
        #: job-lifecycle edges, assigned by the host after construction
        self.on_job_finished: Optional[Callable[["GridNode", Job], None]] = None
        self.on_job_started: Optional[Callable[["GridNode", Job], None]] = None
        self.ces: Dict[str, ComputingElement] = {
            ce.slot: ComputingElement(ce) for ce in spec.ces
        }
        self.completed_jobs: int = 0
        self.alive: bool = True
        #: advanced by every call that changes a CE's ``running``/``queue``
        #: (submit, dequeue, a job finishing, fail — the dispatches they
        #: trigger included).  This class is the only code that mutates
        #: them, so a reader that cached something derived from the node's
        #: load (the aggregation engine's own-load records) revalidates
        #: with one comparison.
        self.load_version: int = 0
        #: jobs waiting in the CE queues, kept by the same four calls that
        #: change a queue (submit, dequeue, a start, fail)
        self._queued: int = 0
        #: the completion timer of every job started here and not finished
        self._completions: Dict[int, CallbackHandle] = {}

    @property
    def node_id(self) -> int:
        return self.spec.node_id

    # -- predicates used by matchmaking ------------------------------------------
    def capable(self, job: Job) -> bool:
        """Does this node's hardware satisfy every requirement of ``job``?

        This is a static check (capability, not current load): for each
        required slot the node must own a CE meeting the clock/memory/disk
        thresholds with at least the required number of cores.
        """
        for slot, req in job.requirements.items():
            ce = self.ces.get(slot)
            if ce is None:
                return False
            spec = ce.spec
            if (
                spec.clock < req.clock
                or spec.memory < req.memory
                or spec.disk < req.disk
                or spec.cores < req.cores
            ):
                return False
        return True

    def is_free(self) -> bool:
        """Free node: no running or waiting jobs on any CE (paper, Sec. II-B)."""
        for ce in self.ces.values():
            if not ce.idle:
                return False
        return True

    def is_acceptable(self, job: Job) -> bool:
        """Acceptable node: ``job`` could start executing immediately.

        Requires capability, an empty queue on the dominant CE (FIFO order
        would otherwise delay the job), and immediate core availability on
        every required CE (paper, Section III-B, "Acceptable node").
        """
        return self.capable(job) and self.can_start_now(job)

    def can_start_now(self, job: Job) -> bool:
        """The load half of :meth:`is_acceptable`, for a *capable* node.

        Matchmakers filter candidates by capability once per hop and ask
        only this of the survivors.
        """
        return not self.ces[job.dominant_slot].queue and self._startable(job)

    # -- score inputs --------------------------------------------------------------
    def ce(self, slot: str) -> Optional[ComputingElement]:
        return self.ces.get(slot)

    def dominant_clock(self, job: Job) -> float:
        """Clock speed of this node's CE for the job's dominant slot (0 if absent)."""
        ce = self.ces.get(job.dominant_slot)
        return ce.spec.clock if ce is not None else 0.0

    def node_utilization(self) -> float:
        """Whole-node core utilization over all CEs, pooled.

        This is the heterogeneity-*oblivious* load signal the can-hom
        baseline steers by: it cannot distinguish a busy GPU from a busy CPU.
        """
        total = sum(ce.spec.cores for ce in self.ces.values())
        demand = sum(ce.required_cores() for ce in self.ces.values())
        return demand / total if total else 0.0

    def queued_jobs(self) -> int:
        return self._queued

    def running_jobs(self) -> int:
        # A job running on several CEs is counted once (by dominant slot).
        seen = set()
        for ce in self.ces.values():
            for job in ce.running:
                seen.add(job.job_id)
        return len(seen)

    # -- job lifecycle --------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Place ``job`` in its dominant CE's FIFO queue and dispatch."""
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} is not alive")
        if not self.capable(job):
            raise RuntimeError(
                f"node {self.node_id} cannot run job {job.job_id}; "
                "matchmaking must route only to capable nodes"
            )
        job.enqueue_time = self.clock.now
        job.run_node_id = self.node_id
        self.ces[job.dominant_slot].queue.append(job)
        self._queued += 1
        self.load_version += 1
        self._dispatch()

    def dequeue(self, job: Job) -> bool:
        """Withdraw a still-queued ``job``; ``False`` when it is not queued.

        Removing a blocked queue head unblocks the jobs behind it, so the
        queues are re-dispatched at once.
        """
        queue = self.ces[job.dominant_slot].queue
        if job not in queue:
            return False
        queue.remove(job)
        self._queued -= 1
        self.load_version += 1
        self._dispatch()
        return True

    def _startable(self, job: Job) -> bool:
        ces = self.ces
        for slot, req in job.requirements.items():
            if not ces[slot].can_host(req.cores):
                return False
        return True

    def _dispatch(self) -> None:
        """Start every queue head that can claim its cores (FIFO per CE)."""
        for ce in self.ces.values():
            while ce.queue and self._startable(ce.queue[0]):
                self._queued -= 1
                self._start(ce.queue.pop(0))

    def _start(self, job: Job) -> None:
        dominant = self.ces[job.dominant_slot]
        # Contention factor is sampled before attaching, i.e. against the
        # jobs already on the dominant CE, and stays fixed for the job's
        # lifetime (a documented simplification; see DESIGN.md).
        duration = execution_time(job.base_duration, dominant)
        for slot, req in job.requirements.items():
            self.ces[slot].attach(job, req.cores)
        job.start_time = self.clock.now
        if self.on_job_started is not None:
            self.on_job_started(self, job)
        self._completions[job.job_id] = self.clock.schedule_callback(
            duration, lambda j=job: self._finish(j)
        )

    def _finish(self, job: Job) -> None:
        del self._completions[job.job_id]
        if not self.alive:
            return  # node failed while the job ran; the job is lost
        for slot, req in job.requirements.items():
            self.ces[slot].detach(job, req.cores)
        self.load_version += 1
        job.finish_time = self.clock.now
        self.completed_jobs += 1
        if self.on_job_finished is not None:
            self.on_job_finished(self, job)
        self._dispatch()

    def cancel_completions(self) -> None:
        """Cancel every running job's completion timer: the host stops,
        and the jobs stay as its ledger last saw them."""
        for handle in self._completions.values():
            handle.cancel()
        self._completions.clear()

    def fail(self) -> List[Job]:
        """Mark the node dead; return jobs (running+queued) that are lost."""
        self.alive = False
        self.load_version += 1
        lost: List[Job] = []
        seen = set()
        for ce in self.ces.values():
            for job in ce.running:
                if job.job_id not in seen:
                    seen.add(job.job_id)
                    lost.append(job)
            lost.extend(ce.queue)
            ce.queue.clear()
        self._queued = 0
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ces = ", ".join(repr(ce) for ce in self.ces.values())
        return f"<GridNode {self.node_id} [{ces}]>"
