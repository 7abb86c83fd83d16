"""End-to-end load-balancing simulation (Figures 5 and 6).

Wires everything together: a workload preset generates heterogeneous nodes
and a Poisson job stream; the nodes join a CAN; per-dimension load
aggregates propagate every heartbeat period; and one of the three
matchmakers (can-het / can-hom / central) places every arriving job.  Jobs
queue FIFO on their run node's dominant CE and execute for a duration scaled
by the CE's clock and contention.  The primary output is the distribution of
*job wait times* — time from arrival in the run-node queue to execution
start — the paper's Figure 5/6 metric.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from ..can.aggregation import AggregationEngine
from ..can.heartbeat import HeartbeatScheme, ProtocolConfig
from ..can.space import ResourceSpace
from ..model.job import Job
from ..model.node import GridNode, NodeSpec
from ..net import NetworkModel
from ..obs.registry import MetricsRegistry
from ..overlay import create_overlay, get_substrate
from ..sched.can_het import CanHetMatchmaker
from ..sched.can_hom import CanHomMatchmaker
from ..sched.central import CentralMatchmaker
from ..sim.clock import Clock
from ..sim.core import Environment
from ..sim.rng import RngRegistry
from ..workload.jobs import JobDistribution, generate_jobs
from ..workload.nodes import NodeDistribution, generate_node_specs
from .config import MatchmakingConfig
from .recovery import RecoveryLoop, _no_edge
from .results import MatchmakingResult

__all__ = ["GridSimulation", "JobLifecycle", "wire_grid"]

#: aggregation rounds run before the first job arrives
AGGREGATION_WARMUP_ROUNDS = 5


class JobLifecycle:
    """A job's life on the grid, written once for every host.

    :meth:`submitted` emits ``grid.job_submit``; the node callbacks
    :meth:`attach` installs emit ``grid.job_start`` / ``grid.job_finish``
    and feed the ``grid.wait_time`` / ``grid.turnaround`` sketches.  The
    batch simulators and the live service run this one object; what
    differs between hosts are callbacks, as on :class:`RecoveryLoop`:

    * ``finished(node, job)`` — the job ran to completion (the simulator
      drops it from its outstanding work, the service writes the ledger's
      ``COMPLETED`` edge);
    * ``started(node, job)`` — the job began executing (the service's
      ``RUNNING`` edge).
    """

    def __init__(
        self,
        clock: Clock,
        tracer,
        metrics: Optional[MetricsRegistry],
        *,
        finished: Callable[[GridNode, Job], None],
        started: Callable[[GridNode, Job], None] = _no_edge,
    ):
        self.clock, self.tracer = clock, tracer
        self._finished, self._started = finished, started
        #: streaming wait/turnaround distributions for the run manifest —
        #: one O(1) insert per finished job
        scope = (metrics or MetricsRegistry()).scope("grid")
        self._wait_sketch = scope.quantile_sketch("wait_time")
        self._turnaround_sketch = scope.quantile_sketch("turnaround")

    def attach(self, node: GridNode) -> None:
        """Route ``node``'s job starts and finishes through this lifecycle."""
        node.on_job_started = self._on_started
        node.on_job_finished = self._on_finished

    def submitted(self, job: Job) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.clock.now, "grid.job_submit", job=job.job_id)

    def _on_started(self, node: GridNode, job: Job) -> None:
        self._started(node, job)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now, "grid.job_start", job=job.job_id, node=node.node_id
            )

    def _on_finished(self, node: GridNode, job: Job) -> None:
        # A job finishes at most once (a lost incarnation never reaches
        # _finish), so the sketch holds the same multiset as wait_times.
        self._finished(node, job)
        if job.wait_time is not None:
            self._wait_sketch.insert(job.wait_time)
        if job.turnaround is not None:
            self._turnaround_sketch.insert(job.turnaround)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now, "grid.job_finish", job=job.job_id, node=node.node_id
            )


def wire_grid(
    host: Any,
    specs: List[NodeSpec],
    clock: Clock,
    config: MatchmakingConfig,
    heartbeat: Optional[HeartbeatScheme] = None,
    *,
    network: Optional[NetworkModel] = None,
    **edges: Callable,
) -> None:
    """Build ``host``'s grid on ``clock``, the one wiring every host shares.

    The nodes of ``specs`` join ``config.substrate``'s overlay in order,
    each at a random virtual coordinate (squeezed into a tiny band when the
    virtual-dimension ablation is off); the aggregation engine and the
    matchmaker ``config.scheme`` names follow.  Given a ``heartbeat``
    scheme, the substrate's maintenance protocol (on ``network``, ideal
    when None) adopts the overlay as converged, and its detections drive a
    :class:`RecoveryLoop` with the host's ``edges``
    (``placed``, ``abandoned``, ...).

    ``host`` supplies ``rngs``, ``space``, ``tracer``, ``metrics`` and the
    ``lifecycle`` every node is attached to, and gets ``overlay``,
    ``grid_nodes``, ``aggregation`` and ``matchmaker``, plus ``recovery``,
    ``tracker`` and ``protocol`` with a heartbeat.  The faulty grid and the
    live service differ after this call only in who submits and in what a
    ledger edge is.
    """
    space, rngs = host.space, host.rngs
    virtual_rng = rngs.stream("virtual")
    overlay = create_overlay(config.substrate, space)
    grid_nodes = {}
    for spec in specs:
        virtual = float(virtual_rng.random())
        if not config.use_virtual_dimension:
            # Ablation: the virtual coordinate still must differ between
            # nodes (the CAN cannot split otherwise) but is squeezed into a
            # tiny band so it no longer spreads load.
            virtual *= 1e-6
        overlay.add_node(spec.node_id, space.node_coordinate(spec, virtual))
        grid_nodes[spec.node_id] = node = GridNode(spec, clock)
        host.lifecycle.attach(node)
    aggregation = AggregationEngine(overlay, grid_nodes)
    if config.scheme == "central":
        matchmaker = CentralMatchmaker(grid_nodes)
    elif config.scheme == "can-het":
        matchmaker = CanHetMatchmaker(
            overlay,
            grid_nodes,
            aggregation,
            rngs.stream("matchmaking"),
            stopping_factor=config.stopping_factor,
            use_acceptable_nodes=config.use_acceptable_nodes,
            use_dominant_ce=config.use_dominant_ce,
        )
    else:
        matchmaker = CanHomMatchmaker(
            overlay,
            grid_nodes,
            aggregation,
            rngs.stream("matchmaking"),
            stopping_factor=config.stopping_factor,
        )
    matchmaker.attach_tracer(host.tracer, lambda: clock.now)
    host.overlay, host.grid_nodes = overlay, grid_nodes
    host.aggregation, host.matchmaker = aggregation, matchmaker
    if heartbeat is None:
        return
    host.recovery = RecoveryLoop(host, clock, metrics=host.metrics, **edges)
    host.tracker = host.recovery.tracker
    host.protocol = get_substrate(config.substrate).make_protocol(
        overlay,
        ProtocolConfig(scheme=heartbeat, period=config.preset.heartbeat_period),
        network=network,
        tracer=host.tracer,
        metrics=host.metrics,
    )
    # the grid joined its overlay outside the protocol (no join message
    # accounting wanted): the protocol adopts it in converged state
    host.protocol.adopt_overlay(clock.now)
    host.protocol.on_failure_detected = host.recovery.detected


class GridSimulation:
    """One complete matchmaking experiment run."""

    def __init__(
        self,
        config: MatchmakingConfig,
        node_dist: Optional[NodeDistribution] = None,
        job_dist: Optional[JobDistribution] = None,
        tracer=None,
    ):
        self._prepare(config, node_dist, job_dist, tracer)
        wire_grid(self, self.specs, self.env, config)

    def _prepare(
        self,
        config: MatchmakingConfig,
        node_dist: Optional[NodeDistribution],
        job_dist: Optional[JobDistribution],
        tracer,
    ) -> None:
        """Everything but the grid: clock, streams, node specs, the job
        stream and the job accounting."""
        self.config = config
        preset = config.preset
        self.rngs = RngRegistry(preset.seed)
        self.tracer = tracer
        self.env = Environment()
        self.metrics = MetricsRegistry()
        self.space = ResourceSpace(gpu_slots=preset.gpu_slots)
        self._node_dist = node_dist or NodeDistribution()
        self.specs = generate_node_specs(
            preset.nodes, preset.gpu_slots, self.rngs.stream("nodes"), node_dist
        )
        jdist = (job_dist or JobDistribution()).with_constraint_ratio(
            preset.constraint_ratio
        )
        self.jobs = generate_jobs(
            preset.jobs,
            self.specs,
            preset.gpu_slots,
            preset.mean_interarrival,
            self.rngs.stream("jobs"),
            jdist,
        )
        self._submitted = 0
        #: jobs handed to a node and neither finished nor lost with it
        self._outstanding = 0
        #: job ids never placed at arrival / abandoned after churn retries —
        #: kept as ids (not just counts) so the invariant checker can
        #: classify every job's state exactly
        self.unplaced_ids: set = set()
        self.abandoned_ids: set = set()
        self._job_counter = self.metrics.scope("grid").counter("jobs")
        self.lifecycle = JobLifecycle(
            self.env, tracer, self.metrics, finished=self._job_done
        )

    def _job_done(self, node: GridNode, job: Job) -> None:
        self._outstanding -= 1

    # -- scheduled work ---------------------------------------------------------------
    def _next_arrival(self) -> None:
        """Submit every job due now, then wait for the next one."""
        jobs = self.jobs
        while self._submitted < len(jobs):
            delay = jobs[self._submitted].submit_time - self.env.now
            if delay > 0:
                self.env.schedule_callback(delay, self._arrive)
                return
            self._submit()

    def _arrive(self) -> None:
        """The job waited for is due (``now`` is its submit time)."""
        self._submit()
        self._next_arrival()

    def _submit(self) -> None:
        job = self.jobs[self._submitted]
        self._submitted += 1
        self._job_counter.add("submitted")
        self.lifecycle.submitted(job)
        node = self.matchmaker.place(job)
        if node is None:
            self.unplaced_ids.add(job.job_id)
            self._job_counter.add("unplaced")
            if self.tracer is not None:
                self.tracer.emit(self.env.now, "grid.job_unplaced", job=job.job_id)
        else:
            self._hand_over(node, job)

    def _hand_over(self, node: GridNode, job: Job) -> None:
        self._outstanding += 1
        node.submit(job)

    def _aggregate(self) -> None:
        self.aggregation.step()
        self._next_period(self._aggregate)

    def _next_period(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` a heartbeat period from now, if work remains now."""
        if self._work_remaining():
            self.env.schedule_callback(self.config.preset.heartbeat_period, fn)

    def _work_remaining(self) -> bool:
        return self._submitted < len(self.jobs) or self._outstanding > 0

    # -- run ------------------------------------------------------------------------
    def run(self) -> MatchmakingResult:
        if self.config.scheme != "central":
            self.aggregation.run_rounds(AGGREGATION_WARMUP_ROUNDS)
            self._next_period(self._aggregate)
        self._next_arrival()
        self.env.run()
        # a finished run holds no cycle through its nodes or its lifecycle's
        # edge: freed by refcount
        for node in self.grid_nodes.values():
            node.on_job_started = node.on_job_finished = None
        del self.lifecycle

        waits: List[float] = []
        turnarounds: List[float] = []
        lost = 0
        for index, job in enumerate(self.jobs):
            if job.wait_time is not None:
                waits.append(job.wait_time)
            elif job.run_node_id is not None:
                lost += 1
            elif (
                index < self._submitted  # jobs arrive in order
                and job.job_id not in self.unplaced_ids
                and job.job_id not in self.abandoned_ids
            ):
                # Lost with its timestamps already reset (crashed before
                # starting, resubmission pending or leaked) — without this
                # bucket such jobs silently vanished from the accounting.
                lost += 1
            if job.turnaround is not None:
                turnarounds.append(job.turnaround)
        preset = self.config.preset
        return MatchmakingResult(
            scheme=self.config.scheme,
            preset_name=preset.name,
            mean_interarrival=preset.mean_interarrival,
            constraint_ratio=preset.constraint_ratio,
            wait_times=np.asarray(waits),
            turnarounds=np.asarray(turnarounds),
            unplaced_jobs=len(self.unplaced_ids),
            lost_jobs=lost,
            matchmaking=self.matchmaker.stats,
            sim_end_time=self.env.now,
            jobs_submitted=self._submitted,
            abandoned_jobs=len(self.abandoned_ids),
            substrate=self.config.substrate,
        )
