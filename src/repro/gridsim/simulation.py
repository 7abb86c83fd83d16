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

from typing import Dict, List, Optional

import numpy as np

from ..can.aggregation import AggregationEngine
from ..can.space import ResourceSpace
from ..overlay import OverlaySubstrate, create_overlay
from ..model.job import Job
from ..model.node import GridNode, NodeSpec
from ..sched.base import Matchmaker
from ..sched.can_het import CanHetMatchmaker
from ..obs.registry import MetricsRegistry
from ..sched.can_hom import CanHomMatchmaker
from ..sched.central import CentralMatchmaker
from ..sim.core import Environment
from ..sim.rng import RngRegistry
from ..workload.jobs import JobDistribution, generate_jobs
from ..workload.nodes import NodeDistribution, generate_node_specs
from .config import MatchmakingConfig
from .results import MatchmakingResult

__all__ = ["GridSimulation", "build_grid", "build_matchmaker"]

#: aggregation rounds run before the first job arrives
AGGREGATION_WARMUP_ROUNDS = 5


def build_matchmaker(
    config: MatchmakingConfig,
    overlay: OverlaySubstrate,
    grid_nodes: Dict[int, GridNode],
    aggregation: AggregationEngine,
    rng: np.random.Generator,
) -> Matchmaker:
    """Construct the matchmaker ``config.scheme`` names.

    Shared by the batch simulator and the live :mod:`repro.service`
    gateway — both drive the same scheduler implementations; only the
    clock differs.
    """
    if config.scheme == "central":
        return CentralMatchmaker(grid_nodes)
    if config.scheme == "can-het":
        return CanHetMatchmaker(
            overlay,
            grid_nodes,
            aggregation,
            rng,
            stopping_factor=config.stopping_factor,
            use_acceptable_nodes=config.use_acceptable_nodes,
            use_dominant_ce=config.use_dominant_ce,
        )
    return CanHomMatchmaker(
        overlay,
        grid_nodes,
        aggregation,
        rng,
        stopping_factor=config.stopping_factor,
    )


def build_grid(
    specs: List[NodeSpec],
    env: Environment,
    space: ResourceSpace,
    rng: np.random.Generator,
    config: MatchmakingConfig,
    use_virtual_randomness: bool = True,
) -> tuple:
    """Construct GridNodes and the configured overlay from node specs.

    Returns ``(overlay, grid_nodes)``.  Nodes join sequentially, each with a
    random virtual coordinate (or a degenerate near-constant one when the
    virtual-dimension ablation is off).  ``config.substrate`` picks the
    overlay implementation; the matchmakers only touch the substrate
    protocol surface, so they run unchanged on any of them.
    """
    overlay = create_overlay(config.substrate, space)
    grid_nodes: Dict[int, GridNode] = {}
    for spec in specs:
        if use_virtual_randomness:
            virtual = float(rng.random())
        else:
            # Ablation: the virtual coordinate still must differ between
            # nodes (the CAN cannot split otherwise) but is squeezed into a
            # tiny band so it no longer spreads load.
            virtual = float(rng.random()) * 1e-6
        coord = space.node_coordinate(spec, virtual)
        overlay.add_node(spec.node_id, coord)
        grid_nodes[spec.node_id] = GridNode(spec, env)
    return overlay, grid_nodes


class GridSimulation:
    """One complete matchmaking experiment run."""

    def __init__(
        self,
        config: MatchmakingConfig,
        node_dist: Optional[NodeDistribution] = None,
        job_dist: Optional[JobDistribution] = None,
        tracer=None,
    ):
        self.config = config
        preset = config.preset
        self.rngs = RngRegistry(preset.seed)
        self.tracer = tracer
        self.env = Environment()
        self.metrics = MetricsRegistry()
        self.space = ResourceSpace(gpu_slots=preset.gpu_slots)

        self.specs = generate_node_specs(
            preset.nodes, preset.gpu_slots, self.rngs.stream("nodes"), node_dist
        )
        self.overlay, self.grid_nodes = build_grid(
            self.specs,
            self.env,
            self.space,
            self.rngs.stream("virtual"),
            config,
            use_virtual_randomness=config.use_virtual_dimension,
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
        self.aggregation = AggregationEngine(self.overlay, self.grid_nodes)
        self.matchmaker = self._build_matchmaker()
        self.matchmaker.attach_tracer(tracer, lambda: self.env.now)
        self.unplaced = 0
        self._submitted = 0
        #: jobs handed to a node and neither finished nor lost with it
        self._outstanding = 0
        #: job ids never placed at arrival / abandoned after churn retries —
        #: kept as ids (not just counts) so the invariant checker can
        #: classify every job's state exactly
        self.unplaced_ids: set = set()
        self.abandoned_ids: set = set()
        grid_metrics = self.metrics.scope("grid")
        self._job_counter = grid_metrics.counter("jobs")
        #: streaming wait/turnaround distributions — one O(1) insert per
        #: finished job, the only record under ``config.stream_waits``
        self._wait_sketch = grid_metrics.quantile_sketch("wait_time")
        self._turnaround_sketch = grid_metrics.quantile_sketch("turnaround")
        for node in self.grid_nodes.values():
            self._wire_node(node)

    # -- wiring ------------------------------------------------------------------
    def _build_matchmaker(self) -> Matchmaker:
        return build_matchmaker(
            self.config,
            self.overlay,
            self.grid_nodes,
            self.aggregation,
            self.rngs.stream("matchmaking"),
        )

    def _wire_node(self, node: GridNode) -> None:
        """Attach the job-lifecycle callbacks: span events + wait sketches."""
        node.on_job_started = self._on_job_started
        node.on_job_finished = self._on_job_finished

    def _on_job_started(self, node: GridNode, job: Job) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now,
                "grid.job_start",
                job=job.job_id,
                node=node.node_id,
            )

    def _on_job_finished(self, node: GridNode, job: Job) -> None:
        # A job finishes at most once (a lost incarnation never reaches
        # _finish), so the sketch holds the same multiset as wait_times.
        self._outstanding -= 1
        if job.wait_time is not None:
            self._wait_sketch.insert(job.wait_time)
        if job.turnaround is not None:
            self._turnaround_sketch.insert(job.turnaround)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now,
                "grid.job_finish",
                job=job.job_id,
                node=node.node_id,
            )

    # -- processes ------------------------------------------------------------------
    def _arrival_process(self):
        for job in self.jobs:
            delay = job.submit_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._submitted += 1
            self._job_counter.add("submitted")
            if self.tracer is not None:
                self.tracer.emit(self.env.now, "grid.job_submit", job=job.job_id)
            node = self.matchmaker.place(job)
            if node is None:
                self.unplaced += 1
                self.unplaced_ids.add(job.job_id)
                self._job_counter.add("unplaced")
                if self.tracer is not None:
                    self.tracer.emit(
                        self.env.now, "grid.job_unplaced", job=job.job_id
                    )
            else:
                self._hand_over(node, job)

    def _hand_over(self, node: GridNode, job: Job) -> None:
        self._outstanding += 1
        node.submit(job)

    def _aggregation_process(self):
        period = self.config.preset.heartbeat_period
        self.aggregation.run_rounds(AGGREGATION_WARMUP_ROUNDS)
        while self._work_remaining():
            yield self.env.timeout(period)
            self.aggregation.step()

    def _work_remaining(self) -> bool:
        return self._submitted < len(self.jobs) or self._outstanding > 0

    # -- run ------------------------------------------------------------------------
    def run(self) -> MatchmakingResult:
        if self.config.scheme != "central":
            self.env.process(self._aggregation_process(), name="aggregation")
        self.env.process(self._arrival_process(), name="arrivals")
        self.env.run()

        # Under stream_waits the per-job arrays stay empty: the sketches
        # (filled as each job finished) are the only record, so result
        # memory is independent of job count.
        collect = not self.config.stream_waits
        waits: List[float] = []
        turnarounds: List[float] = []
        lost = 0
        for index, job in enumerate(self.jobs):
            if job.wait_time is not None:
                if collect:
                    waits.append(job.wait_time)
            elif job.run_node_id is not None:
                lost += 1
            elif (
                index < self._submitted  # arrivals process jobs in order
                and job.job_id not in self.unplaced_ids
                and job.job_id not in self.abandoned_ids
            ):
                # Lost with its timestamps already reset (crashed before
                # starting, resubmission pending or leaked) — without this
                # bucket such jobs silently vanished from the accounting.
                lost += 1
            if collect and job.turnaround is not None:
                turnarounds.append(job.turnaround)
        preset = self.config.preset
        return MatchmakingResult(
            scheme=self.config.scheme,
            preset_name=preset.name,
            mean_interarrival=preset.mean_interarrival,
            constraint_ratio=preset.constraint_ratio,
            wait_times=np.asarray(waits),
            turnarounds=np.asarray(turnarounds),
            unplaced_jobs=self.unplaced,
            lost_jobs=lost,
            matchmaking=self.matchmaker.stats,
            sim_end_time=self.env.now,
            jobs_submitted=self._submitted,
            abandoned_jobs=len(self.abandoned_ids),
            wait_sketch=self._wait_sketch,
            turnaround_sketch=self._turnaround_sketch,
            substrate=self.config.substrate,
        )
