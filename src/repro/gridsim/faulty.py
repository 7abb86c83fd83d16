"""Matchmaking under churn: the grid keeps scheduling while nodes come and go.

The paper evaluates load balancing (Figures 5/6) on a stable population and
failure resilience (Figures 7/8) with no workload.  This module composes the
two — the regime a real desktop grid lives in:

* nodes crash at a configurable rate; their running and queued jobs are
  lost, *detected*, and resubmitted through the matchmaker with
  exponential backoff, jitter and a per-job attempt budget (the constants
  of :mod:`repro.gridsim.recovery`);
* fresh nodes join, extending the CAN and the eligible population;
* the aggregation engine tracks the changing topology.

A crash is noticed one way: the substrate's maintenance protocol (a
:class:`~repro.can.heartbeat.HeartbeatProtocol` on CAN) runs alongside the
matchmaker, and the crash is detected when believers' heartbeat timeouts
fire (per-scheme — vanilla/compact/adaptive differ in how beliefs are
maintained).  Vacated zones recover through the take-over path, and
resubmission is triggered by the protocol's detection events.

Failures and joins are two Poisson processes, each a
:func:`~repro.gridsim.churn.churn_process` on its own stream, stopping when
the work drains.  A join the substrate refuses is dropped, not queued for
retry (``join(..., retry=False)``): grid-level joins are plentiful.

Scripted adversity (crash bursts, correlated zone failures, heartbeat
message loss) is layered on via :class:`~repro.gridsim.faults.FaultPlan`,
and :func:`~repro.gridsim.invariants.check_faulty_invariants` can audit
the run every few heartbeat rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..can.heartbeat import HeartbeatScheme
from ..model.job import Job
from ..model.node import GridNode
from ..overlay import get_substrate
from .churn import churn_process, draw_joiner
from .config import MatchmakingConfig
from .faults import FaultInjector, FaultPlan
from .invariants import check_faulty_invariants, check_matchmaking_accounting
from .results import MatchmakingResult
from .simulation import GridSimulation, wire_grid

__all__ = ["FaultyGridConfig", "FaultyGridSimulation", "FaultyGridResult"]


@dataclass(frozen=True)
class FaultyGridConfig:
    """Churn knobs layered on a matchmaking configuration."""

    matchmaking: MatchmakingConfig
    #: mean time between node failures, across the whole grid (seconds)
    mean_time_between_failures: float = 300.0
    #: mean time between node joins (seconds); equal rates keep the
    #: population in dynamic equilibrium, as in the paper's Section V-B
    mean_time_between_joins: float = 300.0
    #: which heartbeat scheme maintains beliefs
    heartbeat_scheme: HeartbeatScheme = HeartbeatScheme.VANILLA
    #: scripted crash/join bursts and the heartbeat channel (``faults.network``)
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: audit the simulation every N heartbeat rounds and once after the
    #: run (0 disables)
    invariant_check_every: int = 0

    def __post_init__(self) -> None:
        if min(self.mean_time_between_failures, self.mean_time_between_joins) <= 0:
            raise ValueError("all churn timings must be positive")
        if self.invariant_check_every < 0:
            raise ValueError("invariant_check_every must be non-negative")
        get_substrate(self.matchmaking.substrate)  # an unknown name fails here


@dataclass
class FaultyGridResult:
    """A matchmaking result plus the churn and recovery ledgers."""

    base: MatchmakingResult
    failures: int
    joins: int
    jobs_lost: int
    jobs_resubmitted: int
    jobs_abandoned: int  # exceeded the retry budget
    final_population: int
    #: crash -> first-detection latency, one sample per detected crash
    #: (emergent from heartbeat timeouts)
    detection_latencies: np.ndarray = field(
        default_factory=lambda: np.empty(0)
    )
    #: crash -> successful-resubmission latency, one sample per recovered job
    resubmission_latencies: np.ndarray = field(
        default_factory=lambda: np.empty(0)
    )

    def summary(self) -> Dict[str, float]:
        s = self.base.summary()
        s.update(
            failures=float(self.failures),
            joins=float(self.joins),
            jobs_lost=float(self.jobs_lost),
            jobs_resubmitted=float(self.jobs_resubmitted),
            jobs_abandoned=float(self.jobs_abandoned),
        )
        d, r = self.detection_latencies, self.resubmission_latencies
        if d.size:
            s["detection_latency_mean"] = float(d.mean())
            s["detection_latency_p95"] = float(np.percentile(d, 95))
        if r.size:
            s["resubmission_latency_mean"] = float(r.mean())
            s["resubmission_latency_p95"] = float(np.percentile(r, 95))
        return s


class FaultyGridSimulation(GridSimulation):
    """GridSimulation plus failures, joins, detection, and resubmission."""

    def __init__(self, config: FaultyGridConfig, tracer=None):
        self._prepare(config.matchmaking, None, None, tracer)
        self.fault_config = config
        self._churn_counter = self.metrics.scope("grid").counter("churn")
        # the protocol and the crash -> detect -> place-with-retry loop are
        # the live service's; this class adds the hand-over and the counters
        wire_grid(
            self,
            self.specs,
            self.env,
            config.matchmaking,
            config.heartbeat_scheme,
            network=config.faults.build_network(self.rngs),
            placed=self._job_recovered,
            abandoned=self._job_abandoned,
        )
        self._next_node_id = itertools.count(
            max(self.grid_nodes) + 1 if self.grid_nodes else 0
        )
        self._rounds = 0
        self._injector = FaultInjector(self, config.faults)

    # ------------------------------------------------------------------ churn --
    def _heartbeat(self) -> None:
        """Tick heartbeat rounds next to the aggregation."""
        self.protocol.run_round(self.env.now)
        self._rounds += 1
        every = self.fault_config.invariant_check_every
        if every and self._rounds % every == 0:
            check_faulty_invariants(self)
        self._next_period(self._heartbeat)

    def population_floor(self) -> int:
        """Neither background churn nor a burst shrinks the grid below half
        its start size."""
        return self.config.preset.nodes // 2

    def _fail_random_node(self, rng: np.random.Generator) -> None:
        alive = list(self.overlay.alive_ids())
        if len(alive) <= self.population_floor():
            return
        self.crash_node(int(alive[int(rng.integers(len(alive)))]))

    def crash_node(self, victim_id: int) -> None:
        """Crash one node: jobs are lost, detection is set in motion."""
        lost = self.recovery.crash(victim_id)
        self._outstanding -= len(lost)
        self._churn_counter.add("failures")

    def join_node(self) -> None:
        """One scripted arrival (a flash crowd's), on its own stream."""
        self._join_from(self.rngs.stream("fault-joins"))

    def _join_from(self, rng: np.random.Generator) -> None:
        spec, coord = draw_joiner(
            self.space, self._node_dist, next(self._next_node_id), rng, rng
        )
        if not self.protocol.join(spec.node_id, coord, now=self.env.now, retry=False):
            return  # target region in limbo or unsplittable: joins are plentiful
        node = GridNode(spec, self.env)
        self.lifecycle.attach(node)
        self.grid_nodes[spec.node_id] = node
        self._churn_counter.add("joins")
        if self.tracer is not None:
            self.tracer.emit(self.env.now, "grid.join", node=spec.node_id)

    # ------------------------------------------------------------------ jobs --
    def _job_recovered(self, job: Job, node: GridNode) -> None:
        self._churn_counter.add("jobs_resubmitted")
        self._hand_over(node, job)

    def _job_abandoned(self, job: Job, attempts: int) -> None:
        self.abandoned_ids.add(job.job_id)
        self._churn_counter.add("jobs_abandoned")

    def _work_remaining(self) -> bool:
        if super()._work_remaining():
            return True
        # Recoveries still in flight — including jobs whose crash has not
        # been *detected* yet (they have no attempts on record; missing
        # them let the aggregation/churn chains stop early and froze
        # the grid under the late resubmissions).
        return self.tracker.has_pending()

    # ------------------------------------------------------------------ run --
    def run(self) -> FaultyGridResult:  # type: ignore[override]
        cfg = self.fault_config
        self._injector.install()
        self._next_period(self._heartbeat)
        for stream, mean_gap, act in (
            ("failures", cfg.mean_time_between_failures, self._fail_random_node),
            ("joins", cfg.mean_time_between_joins, self._join_from),
        ):
            churn_process(
                self.env, self.rngs.stream(stream), mean_gap, act,
                cfg.faults.gap_multiplier, self._work_remaining,
            )
        base = super().run()
        if cfg.invariant_check_every:
            check_faulty_invariants(self, final=True)
            check_matchmaking_accounting(base)
        return FaultyGridResult(
            base=base,
            failures=self.protocol.events["failures"],
            joins=self.protocol.events["joins"],
            jobs_lost=self.tracker.losses,
            jobs_resubmitted=self.tracker.resubmissions,
            jobs_abandoned=self.tracker.abandonments,
            final_population=len(self.overlay.alive_ids()),
            detection_latencies=np.asarray(self.tracker.detection_latencies),
            resubmission_latencies=np.asarray(
                self.tracker.resubmission_latencies
            ),
        )
