"""Matchmaking under churn: the grid keeps scheduling while nodes come and go.

The paper evaluates load balancing (Figures 5/6) on a stable population and
failure resilience (Figures 7/8) with no workload.  This module composes the
two — the regime a real desktop grid lives in:

* nodes crash at a configurable rate; their running and queued jobs are
  lost, *detected*, and resubmitted through the matchmaker under a
  :class:`~repro.gridsim.recovery.RetryPolicy` (exponential backoff with
  jitter, a per-job attempt budget, and a degraded expanding-ring search
  while the aggregates are stale);
* fresh nodes join, extending the CAN and the eligible population;
* the aggregation engine tracks the changing topology.

Failure detection comes in two modes.  The default, ``"protocol"``, runs a
real :class:`~repro.can.heartbeat.HeartbeatProtocol` alongside the
matchmaker: a crash is noticed when believers' heartbeat timeouts fire
(per-scheme — vanilla/compact/adaptive differ in how beliefs are
maintained), vacated zones recover through the split-tree take-over path,
and resubmission is triggered by the protocol's detection events.  The
legacy ``"fixed"`` mode models detection as a constant delay with
immediate zone hand-off — useful as a controlled baseline, and what this
simulation did before the protocol integration.

Scripted adversity (crash bursts, correlated zone failures, heartbeat
message loss) is layered on via :class:`~repro.gridsim.faults.FaultPlan`,
and :func:`~repro.gridsim.invariants.check_faulty_invariants` can audit
the run every few heartbeat rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..can.heartbeat import HeartbeatScheme, ProtocolConfig
from ..model.job import Job
from ..overlay import MaintenanceProtocol, SubstrateError, get_substrate
from ..model.node import GridNode
from ..workload.jobs import JobDistribution
from ..workload.nodes import NodeDistribution, generate_node_specs
from .config import MatchmakingConfig
from .faults import FaultInjector, FaultPlan
from .invariants import check_faulty_invariants, check_matchmaking_accounting
from .recovery import RecoveryLoop, RetryPolicy
from .results import MatchmakingResult
from .simulation import GridSimulation

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
    #: "protocol": failures are detected by a live HeartbeatProtocol's
    #: timeouts and zones recover via take-over; "fixed": the legacy
    #: constant-delay detection model with immediate zone hand-off
    detection_mode: str = "protocol"
    #: fixed mode only: how long until a failure is noticed
    detection_delay: float = 150.0
    #: protocol mode: which heartbeat scheme maintains beliefs
    heartbeat_scheme: HeartbeatScheme = HeartbeatScheme.VANILLA
    #: protocol mode: silent periods before a neighbor is declared failed
    failure_timeout_periods: float = 2.5
    #: resubmission backoff/budget policy
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: never let churn shrink the grid below this fraction of the start size
    min_population_fraction: float = 0.5
    #: scripted crash/join bursts and the heartbeat channel
    #: (``faults.network``; protocol mode only — fixed mode has no
    #: heartbeats to carry it)
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: audit the simulation every N heartbeat rounds and once after the
    #: run (0 disables; fixed mode checks only at the end)
    invariant_check_every: int = 0

    def __post_init__(self) -> None:
        if min(
            self.mean_time_between_failures,
            self.mean_time_between_joins,
            self.detection_delay,
        ) <= 0:
            raise ValueError("all churn timings must be positive")
        if self.detection_mode not in ("protocol", "fixed"):
            raise ValueError(f"unknown detection_mode {self.detection_mode!r}")
        if not 0 < self.min_population_fraction <= 1:
            raise ValueError("min_population_fraction must be in (0, 1]")
        if self.invariant_check_every < 0:
            raise ValueError("invariant_check_every must be non-negative")
        get_substrate(self.matchmaking.substrate)  # an unknown name fails here
        if self.detection_mode == "fixed" and not self.faults.ideal_channel:
            raise ValueError(
                "faults.network needs heartbeats to act on: "
                'detection_mode="fixed" runs no protocol and would ignore it'
            )
        # failure_timeout_periods is validated by ProtocolConfig; construct
        # one eagerly so a bad value fails at config time, not mid-run
        if self.detection_mode == "protocol":
            ProtocolConfig(
                scheme=self.heartbeat_scheme,
                failure_timeout_periods=self.failure_timeout_periods,
            )

    def with_scheme(self, scheme: HeartbeatScheme) -> "FaultyGridConfig":
        return replace(self, heartbeat_scheme=scheme)


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
    #: (constant in fixed mode; emergent from timeouts in protocol mode)
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

    def __init__(
        self,
        config: FaultyGridConfig,
        node_dist: Optional[NodeDistribution] = None,
        job_dist: Optional[JobDistribution] = None,
        tracer=None,
    ):
        super().__init__(config.matchmaking, node_dist, job_dist, tracer=tracer)
        self.fault_config = config
        self._node_dist = node_dist or NodeDistribution()
        self._next_node_id = itertools.count(
            max(self.grid_nodes) + 1 if self.grid_nodes else 0
        )
        self.failures = 0
        self.joins = 0
        self.jobs_lost = 0
        self.jobs_resubmitted = 0
        self.jobs_abandoned = 0
        self._churn_counter = self.metrics.scope("grid").counter("churn")
        #: the crash -> detect -> place-with-retry path (shared with the live
        #: service); this class adds only its counters and the hand-over
        self.recovery = RecoveryLoop(
            self,
            config.retry,
            self.env,
            placed=self._job_recovered,
            abandoned=self._job_abandoned,
            detection_delay=config.detection_delay,
            metrics=self.metrics,
        )
        self.tracker = self.recovery.tracker
        self.protocol: Optional[MaintenanceProtocol] = None
        if config.detection_mode == "protocol":
            substrate = get_substrate(config.matchmaking.substrate)
            self.protocol = substrate.make_protocol(
                self.overlay,
                ProtocolConfig(
                    scheme=config.heartbeat_scheme,
                    period=config.matchmaking.preset.heartbeat_period,
                    failure_timeout_periods=config.failure_timeout_periods,
                ),
                network=config.faults.build_network(self.rngs),
                tracer=tracer,
                metrics=self.metrics,
            )
            # the grid bootstraps its CAN outside the protocol (no join
            # message accounting wanted); adopt it in converged state
            self.protocol.adopt_overlay(0.0)
            self.protocol.on_failure_detected = self.recovery.detected
        self._injector = FaultInjector(self, config.faults)

    # ------------------------------------------------------------------ churn --
    def _churn_processes(self):
        cfg = self.fault_config
        fail_rng = self.rngs.stream("failures")
        join_rng = self.rngs.stream("joins")

        # Waits are chunked so the process notices promptly when the
        # workload has drained and stops, instead of holding the clock
        # hostage until a far-future churn event.
        check_interval = 600.0

        def wait(gap):
            deadline = self.env.now + max(gap, 1e-6)
            while self.env.now < deadline and self._work_remaining():
                yield self.env.timeout(min(check_interval, deadline - self.env.now))
            return self._work_remaining() and self.env.now >= deadline

        # diurnal curve: scale the gap, never the draw — the RNG streams
        # are identical with and without the modulation
        gap_multiplier = cfg.faults.gap_multiplier

        def failures():
            while self._work_remaining():
                gap = float(fail_rng.exponential(cfg.mean_time_between_failures))
                fire = yield from wait(gap * gap_multiplier(self.env.now))
                if fire:
                    self._fail_random_node(fail_rng)

        def joins():
            while self._work_remaining():
                gap = float(join_rng.exponential(cfg.mean_time_between_joins))
                fire = yield from wait(gap * gap_multiplier(self.env.now))
                if fire:
                    self._join_from(join_rng)

        return failures(), joins()

    def _heartbeat_process(self):
        """Protocol mode: tick heartbeat rounds next to the aggregation."""
        period = self.config.preset.heartbeat_period
        every = self.fault_config.invariant_check_every
        rounds = 0
        while self._work_remaining():
            yield self.env.timeout(period)
            self.protocol.run_round(self.env.now)
            rounds += 1
            if every and rounds % every == 0:
                check_faulty_invariants(self)

    def population_floor(self) -> int:
        """Neither background churn nor a burst shrinks the grid below this."""
        cfg = self.fault_config
        return int(self.config.preset.nodes * cfg.min_population_fraction)

    def _fail_random_node(self, rng: np.random.Generator) -> None:
        alive = list(self.overlay.alive_ids())
        if len(alive) <= self.population_floor():
            return
        self.crash_node(int(alive[int(rng.integers(len(alive)))]))

    def crash_node(self, victim_id: int) -> None:
        """Crash one node: jobs are lost, detection is set in motion."""
        lost = self.recovery.crash(victim_id)
        self._outstanding -= len(lost)
        self.failures += 1
        self.jobs_lost += len(lost)
        self._churn_counter.add("failures")

    def join_node(self) -> None:
        """One scripted arrival (a flash crowd's), on its own stream."""
        self._join_from(self.rngs.stream("fault-joins"))

    def _join_from(self, rng: np.random.Generator) -> None:
        spec = generate_node_specs(
            1,
            self.config.preset.gpu_slots,
            rng,
            self._node_dist,
            first_id=next(self._next_node_id),
        )[0]
        coord = self.space.node_coordinate(spec, float(rng.random()))
        if self.protocol is not None:
            # Substrate-agnostic probe: the owner of the newcomer's target
            # region must be alive, otherwise the zone/arc is in limbo
            # awaiting take-over and the join would be deferred.
            try:
                owner = self.overlay.locate_owner(coord)
            except SubstrateError:
                return
            if not self.overlay.is_alive(owner):
                return  # target region in limbo awaiting take-over; skip
            if not self.protocol.join(spec.node_id, coord, now=self.env.now):
                # The only remaining failure is an unsplittable zone; the
                # protocol queued a retry, but grid-level joins are
                # Poisson-plentiful — withdraw instead of tracking a
                # node the grid layer never registered.
                self.protocol._pending_joins.pop()
                return
        else:
            try:
                self.overlay.add_node(spec.node_id, coord)
            except SubstrateError:
                return  # coordinate collision or zone in limbo; skip
        node = GridNode(spec, self.env, contention=self.config.contention)
        self._wire_node(node)
        self.grid_nodes[spec.node_id] = node
        self.joins += 1
        self._churn_counter.add("joins")
        if self.tracer is not None:
            self.tracer.emit(self.env.now, "grid.join", node=spec.node_id)

    # ------------------------------------------------------------------ jobs --
    def _job_recovered(self, job: Job, node: GridNode) -> None:
        self.jobs_resubmitted += 1
        self._churn_counter.add("jobs_resubmitted")
        self._hand_over(node, job)

    def _job_abandoned(self, job: Job, attempts: int) -> None:
        self.jobs_abandoned += 1
        self.abandoned_ids.add(job.job_id)
        self._churn_counter.add("jobs_abandoned")

    def _work_remaining(self) -> bool:
        if super()._work_remaining():
            return True
        # Recoveries still in flight — including jobs whose crash has not
        # been *detected* yet (they have no attempts on record; missing
        # them let the aggregation/churn processes stop early and froze
        # the grid under the late resubmissions).
        return self.tracker.has_pending()

    # ------------------------------------------------------------------ run --
    def run(self) -> FaultyGridResult:  # type: ignore[override]
        cfg = self.fault_config
        self._injector.install()
        if self.protocol is not None:
            self.env.process(self._heartbeat_process(), name="heartbeats")
        fail_proc, join_proc = self._churn_processes()
        self.env.process(fail_proc, name="failures")
        self.env.process(join_proc, name="joins")
        base = super().run()
        if cfg.invariant_check_every:
            check_faulty_invariants(self, final=True)
            check_matchmaking_accounting(base)
        return FaultyGridResult(
            base=base,
            failures=self.failures,
            joins=self.joins,
            jobs_lost=self.jobs_lost,
            jobs_resubmitted=self.jobs_resubmitted,
            jobs_abandoned=self.jobs_abandoned,
            final_population=len(self.overlay.alive_ids()),
            detection_latencies=np.asarray(self.tracker.detection_latencies),
            resubmission_latencies=np.asarray(
                self.tracker.resubmission_latencies
            ),
        )
