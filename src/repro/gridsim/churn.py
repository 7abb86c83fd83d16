"""Churn simulation driving the maintenance protocol (Figures 7 and 8).

Two stages, as in Section V-B: first ``initial_nodes`` join sequentially;
then join and leave events occur with equal probability, with the mean gap
between events either longer than a heartbeat period (no simultaneous
events — no scheme suffers broken links) or shorter (high churn — the
regime where the schemes differ).  Heartbeat rounds tick throughout;
message costs and broken links are recorded by the protocol engine.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..can.heartbeat import ProtocolConfig
from ..can.space import ResourceSpace
from ..obs.registry import MetricsRegistry
from ..overlay import get_substrate
from ..sim.core import Environment
from ..sim.rng import RngRegistry
from ..workload.nodes import NodeDistribution, generate_node_specs
from .config import ChurnConfig
from .faults import FaultInjector
from .results import ChurnResult

__all__ = ["ChurnSimulation"]


class ChurnSimulation:
    """One maintenance-protocol run under configurable churn."""

    def __init__(
        self,
        config: ChurnConfig,
        node_dist: Optional[NodeDistribution] = None,
        tracer=None,
    ):
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.tracer = tracer
        self.env = Environment(tracer=tracer)
        self.space = ResourceSpace(gpu_slots=config.gpu_slots)
        self.substrate = get_substrate(config.substrate)
        self.overlay = self.substrate.make_overlay(self.space)
        self.protocol = self.substrate.make_protocol(
            self.overlay,
            ProtocolConfig(
                scheme=config.scheme,
                period=config.heartbeat_period,
                failure_timeout_periods=config.failure_timeout_periods,
            ),
            # the channel is stated once, in the plan, and exists before
            # the protocol does: the substrate's factory reads it
            network=config.plan.build_network(self.rngs),
            tracer=tracer,
        )
        #: scripted bursts: scheduled once, before any process runs, so
        #: their callbacks are part of the seeded run
        FaultInjector(self, config.plan).install()
        self.metrics = MetricsRegistry()
        proto_scope = self.metrics.scope("protocol")
        proto_scope.register("broken_links", self.protocol.broken_links)
        self._population = proto_scope.timeweighted(
            "population", value=0.0
        )
        self._node_dist = node_dist or NodeDistribution()
        self._next_id = itertools.count()
        self._spec_rng = self.rngs.stream("nodes")
        self._virtual_rng = self.rngs.stream("virtual")
        self._event_rng = self.rngs.stream("events")
        self._events_since_check = 0

    # -- node material ---------------------------------------------------------------
    def _new_coord(self):
        spec = generate_node_specs(
            1,
            self.config.gpu_slots,
            self._spec_rng,
            self._node_dist,
            first_id=next(self._next_id),
        )[0]
        return spec.node_id, self.space.node_coordinate(
            spec, float(self._virtual_rng.random())
        )

    # -- stages -----------------------------------------------------------------------
    def bootstrap_population(self) -> None:
        """Stage 1: sequential joins of the initial population."""
        node_id, coord = self._new_coord()
        self.protocol.bootstrap(node_id, coord)
        for _ in range(self.config.initial_nodes - 1):
            node_id, coord = self._new_coord()
            self.protocol.join(node_id, coord, now=0.0)
        self._population.update(0.0, float(len(self.overlay.alive_ids())))

    def _round_process(self):
        cfg = self.config
        settle = cfg.warmup_rounds
        while self.env.now < cfg.duration:
            yield self.env.timeout(cfg.heartbeat_period)
            self.protocol.run_round(self.env.now)
            if settle > 0:
                settle -= 1
                if settle == 0:
                    # open the measurement window after the CAN has settled
                    self.protocol.stats.reset_window(
                        self.env.now, len(self.overlay.alive_ids())
                    )

    def _event_process(self):
        cfg = self.config
        warmup_time = cfg.heartbeat_period * (cfg.warmup_rounds + 1)
        yield self.env.timeout(warmup_time)
        while self.env.now < cfg.duration:
            gap = float(self._event_rng.exponential(cfg.event_gap_mean))
            # diurnal curve: scale the gap, never the draw — the RNG
            # stream is identical with and without the modulation
            gap *= cfg.plan.gap_multiplier(self.env.now)
            yield self.env.timeout(max(gap, 1e-6))
            if self.env.now >= cfg.duration:
                return
            self._one_event()

    def population_floor(self) -> int:
        """Neither background churn nor a burst shrinks the grid below this."""
        return max(4, self.config.initial_nodes // 4)

    def _population_changed(self) -> None:
        self._population.update(
            self.env.now, float(len(self.overlay.alive_ids()))
        )

    def join_node(self) -> None:
        """One fresh node joins now."""
        node_id, coord = self._new_coord()
        self.protocol.join(node_id, coord, now=self.env.now)
        self._population_changed()

    def crash_node(self, node_id: int) -> None:
        """One node crashes silently now."""
        self.protocol.fail(node_id, now=self.env.now)
        self._population_changed()

    def _one_event(self) -> None:
        alive = self.overlay.alive_ids()
        join = self._event_rng.random() < 0.5
        if not join and len(alive) <= self.population_floor():
            join = True  # keep the population from collapsing
        if join:
            self.join_node()
        else:
            victim = int(alive[int(self._event_rng.integers(len(alive)))])
            if self.config.leave_mode == "fail":
                self.crash_node(victim)
            else:
                self.protocol.graceful_leave(victim, now=self.env.now)
                self._population_changed()
        every = self.config.invariant_check_every
        if every:
            self._events_since_check += 1
            if self._events_since_check >= every:
                self._events_since_check = 0
                self.check_invariants()

    def routing_success_rate(self, samples: int = 200) -> float:
        """Fraction of believed-state routes that deliver.

        Call after :meth:`run`: it probes the *current* believed state with
        random (source, target) pairs, turning the broken-link count into
        its operational consequence — undeliverable lookups.  The routing
        rule is the substrate's own (greedy zone descent for CAN, finger
        hops for Chord).
        """
        route_on_beliefs = self.substrate.route_on_beliefs

        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = self.rngs.stream("routing-probe")
        alive = sorted(self.overlay.alive_ids())
        if not alive:
            raise RuntimeError("no alive nodes to probe")
        delivered = 0
        for _ in range(samples):
            start = int(alive[int(rng.integers(len(alive)))])
            # Sample the full unit cube, then clamp into the half-open
            # valid interior — scaling the sample range (as this once did)
            # leaves the outermost sliver of every dimension unprobed.
            point = self.space.clamp_point(rng.random(self.space.dims))
            if route_on_beliefs(self.protocol, start, point).delivered:
                delivered += 1
        return delivered / samples

    def check_invariants(self) -> None:
        """Audit overlay/protocol/ledger consistency (raises on violation)."""
        from .invariants import check_churn_invariants

        check_churn_invariants(self)

    # -- run ----------------------------------------------------------------------------
    def run(self) -> ChurnResult:
        self.bootstrap_population()
        self.env.process(self._round_process(), name="heartbeat-rounds")
        self.env.process(self._event_process(), name="churn-events")
        self.env.run(until=self.config.duration + self.config.heartbeat_period)
        series = self.protocol.broken_links
        rates = self.protocol.stats.rates(self.env.now)
        return ChurnResult(
            scheme=self.config.scheme.value,
            nodes=self.config.initial_nodes,
            dims=self.config.dims,
            broken_links_times=series.times,
            broken_links_values=series.values,
            rates=rates,
            events=dict(self.protocol.events),
            final_population=len(self.overlay.alive_ids()),
            substrate=self.config.substrate,
        )
