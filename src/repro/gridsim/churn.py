"""Churn simulation driving the maintenance protocol (Figures 7 and 8).

Two stages, as in Section V-B: first ``initial_nodes`` join sequentially;
then join and leave events occur with equal probability, with the mean gap
between events either longer than a heartbeat period (no simultaneous
events — no scheme suffers broken links) or shorter (high churn — the
regime where the schemes differ).  Heartbeat rounds tick throughout;
message costs and broken links are recorded by the protocol engine.

:func:`churn_process` is the one background churn driver: this coin and
the faulty grid's failure and join processes each run one.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

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

__all__ = ["ChurnSimulation", "churn_process", "draw_joiner"]

#: the stats window opens after this many settle rounds post-bootstrap
WARMUP_ROUNDS = 3
#: longest single wait of a churn chain (seconds)
CHURN_CHECK_INTERVAL = 600.0


def churn_process(clock, rng, mean_gap, act, gap_multiplier, live) -> None:
    """While ``live()``: draw an exponential gap of mean ``mean_gap`` on
    ``rng``, scale it by ``gap_multiplier(now)``, wait it out on ``clock``,
    then ``act(rng)``."""

    def draw() -> None:
        if live():
            gap = float(rng.exponential(mean_gap))
            # diurnal curve: scale the gap, never the draw — the RNG
            # stream is identical with and without the modulation
            gap *= gap_multiplier(clock.now)
            wait(clock.now + max(gap, 1e-6))

    def wait(deadline: float) -> None:
        # Waits are chunked so the chain notices promptly when its host
        # stops, instead of holding the clock hostage until a far-future
        # churn event.
        now = clock.now
        if now < deadline and live():
            clock.schedule_callback(
                min(CHURN_CHECK_INTERVAL, deadline - now), lambda: wait(deadline)
            )
            return
        if live() and now >= deadline:
            act(rng)
        draw()

    draw()


def draw_joiner(space, node_dist, node_id, spec_rng, virtual_rng):
    """A newcomer's ``(spec, coordinate)``: the spec drawn on ``spec_rng``,
    the virtual coordinate on ``virtual_rng``."""
    spec = generate_node_specs(
        1, space.gpu_slots, spec_rng, node_dist, first_id=node_id
    )[0]
    return spec, space.node_coordinate(spec, float(virtual_rng.random()))


class ChurnSimulation:
    """One maintenance-protocol run under configurable churn."""

    def __init__(self, config: ChurnConfig, tracer=None):
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.tracer = tracer
        self.env = Environment()
        self.space = ResourceSpace(gpu_slots=config.gpu_slots)
        self.substrate = get_substrate(config.substrate)
        self.overlay = self.substrate.make_overlay(self.space)
        self.protocol = self.substrate.make_protocol(
            self.overlay,
            ProtocolConfig(scheme=config.scheme, period=config.heartbeat_period),
            # the channel is stated once, in the plan, and exists before
            # the protocol does: the substrate's factory reads it
            network=config.plan.build_network(self.rngs),
            tracer=tracer,
        )
        #: scripted bursts: scheduled once, before any round or event, so
        #: their callbacks are part of the seeded run
        FaultInjector(self, config.plan).install()
        #: crash -> first-detection latency per detected crash
        self._detection_latencies: List[float] = []
        #: crash time per crashed node not yet detected
        self._crash_times: Dict[int, float] = {}
        self.protocol.on_failure_detected = self._crash_detected
        self.metrics = MetricsRegistry()
        proto_scope = self.metrics.scope("protocol")
        proto_scope.register("broken_links", self.protocol.broken_links)
        self._population = proto_scope.timeweighted("population")
        self._node_dist = NodeDistribution()
        self._next_id = itertools.count()
        self._spec_rng = self.rngs.stream("nodes")
        self._virtual_rng = self.rngs.stream("virtual")
        self._events_since_check = 0

    # -- node material ---------------------------------------------------------------
    def _new_coord(self):
        spec, coord = draw_joiner(
            self.space, self._node_dist, next(self._next_id),
            self._spec_rng, self._virtual_rng,
        )
        return spec.node_id, coord

    # -- stages -----------------------------------------------------------------------
    def bootstrap_population(self) -> None:
        """Stage 1: sequential joins of the initial population."""
        node_id, coord = self._new_coord()
        self.protocol.bootstrap(node_id, coord)
        for _ in range(self.config.initial_nodes - 1):
            node_id, coord = self._new_coord()
            self.protocol.join(node_id, coord, now=0.0)
        self._population.update(0.0, float(len(self.overlay.alive_ids())))

    def start(self) -> None:
        """Stage 2: schedule the heartbeat rounds and the churn events."""
        cfg = self.config
        self._settle = WARMUP_ROUNDS
        self._next_round()
        self.env.schedule_callback(
            cfg.heartbeat_period * (WARMUP_ROUNDS + 1),
            lambda: churn_process(
                self.env, self.rngs.stream("events"), cfg.event_gap_mean,
                self._one_event, cfg.plan.gap_multiplier,
                lambda: self.env.now < cfg.duration,
            ),
        )

    def _next_round(self) -> None:
        if self.env.now < self.config.duration:
            self.env.schedule_callback(self.config.heartbeat_period, self._round)

    def _round(self) -> None:
        self.protocol.run_round(self.env.now)
        if self._settle > 0:
            self._settle -= 1
            if self._settle == 0:
                # open the measurement window after the CAN has settled
                self.protocol.stats.reset_window(
                    self.env.now, len(self.overlay.alive_ids())
                )
        self._next_round()

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
        self._crash_times[node_id] = self.env.now
        self.protocol.fail(node_id, now=self.env.now)
        self._population_changed()

    def _crash_detected(self, node_id: int, now: float) -> None:
        """The protocol noticed a crash (once per crash): record its latency."""
        self._detection_latencies.append(now - self._crash_times.pop(node_id))

    def _one_event(self, rng: np.random.Generator) -> None:
        alive = self.overlay.alive_ids()
        join = rng.random() < 0.5
        if not join and len(alive) <= self.population_floor():
            join = True  # keep the population from collapsing
        if join:
            self.join_node()
        else:
            victim = int(alive[int(rng.integers(len(alive)))])
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

    def routing_success_rate(self, samples: int) -> float:
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
        self.start()
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
            detection_latencies=np.asarray(self._detection_latencies),
        )
