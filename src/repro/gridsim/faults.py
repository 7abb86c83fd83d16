"""Deterministic fault injection and the adversarial scenario pack.

The background churn chains model steady-state attrition (exponential
gaps).  This module adds *scripted* adversity on top:

* :class:`CrashBurst` — ``count`` nodes crash at simulated time ``at``;
  with ``correlated=True`` the victims cluster into ``groups``
  rack-failure groups, each a zone owner plus its ground-truth overlay
  neighbors (a rack/subnet loss), the worst case for the take-over path
  because claimants and their stored tables die together.
* :class:`JoinBurst` — a flash crowd: ``count`` nodes join at once.
* :class:`DiurnalChurn` — a day/night curve modulating the background
  churn's event gaps (amplitude 0 leaves the gaps untouched).
* :class:`FaultPlan` — an immutable schedule of the above plus the
  run's channel, a :class:`repro.net.NetworkSpec` (loss, latency,
  flapping links).
* :class:`FaultInjector` — fires a plan's bursts inside a running
  :class:`~repro.gridsim.faulty.FaultyGridSimulation` or
  :class:`~repro.gridsim.churn.ChurnSimulation`.
* :func:`scenario_pack` — the named adversarial scenarios the
  ``python -m repro.experiments scenarios`` harness runs.

All victim choices draw from the simulation's seeded ``fault-bursts``
stream and the network model draws from ``hb-loss``, so a plan replays
byte-identically under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..net import FlapSpec, NetworkModel, NetworkSpec

__all__ = [
    "CrashBurst",
    "JoinBurst",
    "DiurnalChurn",
    "FaultPlan",
    "FaultInjector",
    "Scenario",
    "scenario_pack",
]


@dataclass(frozen=True)
class CrashBurst:
    """``count`` simultaneous crashes at time ``at``."""

    at: float
    count: int = 1
    #: cluster the victims: seed node(s) plus their overlay neighbors
    correlated: bool = False
    #: number of correlated clusters the count is split across (rack
    #: groups); only meaningful with ``correlated=True``
    groups: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("burst time must be non-negative")
        if self.count < 1:
            raise ValueError("burst must crash at least one node")
        if self.groups < 1:
            raise ValueError("burst needs at least one group")


@dataclass(frozen=True)
class JoinBurst:
    """A flash crowd: ``count`` nodes join at time ``at``."""

    at: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("burst time must be non-negative")
        if self.count < 1:
            raise ValueError("burst must join at least one node")


@dataclass(frozen=True)
class DiurnalChurn:
    """Day/night modulation of the background churn rate.

    The instantaneous churn rate is scaled by
    ``1 + amplitude * sin(2*pi * now / period)`` — event gaps
    are *divided* by that factor, so peaks churn faster and troughs
    slower while the mean stays near the configured gap.  ``amplitude``
    must stay below 1 (the rate never goes negative); 0 is the identity.
    """

    period: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("diurnal period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")

    def gap_multiplier(self, now: float) -> float:
        if self.amplitude == 0.0:
            return 1.0
        rate = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * now / self.period
        )
        return 1.0 / rate


@dataclass(frozen=True)
class FaultPlan:
    """A scripted fault schedule layered onto the background churn."""

    bursts: Tuple[CrashBurst, ...] = ()
    #: flash-crowd arrivals
    joins: Tuple[JoinBurst, ...] = ()
    #: day/night curve over the background churn gaps of either simulation
    diurnal: Optional[DiurnalChurn] = None
    #: the channel every unreliable send traverses (loss, latency,
    #: flaps); None is the ideal channel
    network: Optional[NetworkSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bursts", tuple(self.bursts))
        object.__setattr__(self, "joins", tuple(self.joins))

    @property
    def ideal_channel(self) -> bool:
        return self.network is None or self.network.identity

    def build_network(self, rngs) -> Optional[NetworkModel]:
        """The run's live channel on its seeded ``hb-loss`` stream (None =
        ideal), built before the protocol: the substrate's factory takes it."""
        if self.ideal_channel:
            return None
        return self.network.build(rngs.stream("hb-loss"))

    def gap_multiplier(self, now: float) -> float:
        """Diurnal scaling of a background churn gap (1.0 without a curve)."""
        return 1.0 if self.diurnal is None else self.diurnal.gap_multiplier(now)


def _burst_victims(
    burst: CrashBurst,
    alive: List[int],
    count: int,
    rng: np.random.Generator,
    overlay,
) -> List[int]:
    """Victims for one crash burst (already clipped to ``count``).

    Uncorrelated bursts sample uniformly.  Correlated bursts pick
    ``groups`` seed nodes and take each seed plus its ground-truth
    neighborhood — rack groups going down together.  Draw order is
    stable, so a plan replays identically under a fixed seed.
    """
    if count <= 0:
        return []
    if not burst.correlated:
        picks = rng.choice(len(alive), size=count, replace=False)
        return [int(alive[i]) for i in sorted(picks)]
    victims: List[int] = []
    remaining = list(alive)
    groups = burst.groups
    for g in range(groups):
        if len(victims) >= count or not remaining:
            break
        quota = count // groups + (1 if g < count % groups else 0)
        if quota <= 0:
            continue
        seed = int(remaining[int(rng.integers(len(remaining)))])
        remaining_set = set(remaining)
        cluster = [seed] + sorted(
            nid for nid in overlay.neighbors(seed) if nid in remaining_set
        )
        chosen = cluster[:quota]
        victims.extend(chosen)
        chosen_set = set(chosen)
        remaining = [nid for nid in remaining if nid not in chosen_set]
    return victims[:count]


class FaultInjector:
    """Fires a :class:`FaultPlan`'s scripted bursts inside a simulation.

    The simulation supplies the three things a burst needs and owns:
    ``crash_node(node_id)``, ``join_node()`` (one scripted arrival, on the
    simulation's own seeded stream) and ``population_floor()`` (bursts
    never shrink the grid below it).  The channel is not installed here:
    the simulation builds it from the plan when it builds its protocol.
    """

    def __init__(self, sim, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self.bursts_fired = 0
        self.crashes_injected = 0

    def install(self) -> None:
        """Schedule the plan; call once before the simulation runs."""
        env = self.sim.env
        for burst in self.plan.bursts:
            env.schedule_callback(
                burst.at - env.now, lambda b=burst: self._fire_crash(b)
            )
        for jburst in self.plan.joins:
            env.schedule_callback(
                jburst.at - env.now, lambda b=jburst: self._fire_joins(b)
            )

    def _fire_crash(self, burst: CrashBurst) -> None:
        sim = self.sim
        alive = sorted(sim.overlay.alive_ids())
        count = min(burst.count, max(len(alive) - sim.population_floor(), 0))
        victims = _burst_victims(
            burst, alive, count, sim.rngs.stream("fault-bursts"), sim.overlay
        )
        for victim_id in victims:
            sim.crash_node(victim_id)
        self.bursts_fired += 1
        self.crashes_injected += len(victims)
        if sim.tracer is not None:
            sim.tracer.emit(
                sim.env.now,
                "fault.burst",
                count=len(victims),
                correlated=burst.correlated,
                victims=victims,
            )

    def _fire_joins(self, burst: JoinBurst) -> None:
        sim = self.sim
        for _ in range(burst.count):
            sim.join_node()
        if sim.tracer is not None:
            sim.tracer.emit(
                sim.env.now, "fault.flash_crowd", count=burst.count
            )


# ------------------------------------------------------------- scenarios --
@dataclass(frozen=True)
class Scenario:
    """A named adversarial condition for the scenarios harness."""

    name: str
    description: str
    plan: FaultPlan


def scenario_pack(
    duration: float, nodes: int, period: float = 60.0
) -> Tuple[Scenario, ...]:
    """The adversarial scenario pack, scaled to one run shape.

    Times are fractions of ``duration`` so fast and full runs exercise
    the same story; magnitudes scale with ``nodes``.  ``baseline`` is the
    ideal-channel control every other scenario is read against.
    """
    return (
        Scenario(
            "baseline",
            "ideal channel, background churn only",
            FaultPlan(),
        ),
        Scenario(
            "diurnal",
            "day/night churn curve: peaks churn ~5x faster than troughs",
            FaultPlan(
                diurnal=DiurnalChurn(period=duration / 2.0, amplitude=0.7)
            ),
        ),
        Scenario(
            "flash_crowd",
            "arrival burst: a third of the population joins at once",
            FaultPlan(
                joins=(JoinBurst(at=0.4 * duration, count=max(nodes // 3, 5)),)
            ),
        ),
        Scenario(
            "rack_failure",
            "correlated rack groups: three neighborhoods crash together, twice",
            FaultPlan(
                bursts=(
                    CrashBurst(
                        at=0.35 * duration,
                        count=max(nodes // 8, 6),
                        correlated=True,
                        groups=3,
                    ),
                    CrashBurst(
                        at=0.7 * duration,
                        count=max(nodes // 8, 6),
                        correlated=True,
                        groups=3,
                    ),
                )
            ),
        ),
        Scenario(
            "flap_storm",
            "a third of links flap down longer than the failure timeout",
            FaultPlan(
                network=NetworkSpec(
                    flaps=(
                        FlapSpec(
                            down=4.0 * period,
                            up=2.0 * period,
                            fraction=0.35,
                            start=0.3 * duration,
                            end=0.85 * duration,
                        ),
                    ),
                )
            ),
        ),
    )
