"""Configuration dataclasses for the two experiment families."""

from __future__ import annotations

from dataclasses import dataclass

from ..can.heartbeat import HeartbeatScheme
from ..workload.presets import WorkloadPreset
from .faults import FaultPlan

__all__ = ["MatchmakingConfig", "ChurnConfig"]


@dataclass(frozen=True)
class MatchmakingConfig:
    """A load-balancing run: workload preset + matchmaker + knobs."""

    preset: WorkloadPreset
    scheme: str = "can-het"  # can-het | can-hom | central
    #: Equation 4's SF; the paper treats it as a tuned parameter.  4.0 keeps
    #: jobs pushing until the far-out node count is genuinely small, which
    #: is where can-het's wait-time CDF meets the centralized baseline
    stopping_factor: float = 4.0
    #: ablation switches (only meaningful for can-het)
    use_acceptable_nodes: bool = True
    use_dominant_ce: bool = True
    use_virtual_dimension: bool = True
    #: overlay substrate backing the matchmakers ("can", "chord", or any
    #: :func:`repro.overlay.register_substrate` name); "central" ignores it
    substrate: str = "can"

    def __post_init__(self) -> None:
        if self.scheme not in ("can-het", "can-hom", "central"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.substrate:
            raise ValueError("substrate must be a registered substrate name")
        if self.stopping_factor < 0:
            raise ValueError("stopping_factor must be non-negative")


@dataclass(frozen=True)
class ChurnConfig:
    """A maintenance-protocol run: population + churn rate + scheme."""

    initial_nodes: int = 1000
    gpu_slots: int = 2  # 2 -> 11 CAN dimensions
    scheme: HeartbeatScheme = HeartbeatScheme.VANILLA
    heartbeat_period: float = 60.0
    #: mean gap between churn events; < period means simultaneous events
    event_gap_mean: float = 15.0
    #: 'fail' = silent crashes (high-churn resilience experiments);
    #: 'graceful' = clean leaves with hand-off
    leave_mode: str = "fail"
    #: simulated end time of stage 2 (stage 1 joins happen at t=0)
    duration: float = 30_000.0
    seed: int = 20110926
    #: overlay substrate under churn ("can", "chord", or any registered name)
    substrate: str = "can"
    #: run the full ground-truth + ledger invariant checker every N churn
    #: events mid-run (0 = only when the caller asks); catches structural
    #: corruption at the event that introduced it instead of at the end
    invariant_check_every: int = 0
    #: scripted adversity (crash/join bursts, diurnal curve) and the run's
    #: channel (``plan.network``: loss, latency, flaps); the
    #: default plan is the ideal channel and changes nothing
    plan: FaultPlan = FaultPlan()

    def __post_init__(self) -> None:
        from ..overlay import get_substrate

        if self.initial_nodes < 2:
            raise ValueError("need at least two nodes")
        get_substrate(self.substrate)  # an unknown name fails here
        if self.invariant_check_every < 0:
            raise ValueError("invariant_check_every must be non-negative")
        if self.leave_mode not in ("fail", "graceful"):
            raise ValueError(f"unknown leave_mode {self.leave_mode!r}")
        if self.event_gap_mean <= 0 or self.heartbeat_period <= 0:
            raise ValueError("periods must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def dims(self) -> int:
        return 4 + 3 * self.gpu_slots + 1
