"""Named workload presets: the paper's scenarios plus scaled-down variants.

``paper_*`` presets match Section V ("1000 heterogeneous nodes, and 20,000
jobs ... executed on an 11-dimension CAN").  The ``small_*`` presets keep
the same structure at a fraction of the size, for tests, examples and
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

__all__ = ["WorkloadPreset", "PAPER_LOAD", "SMALL_LOAD", "TINY_LOAD"]


@dataclass(frozen=True)
class WorkloadPreset:
    """Size parameters of a matchmaking experiment."""

    #: seconds between aggregation steps and heartbeat rounds; every
    #: matchmaking run uses the same period, so it is not a field
    heartbeat_period: ClassVar[float] = 120.0

    name: str
    nodes: int
    jobs: int
    gpu_slots: int  # 2 -> the paper's 11-dimensional CAN
    mean_interarrival: float  # seconds
    constraint_ratio: float
    seed: int = 20110926  # CLUSTER 2011 conference date

    def __post_init__(self) -> None:
        if min(self.nodes, self.jobs) <= 0:
            raise ValueError("nodes and jobs must be positive")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0 <= self.constraint_ratio <= 1:
            raise ValueError("constraint_ratio must be a probability")

    def with_interarrival(self, seconds: float) -> "WorkloadPreset":
        return replace(self, mean_interarrival=seconds)

    def with_constraint_ratio(self, ratio: float) -> "WorkloadPreset":
        return replace(self, constraint_ratio=ratio)

    def with_seed(self, seed: int) -> "WorkloadPreset":
        return replace(self, seed=seed)


#: the paper's load-balancing scenario (Figures 5 and 6 base configuration)
PAPER_LOAD = WorkloadPreset(
    name="paper",
    nodes=1000,
    jobs=20_000,
    gpu_slots=2,
    mean_interarrival=3.0,
    constraint_ratio=0.6,
)

#: a few-minute variant preserving the load level (same arrival/nodes ratio)
SMALL_LOAD = WorkloadPreset(
    name="small",
    nodes=200,
    jobs=3_000,
    gpu_slots=2,
    mean_interarrival=15.0,
    constraint_ratio=0.6,
)

#: seconds-scale variant for unit tests
TINY_LOAD = WorkloadPreset(
    name="tiny",
    nodes=40,
    jobs=200,
    gpu_slots=2,
    mean_interarrival=75.0,
    constraint_ratio=0.6,
)
