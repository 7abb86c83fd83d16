"""Result containers for the experiment harness (plain-data, serialisable)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..can.stats import RateSummary
from ..sched.base import MatchmakingStats
from .metrics import cdf_at

__all__ = ["MatchmakingResult", "ChurnResult"]


@dataclass
class MatchmakingResult:
    """Outcome of one load-balancing simulation run."""

    scheme: str
    preset_name: str
    mean_interarrival: float
    constraint_ratio: float
    wait_times: np.ndarray  # seconds, one entry per started job
    turnarounds: np.ndarray
    unplaced_jobs: int
    lost_jobs: int
    matchmaking: MatchmakingStats
    sim_end_time: float
    jobs_submitted: int
    #: jobs that exhausted their resubmission budget (0 without churn).
    #: Every submitted job lands in exactly one bucket:
    #: ``started + unplaced + lost + abandoned == jobs_submitted``
    #: (asserted by repro.gridsim.invariants.check_matchmaking_accounting).
    abandoned_jobs: int = 0
    substrate: str = "can"

    @property
    def started(self) -> int:
        """Jobs that began executing — the accounting-identity bucket."""
        return int(self.wait_times.size)

    def wait_cdf_at(self, thresholds: Sequence[float]) -> np.ndarray:
        """Fraction of started jobs with wait <= each threshold."""
        return cdf_at(self.wait_times, thresholds)

    def summary(self) -> Dict[str, float]:
        w = self.wait_times
        if w.size == 0:
            return {"jobs": 0.0}
        return {
            "jobs": float(w.size),
            "mean_wait": float(w.mean()),
            "p50_wait": float(np.percentile(w, 50)),
            "p80_wait": float(np.percentile(w, 80)),
            "p90_wait": float(np.percentile(w, 90)),
            "p95_wait": float(np.percentile(w, 95)),
            "p99_wait": float(np.percentile(w, 99)),
            "max_wait": float(w.max()),
            "zero_wait_fraction": float((w <= 1e-9).mean()),
            "mean_push_hops": self.matchmaking.mean_push_hops,
        }


#: the trailing share of a run's samples that is Figure 7's plateau
STEADY_TAIL = 0.25


@dataclass
class ChurnResult:
    """Outcome of one maintenance-protocol simulation run."""

    scheme: str
    nodes: int
    dims: int
    broken_links_times: np.ndarray
    broken_links_values: np.ndarray
    rates: RateSummary
    events: Dict[str, int]
    final_population: int
    substrate: str = "can"
    #: crash -> first-detection latency, one sample per detected crash
    detection_latencies: np.ndarray = field(
        default_factory=lambda: np.empty(0)
    )

    @property
    def final_broken_links(self) -> float:
        return float(self.broken_links_values[-1]) if self.broken_links_values.size else 0.0

    def steady_state_broken_links(self) -> float:
        """Mean broken links over the trailing ``STEADY_TAIL`` of the run
        (Figure 7's plateau)."""
        v = self.broken_links_values
        if v.size == 0:
            return 0.0
        k = max(1, int(v.size * STEADY_TAIL))
        return float(v[-k:].mean())
