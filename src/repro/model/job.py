"""Jobs: per-CE resource requirements and the dominant-CE rule.

A job is an independent, possibly multi-threaded application (grid
terminology).  It may state requirements for several CE slots; any
unspecified attribute means "any amount is acceptable" (paper, Section V-A).
The *dominant CE* is the slot demanding the most computational resources —
the job's execution time is governed by that CE's clock (Section III-B).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["CERequirement", "Job"]

_job_ids = itertools.count()


@dataclass(frozen=True)
class CERequirement:
    """Minimum capability demanded from one CE slot.

    ``cores`` is what the job will actually claim while running (defaults
    to 1); ``clock``/``memory``/``disk`` are admission thresholds — a node
    qualifies only when its CE meets them all.
    """

    cores: int = 1
    clock: float = 0.0
    memory: float = 0.0
    disk: float = 0.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("required cores must be positive")
        # written so that NaN fails too: it compares false with everything
        if not all(0 <= x < math.inf for x in (self.clock, self.memory, self.disk)):
            raise ValueError("requirement thresholds must be finite and non-negative")

    def demand(self) -> float:
        """Scalar resource demand used to pick the dominant CE.

        The paper picks "the CE requiring the most of these other resources
        (e.g. memory, number of cores)".  We combine the two stated examples
        with equal weight after normalising to typical magnitudes (1 core,
        1 GB); the choice of weights only matters for ties between slots.
        """
        return float(self.cores) + float(self.memory)


@dataclass
class Job:
    """One grid job.

    ``base_duration`` is the execution time (seconds) on a CE of nominal
    clock 1.0 with no contention; the node model scales it by the dominant
    CE's actual clock and contention factor at start time.
    """

    requirements: Mapping[str, CERequirement]
    base_duration: float
    submit_time: float = 0.0
    job_id: int = field(default_factory=lambda: next(_job_ids))

    # lifecycle timestamps, filled in by the simulation
    enqueue_time: Optional[float] = None  # placed in run-node queue
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    run_node_id: Optional[int] = None
    push_hops: int = 0

    def __post_init__(self) -> None:
        if not self.requirements:
            raise ValueError("a job must require at least one CE slot")
        if not 0 < self.base_duration < math.inf:
            raise ValueError("base_duration must be positive and finite")
        if not math.isfinite(self.submit_time):
            raise ValueError("submit_time must be finite")
        self.requirements = dict(self.requirements)

    # -- dominant CE -------------------------------------------------------------
    @cached_property
    def dominant_slot(self) -> str:
        """Slot of the dominant CE: the largest :meth:`CERequirement.demand`.

        Ties break toward the lexicographically smallest slot so the choice
        is deterministic.  Computed once: requirements are fixed at
        construction and matchmaking reads this at every candidate.
        """
        return min(
            self.requirements,
            key=lambda slot: (-self.requirements[slot].demand(), slot),
        )

    @property
    def dominant_requirement(self) -> CERequirement:
        return self.requirements[self.dominant_slot]

    def cores_on(self, slot: str) -> int:
        """Cores the job claims on ``slot`` (0 when the slot is unused)."""
        req = self.requirements.get(slot)
        return req.cores if req is not None else 0

    # -- derived metrics ----------------------------------------------------------
    @property
    def wait_time(self) -> Optional[float]:
        """Run-node queueing delay — the paper's Figure 5/6 metric."""
        if self.enqueue_time is None or self.start_time is None:
            return None
        return self.start_time - self.enqueue_time

    @property
    def turnaround(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        reqs = ",".join(sorted(self.requirements))
        return f"<Job {self.job_id} slots=[{reqs}] dom={self.dominant_slot}>"
