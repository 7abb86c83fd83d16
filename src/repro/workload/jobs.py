"""Synthetic job-stream generation (paper, Section V-A).

Jobs arrive as a Poisson process ("the interval between individual job
submissions follows a Poisson distribution") with a configurable mean
inter-arrival time, and run for an expected hour, uniform in [0.5 h, 1.5 h]
at nominal clock speed.

The *job constraint ratio* is "the probability that each resource type for
a job is specified ... any of them may be omitted (meaning any amount of
that resource is acceptable)".  We realise it in two stages: first the job
picks which CE slots it actually uses (every job uses the CPU; GPU jobs
additionally use one GPU slot, their dominant CE); then each capability
attribute of a used slot is specified with probability equal to the
constraint ratio.  Requirement magnitudes are tier-skewed low, like node
capabilities.

Every generated job is guaranteed to have at least one capable node in the
supplied population (re-sampled otherwise), since an unsatisfiable job says
nothing about load balancing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..model.ce import CPU_SLOT, gpu_slot
from ..model.job import CERequirement, Job
from ..model.node import NodeSpec
from .distributions import Tiered, WeightedChoice, cumulative

__all__ = ["JobDistribution", "generate_jobs", "arrival_times"]

#: draws of a job's requirements before :func:`generate_jobs` gives up on
#: the node population
MAX_RESAMPLE = 50


@dataclass(frozen=True)
class JobDistribution:
    """Tunable requirement distributions for job generation."""

    #: fraction of jobs whose dominant CE is a GPU
    gpu_job_fraction: float = 0.45
    #: relative preference for each GPU slot among GPU jobs
    gpu_slot_weights: Tuple[float, ...] = (0.6, 0.4, 0.2)
    constraint_ratio: float = 0.6
    #: a GPU job also requires a *second* GPU type with probability
    #: ``secondary_gpu_factor * constraint_ratio``: raising the constraint
    #: ratio specifies more resource types per job (paper, Section V-A),
    #: which shrinks the set of eligible nodes — only multi-GPU machines
    #: can host such jobs — and makes matchmaking genuinely harder
    secondary_gpu_factor: float = 0.25
    cpu_req_cores: WeightedChoice = WeightedChoice(
        values=(1, 2, 4), weights=(0.60, 0.28, 0.12)
    )
    cpu_req_clock: Tiered = Tiered(
        tiers=((0.70, 0.8, 1.4), (0.25, 1.4, 2.2), (0.05, 2.2, 3.0))
    )
    cpu_req_memory: WeightedChoice = WeightedChoice(
        values=(1, 2, 4, 8), weights=(0.40, 0.32, 0.20, 0.08)
    )
    cpu_req_disk: Tiered = Tiered(
        tiers=((0.70, 1, 100), (0.25, 100, 500), (0.05, 500, 900))
    )
    gpu_req_clock: Tiered = Tiered(
        tiers=((0.70, 0.4, 1.0), (0.25, 1.0, 1.8), (0.05, 1.8, 2.6))
    )
    gpu_req_memory: WeightedChoice = WeightedChoice(
        values=(1, 2, 4), weights=(0.55, 0.30, 0.15)
    )
    gpu_req_cores: WeightedChoice = WeightedChoice(
        values=(64, 128, 240), weights=(0.55, 0.30, 0.15)
    )
    duration_range: Tuple[float, float] = (1800.0, 5400.0)  # 0.5 h .. 1.5 h

    def __post_init__(self) -> None:
        if not 0.0 <= self.gpu_job_fraction <= 1.0:
            raise ValueError("gpu_job_fraction must be a probability")
        if not 0.0 <= self.constraint_ratio <= 1.0:
            raise ValueError("constraint_ratio must be a probability")
        lo, hi = self.duration_range
        if lo <= 0 or hi < lo:
            raise ValueError("invalid duration range")

    def with_constraint_ratio(self, ratio: float) -> "JobDistribution":
        from dataclasses import replace

        return replace(self, constraint_ratio=ratio)


def arrival_times(
    count: int, mean_interarrival: float, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative Poisson-process arrival times for ``count`` jobs."""
    if count <= 0:
        raise ValueError("count must be positive")
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    gaps = rng.exponential(mean_interarrival, size=count)
    return np.cumsum(gaps)


def _maybe(rng: np.random.Generator, ratio: float) -> bool:
    return rng.random() < ratio

def _cpu_requirement(
    dist: JobDistribution, rng: np.random.Generator, secondary: bool
) -> CERequirement:
    ratio = dist.constraint_ratio
    if secondary:
        # A GPU job's CPU side only drives the device: one core, thresholds
        # mostly unconstrained.
        return CERequirement(
            cores=1,
            clock=dist.cpu_req_clock.sample(rng) if _maybe(rng, ratio * 0.3) else 0.0,
            memory=(
                dist.cpu_req_memory.sample(rng) if _maybe(rng, ratio * 0.3) else 0.0
            ),
        )
    return CERequirement(
        cores=int(dist.cpu_req_cores.sample(rng)) if _maybe(rng, ratio) else 1,
        clock=dist.cpu_req_clock.sample(rng) if _maybe(rng, ratio) else 0.0,
        memory=dist.cpu_req_memory.sample(rng) if _maybe(rng, ratio) else 0.0,
        disk=dist.cpu_req_disk.sample(rng) if _maybe(rng, ratio) else 0.0,
    )


def _gpu_requirement(
    dist: JobDistribution, rng: np.random.Generator
) -> CERequirement:
    ratio = dist.constraint_ratio
    return CERequirement(
        cores=int(dist.gpu_req_cores.sample(rng)) if _maybe(rng, ratio) else 1,
        clock=dist.gpu_req_clock.sample(rng) if _maybe(rng, ratio) else 0.0,
        memory=dist.gpu_req_memory.sample(rng) if _maybe(rng, ratio) else 0.0,
    )


def _sample_requirements(
    dist: JobDistribution,
    gpu_slots: int,
    rng: np.random.Generator,
) -> Dict[str, CERequirement]:
    is_gpu_job = gpu_slots > 0 and rng.random() < dist.gpu_job_fraction
    if not is_gpu_job:
        return {CPU_SLOT: _cpu_requirement(dist, rng, secondary=False)}
    first, seconds = _slot_tables(dist.gpu_slot_weights, gpu_slots)
    slot_idx = bisect_right(first, rng.random())
    reqs = {
        gpu_slot(slot_idx): _gpu_requirement(dist, rng),
        CPU_SLOT: _cpu_requirement(dist, rng, secondary=True),
    }
    # More-specified jobs may demand a second GPU type as well, pinning
    # them to the (few) multi-GPU machines.
    second_prob = dist.secondary_gpu_factor * dist.constraint_ratio
    if gpu_slots > 1 and rng.random() < second_prob:
        others, cdf = seconds[slot_idx]
        second = others[bisect_right(cdf, rng.random())]
        reqs[gpu_slot(second)] = _gpu_requirement(dist, rng)
    return reqs


@lru_cache(maxsize=None)
def _slot_tables(weights: Tuple[float, ...], gpu_slots: int) -> Tuple[
    Tuple[float, ...], Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]
]:
    """The GPU-slot pick tables for the first ``gpu_slots`` weights.

    The first pick's cumulative table, and per first slot the other slots
    with the table for the second pick among them (none with one slot).
    """
    if len(weights) < gpu_slots:
        raise ValueError("gpu_slot_weights needs a weight per GPU slot")
    seconds = []
    if gpu_slots > 1:
        for first in range(gpu_slots):
            others = tuple(g for g in range(gpu_slots) if g != first)
            seconds.append((others, cumulative([weights[g] for g in others])))
    return cumulative(weights[:gpu_slots]), tuple(seconds)


def generate_jobs(
    count: int,
    nodes: Sequence[NodeSpec],
    gpu_slots: int,
    mean_interarrival: float,
    rng: np.random.Generator,
    dist: JobDistribution,
) -> List[Job]:
    """Draw a satisfiable Poisson job stream against ``nodes``."""
    times = arrival_times(count, mean_interarrival, rng)
    jobs: List[Job] = []
    for t in times:
        for attempt in range(MAX_RESAMPLE):
            reqs = _sample_requirements(dist, gpu_slots, rng)
            if _satisfiable(reqs, nodes):
                break
        else:
            raise RuntimeError(
                "could not draw a satisfiable job; node population too weak "
                "for the requirement distribution"
            )
        duration = float(rng.uniform(*dist.duration_range))
        jobs.append(Job(requirements=reqs, base_duration=duration, submit_time=float(t)))
    return jobs


def _satisfiable(reqs: Dict[str, CERequirement], nodes: Sequence[NodeSpec]) -> bool:
    for spec in nodes:
        if _node_satisfies(spec, reqs):
            return True
    return False


def _node_satisfies(spec: NodeSpec, reqs: Dict[str, CERequirement]) -> bool:
    for slot, req in reqs.items():
        ce = spec.ce_spec(slot)
        if ce is None:
            return False
        if (
            ce.clock < req.clock
            or ce.memory < req.memory
            or ce.disk < req.disk
            or ce.cores < req.cores
        ):
            return False
    return True
