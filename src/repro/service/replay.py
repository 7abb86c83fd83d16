"""Record fig5-style workloads and replay them through a live gateway.

``record_trace`` generates the same job stream a
:class:`~repro.gridsim.simulation.GridSimulation` would run (same preset,
same seeded RNG streams) and writes it as a portable JSONL workload
trace.  ``replay_trace`` streams such a trace into a gateway through the
blocking :class:`~repro.service.client.ServiceClient` — optionally pacing
submissions at the trace's inter-arrival gaps scaled by the service's
time dilation — then waits for every job to reach a terminal ledger
state and returns the terminal census.

This is the service-side twin of the batch experiments: the same
workload, the same matchmaker, but arriving over HTTP against a
wall-clock service instead of inside the DES.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional

from ..model.job import Job
from ..sim.rng import RngRegistry
from ..workload.jobs import JobDistribution, generate_jobs
from ..workload.nodes import generate_node_specs
from ..workload.presets import WorkloadPreset
from ..workload.trace import dump_jobs
from .client import ServiceClient

__all__ = ["record_trace", "replay_trace"]


def record_trace(preset: WorkloadPreset, path: str) -> int:
    """Write ``preset``'s job stream as a workload trace; returns job count.

    Uses the preset's seed through the same named RNG streams as the
    simulators, so a recorded trace matches what a batch run with the
    same preset would have scheduled.
    """
    rngs = RngRegistry(preset.seed)
    specs = generate_node_specs(
        preset.nodes, preset.gpu_slots, rngs.stream("nodes")
    )
    jdist = JobDistribution().with_constraint_ratio(preset.constraint_ratio)
    jobs = generate_jobs(
        preset.jobs,
        specs,
        preset.gpu_slots,
        preset.mean_interarrival,
        rngs.stream("jobs"),
        jdist,
    )
    return dump_jobs(jobs, path)


def replay_trace(
    client: ServiceClient,
    jobs: List[Job],
    timeout: float,
    dilation: Optional[float] = None,
) -> Dict:
    """Submit ``jobs`` in trace order and wait for terminal states.

    With ``dilation`` set, submissions are paced: a gap of ``g`` model
    seconds between two recorded submit times becomes ``g / dilation``
    wall seconds, reproducing the trace's arrival process under the
    service's dilated clock.  Without it, jobs are submitted as fast as
    the gateway accepts them (every job is queued/retried by the service
    either way).  Returns a summary dict with the terminal census.
    """
    started = time.monotonic()
    job_ids: List[int] = []
    if jobs:
        wall_origin = time.monotonic()
        model_origin = jobs[0].submit_time
        for job in jobs:
            if dilation:
                target = (job.submit_time - model_origin) / dilation
                pause = wall_origin + target - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
            job_ids.append(client.submit(job))
    views = client.wait(job_ids, timeout=timeout)
    census = Counter(view.status.value for view in views.values())
    return {
        "submitted": len(job_ids),
        "terminal": dict(sorted(census.items())),
        "job_ids": job_ids,
        "wall_seconds": time.monotonic() - started,
    }
