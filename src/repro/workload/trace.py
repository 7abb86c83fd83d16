"""Workload traces: (de)serialise job streams to JSONL.

A recorded workload is the portable form of what :func:`generate_jobs`
produces — one JSON object per job (submit time, base duration, per-slot
requirements) behind a schema header.  Two consumers rely on the
round-trip being exact:

* the service's :mod:`~repro.service.ledger` persists each submitted job's
  spec this way, so a restarted gateway can rebuild the
  :class:`~repro.model.job.Job` objects it owes executions for;
* ``python -m repro.service record / replay`` streams a recorded fig5-style
  workload through a live gateway.

``job_id`` round-trips too: replaying a trace or reloading a ledger must
not re-number jobs, or cross-restart accounting would double-count.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from ..model.job import CERequirement, Job
from ..obs.schema import SCHEMA_VERSION, check_schema_version

__all__ = ["job_to_dict", "job_from_dict", "dump_jobs", "load_jobs"]

#: first line of every workload trace file
WORKLOAD_HEADER = {"schema_version": SCHEMA_VERSION, "type": "workload.header"}


def job_to_dict(job: Job) -> Dict[str, Any]:
    """The job's immutable spec (not its lifecycle timestamps)."""
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "base_duration": job.base_duration,
        "requirements": {
            slot: {
                "cores": req.cores,
                "clock": req.clock,
                "memory": req.memory,
                "disk": req.disk,
            }
            for slot, req in sorted(job.requirements.items())
        },
    }


def job_from_dict(data: Dict[str, Any], job_id: Optional[int] = None) -> Job:
    """Rebuild a :class:`Job`; ``job_id`` overrides the recorded id.

    Anything but a mapping of slots to mappings of numbers raises
    ``TypeError`` / ``ValueError`` / ``OverflowError`` (the service answers
    those with a 400); :class:`Job` rejects what is not finite.
    """
    requirements = data["requirements"]
    if not isinstance(requirements, dict) or not all(
        isinstance(fields, dict) for fields in requirements.values()
    ):
        raise TypeError("requirements must map each slot to an object")
    reqs = {
        slot: CERequirement(
            cores=int(fields.get("cores", 1)),
            clock=float(fields.get("clock", 0.0)),
            memory=float(fields.get("memory", 0.0)),
            disk=float(fields.get("disk", 0.0)),
        )
        for slot, fields in requirements.items()
    }
    recorded = data.get("job_id")
    return Job(
        requirements=reqs,
        base_duration=float(data["base_duration"]),
        submit_time=float(data.get("submit_time", 0.0)),
        job_id=int(recorded if job_id is None else job_id),
    )


def dump_jobs(jobs: Iterable[Job], path: str) -> int:
    """Write a workload trace; returns the number of jobs written."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "w") as fh:
        fh.write(
            json.dumps(WORKLOAD_HEADER, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        for job in jobs:
            fh.write(
                json.dumps(
                    job_to_dict(job), sort_keys=True, separators=(",", ":")
                )
                + "\n"
            )
            count += 1
    return count


def load_jobs(path: str) -> List[Job]:
    """Read a workload trace back into :class:`Job` objects, in file order."""
    jobs: List[Job] = []
    first = True
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if first:
                first = False
                if record.get("type") == "workload.header":
                    check_schema_version(
                        record.get("schema_version"), f"workload {path!r}"
                    )
                    continue
            jobs.append(job_from_dict(record))
    return jobs
