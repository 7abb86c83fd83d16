"""The live service against the batch simulator, decision for decision.

Both hosts build their grid with ``wire_grid`` and run one
``JobLifecycle`` and one ``RecoveryLoop``, so a job stream should meet
the same decisions on either.  This module runs the claim on two hosts
side by side, on the same seed:

* ``FaultyGridSimulation`` with vanilla heartbeats and no background churn
  (both mean gaps 1e12);
* ``GridService`` on an ``Environment``, fed the ``record_trace`` workload
  one job at its ``submit_time`` (scheduled the way the simulator's arrival
  chain schedules it, so the instants are the same floats), and stopped at
  the simulator's ``sim_end_time`` (its periodic ticks never stop by
  themselves).

Job by job in submission order it compares the run node, start and finish
time and the outcome, then the final census and the recovery tracker.
Each preset runs once without a crash and once with one ``crash_node`` /
``fail_node`` scripted at the same instant on both sides.

One difference is known, and pinned: the *first-miss policy*.  A job no
node can take when it arrives is terminal on the simulator
(``grid.job_unplaced``; fig5/fig6 count them), while the service keeps it
(``SUBMITTED -> RETRYING``) and retries it through the recovery loop's
backoff, each retry taking ``matchmaking`` draws.  So every job before the
first miss must be equal, the first divergence must be that miss, and the
same jobs miss on arrival on both sides.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.gridsim import FaultyGridConfig, FaultyGridSimulation, MatchmakingConfig
from repro.service.core import GridService, ServiceConfig
from repro.service.ledger import JobStatus, open_ledger
from repro.service.replay import record_trace
from repro.sim.core import Environment
from repro.workload.presets import SMALL_LOAD, TINY_LOAD
from repro.workload.trace import job_to_dict, load_jobs

#: (preset, scripted crash as (model time, node id) or None, the job
#: indices whose outcome differs: empty, or the first miss and what the
#: service's retries of it moved).  The TINY crash takes node 0 away, the
#: only node two later jobs fit on
CASES = {
    "tiny": (TINY_LOAD, None, []),
    "tiny-crash": (TINY_LOAD, (6235.0, 0), [162, 176, 182, 192, 195]),
    "small": (SMALL_LOAD, None, []),
    "small-crash": (SMALL_LOAD, (22_500.0, 38), []),
}


def run_simulator(preset, crash):
    sim = FaultyGridSimulation(
        FaultyGridConfig(
            MatchmakingConfig(preset),
            mean_time_between_failures=1e12,
            mean_time_between_joins=1e12,
        )
    )
    if crash is not None:
        at, victim = crash
        sim.env.schedule_callback(at, lambda: sim.crash_node(victim))
    result = sim.run()
    outcomes = []
    for job in sim.jobs:
        if job.job_id in sim.unplaced_ids:
            outcome = "UNPLACED"
        elif job.job_id in sim.abandoned_ids:
            outcome = "ABANDONED"
        else:
            outcome = "COMPLETED" if job.finish_time is not None else "IN FLIGHT"
        node = job.run_node_id if outcome == "COMPLETED" else None
        outcomes.append((outcome, node, job.start_time, job.finish_time))
    return sim, result.base.sim_end_time, outcomes


def run_service(preset, specs, crash, until):
    env = Environment()
    service = GridService(ServiceConfig(preset=preset), open_ledger(None), env)
    service.start()
    ids = []

    # the simulator's arrival chain: one callback per job, ``submit_time``
    # minus now after the one before
    def next_arrival():
        while len(ids) < len(specs):
            delay = specs[len(ids)]["submit_time"] - env.now
            if delay > 0:
                env.schedule_callback(delay, arrive)
                return
            ids.append(service.submit(specs[len(ids)]))

    def arrive():
        ids.append(service.submit(specs[len(ids)]))
        next_arrival()

    next_arrival()
    if crash is not None:
        at, victim = crash
        env.schedule_callback(at, lambda: service.fail_node(victim))
    env.run(until=until)
    ledger = service.ledger
    outcomes = []
    for job_id in ids:
        record = ledger.record(job_id)
        start = finish = None
        for edge in ledger.transitions(job_id):
            if edge.to is JobStatus.RUNNING:
                start = edge.at
            elif edge.to is JobStatus.COMPLETED:
                finish = edge.at
        outcome = record.status.value if record.terminal else "IN FLIGHT"
        node = record.node_id if outcome == "COMPLETED" else None
        outcomes.append((outcome, node, start, finish))
    return service, ids, outcomes


def recorded(preset, path):
    """``preset``'s job stream through the ``record`` path, as the specs
    ``submit`` takes."""
    record_trace(preset, path)
    return [job_to_dict(job) for job in load_jobs(path)]


def tracker_counters(tracker):
    return (
        tracker.losses, tracker.resubmissions, tracker.abandonments,
        len(tracker.pending), tracker.detection_latencies,
        tracker.resubmission_latencies,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_service_decides_as_the_simulator(case, tmp_path):
    preset, crash, differing = CASES[case]
    specs = recorded(preset, str(tmp_path / "workload.jsonl"))
    sim, end, sim_rows = run_simulator(preset, crash)
    # the recorded trace is the simulator's own job stream (ids aside: the
    # service's are its ledger's)
    assert [{**spec, "job_id": None} for spec in specs] == [
        {**job_to_dict(job), "job_id": None} for job in sim.jobs
    ]
    service, ids, svc_rows = run_service(preset, specs, crash, end)
    assert len(svc_rows) == len(sim_rows) == preset.jobs

    if crash is not None:
        # the crash took work with it on both sides
        assert sim.tracker.losses == service.tracker.losses >= 1
    misses = [
        index for index, row in enumerate(sim_rows) if row[0] == "UNPLACED"
    ]
    diff = [
        index for index, (a, b) in enumerate(zip(sim_rows, svc_rows)) if a != b
    ]
    assert diff == differing
    # the final census is equal once the simulator's first-miss verdict reads
    # as the service's abandonment on budget
    assert Counter(
        "ABANDONED" if row[0] == "UNPLACED" else row[0] for row in sim_rows
    ) == Counter(row[0] for row in svc_rows)
    if not differing:
        assert not misses
        assert Counter(row[0] for row in svc_rows) == {"COMPLETED": preset.jobs}
        assert tracker_counters(sim.tracker) == tracker_counters(service.tracker)
        return

    # the known difference: the first divergence is the first job no node
    # could take on arrival; the simulator ends it there, the service keeps
    # it and retries
    first = misses[0]
    assert diff[0] == first
    arrived = specs[first]["submit_time"]
    edges = service.ledger.transitions(ids[first])
    assert [(e.to, e.at) for e in edges[:2]] == [
        (JobStatus.SUBMITTED, arrived), (JobStatus.RETRYING, arrived)
    ]
    # the same jobs miss on arrival on both sides
    first_misses = [
        index for index, job_id in enumerate(ids)
        if [e.to for e in service.ledger.transitions(job_id)[:2]]
        == [JobStatus.SUBMITTED, JobStatus.RETRYING]
    ]
    assert first_misses == misses
