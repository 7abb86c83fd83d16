"""Output-neutrality regression for the Fig. 5/6 matchmaking loop.

The scheduling twin of ``tests/can/test_heartbeat_goldens.py``: seeded
runs pin the matchmaker's counters, the wait-time percentiles, the
simulated end time and a hash over every job's ``(index, run node, push
hops, start time)`` in ``goldens/matchmaking_accounting.json``.  The file
was generated against the parent of the PR that made ``AggregationEngine``
and the CAN matchmakers array-native and cached; performance work on
``repro.can.aggregation``, ``repro.sched`` or ``repro.model`` must leave
every field byte-identical, and a deliberate change to Algorithm 1 or
Eq. 1-4 regenerates the file and says so in review::

    PYTHONPATH=src:. python -m tests.sched.test_matchmaking_goldens
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.gridsim import GridSimulation, MatchmakingConfig
from repro.gridsim.faulty import FaultyGridConfig, FaultyGridSimulation
from repro.workload.presets import WorkloadPreset

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "matchmaking_accounting.json"
)

#: the paper's load level (nodes x inter-arrival = 3000 node-seconds per
#: job) on a population small enough for tier-1
REDUCED = WorkloadPreset(
    name="golden",
    nodes=120,
    jobs=500,
    gpu_slots=2,
    mean_interarrival=25.0,
    constraint_ratio=0.6,
)
SEEDS = (20110926, 4242)
SCHEMES = ("can-het", "can-hom")


def _cases():
    cases = {}
    for seed in SEEDS:
        for scheme in SCHEMES:
            # Fig. 5's heaviest load (2 s at 1000 nodes) and Fig. 6's most
            # constrained mix (80 %)
            shapes = {
                "fig5": dataclasses.replace(
                    REDUCED, mean_interarrival=50.0 / 3.0, seed=seed
                ),
                "fig6": dataclasses.replace(
                    REDUCED, constraint_ratio=0.8, seed=seed
                ),
            }
            for fig, preset in shapes.items():
                cases[f"{fig}.{scheme}.{seed}"] = MatchmakingConfig(
                    preset, scheme=scheme
                )
    chord = dataclasses.replace(REDUCED, nodes=60, jobs=250, mean_interarrival=50.0)
    cases["chord.can-het"] = MatchmakingConfig(chord, substrate="chord")
    # crashes and joins mid-run: every per-topology cache is invalidated
    # while jobs are queued, lost and resubmitted
    cases["recovery.can-het"] = FaultyGridConfig(
        MatchmakingConfig(
            dataclasses.replace(
                REDUCED, nodes=60, jobs=300, mean_interarrival=50.0
            )
        ),
        mean_time_between_failures=400.0,
        mean_time_between_joins=400.0,
        invariant_check_every=4,
    )
    return cases


CASES = _cases()


def run_case(name):
    config = CASES[name]
    if isinstance(config, FaultyGridConfig):
        sim = FaultyGridSimulation(config)
        faulty = sim.run()
        result = faulty.base
        extra = {
            "failures": faulty.failures,
            "joins": faulty.joins,
            "jobs_lost": faulty.jobs_lost,
            "jobs_resubmitted": faulty.jobs_resubmitted,
            "jobs_abandoned": faulty.jobs_abandoned,
            "final_population": faulty.final_population,
        }
    else:
        sim = GridSimulation(config)
        result = sim.run()
        extra = {}
    first = sim.jobs[0].job_id  # ids come from a process-wide counter
    digest = hashlib.sha256()
    for job in sim.jobs:
        digest.update(
            repr(
                (
                    job.job_id - first,
                    job.run_node_id,
                    job.push_hops,
                    job.start_time,
                )
            ).encode()
        )
    waits = result.wait_times
    return {
        "stats": dataclasses.asdict(result.matchmaking),
        "started": result.started,
        "unplaced": result.unplaced_jobs,
        "lost": result.lost_jobs,
        "wait_p50": float(np.percentile(waits, 50)),
        "wait_p95": float(np.percentile(waits, 95)),
        "wait_max": float(waits.max()),
        "sim_end_time": result.sim_end_time,
        "aggregation_rounds": sim.aggregation.rounds_run,
        "placements_sha256": digest.hexdigest(),
        **extra,
    }


@pytest.mark.parametrize("name", list(CASES))
def test_matchmaking_fingerprint_matches_golden(name):
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)[name]
    got = run_case(name)
    # compare field by field first so a drift names the counter, not a blob
    for field in want:
        assert got[field] == want[field], f"{field} drifted"
    assert got == want


def test_recovery_case_ignores_the_hash_seed():
    """The recovery loop walks ``tracker.pending`` (a dict) when a detection
    releases a node's jobs, and the case takes 26 fallback searches and 31
    resubmissions: it must reproduce the golden in fresh interpreters under
    three hash seeds."""
    import subprocess
    import sys

    script = (
        "import json;"
        "from tests.sched.test_matchmaking_goldens import run_case;"
        "print(json.dumps(run_case('recovery.can-het')))"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            cwd=root,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(root, "src"),
                "PYTHONHASHSEED": seed,
            },
        )
        for seed in ("0", "1", "4242")
    ]
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)["recovery.can-het"]
    for run in runs:
        out, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        assert json.loads(out) == want


if __name__ == "__main__":
    payload = {name: run_case(name) for name in CASES}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
