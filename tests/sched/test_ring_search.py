"""The matchmaker's fallback sweep, pinned at three budgets.

``CanMatchmaker._fallback`` floods the ``+dim`` corridor breadth-first
from the owner of a job's coordinate, up to ``sched.base.FALLBACK_BUDGET``
discovered ids.  ``goldens/ring_search_candidates.json`` holds the
candidate lists the sweep handed to the scheme's selection for 50 seeded
(origin, job) pairs on a 200-node overlay with 20 dead nodes (every fifth
origin dead), at three budgets each.  The sweep must return exactly those
lists, in order.  Regenerate only for a deliberate change to the search::

    PYTHONPATH=src:. python -m tests.sched.test_ring_search
"""

import json
import os

import numpy as np
import pytest

import repro.sched.base as sched_base
from repro.can.aggregation import AggregationEngine
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model.node import GridNode
from repro.sched.can_het import CanHetMatchmaker
from repro.sim.core import Environment
from repro.workload.jobs import JobDistribution, generate_jobs
from repro.workload.nodes import generate_node_specs

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "ring_search_candidates.json"
)
SEED, NODES, DEAD, PAIRS, GPU_SLOTS = 11, 200, 20, 50, 2
#: golden key -> budget
SEARCHES = {"outward_12": 12, "outward_64": 64, "outward_256": 256}


def build_world():
    """The overlay, grid, a can-het matchmaker and the (origin, job) pairs."""
    rng = np.random.default_rng(SEED)
    space = ResourceSpace(gpu_slots=GPU_SLOTS)
    overlay = CanOverlay(space)
    env = Environment()
    specs = generate_node_specs(NODES, GPU_SLOTS, rng)
    grid = {}
    for spec in specs:
        overlay.add_node(
            spec.node_id, space.node_coordinate(spec, float(rng.random()))
        )
        grid[spec.node_id] = GridNode(spec, env)
    dead = sorted(int(n) for n in rng.choice(NODES, DEAD, replace=False))
    for nid in dead:
        overlay.fail(nid)
        grid[nid].fail()
    jobs = generate_jobs(PAIRS, specs, GPU_SLOTS, 1.0, rng, JobDistribution())
    pairs = []
    for i, job in enumerate(jobs):
        if i % 5 == 0:
            origin = dead[i // 5 % len(dead)]
        else:
            origin = overlay.locate_owner(
                space.job_coordinate(job, float(rng.random()))
            )
        pairs.append((origin, job))
    mm = CanHetMatchmaker(
        overlay, grid, AggregationEngine(overlay, grid), np.random.default_rng(0),
        stopping_factor=1.0, use_acceptable_nodes=True, use_dominant_ce=True,
    )
    return overlay, grid, mm, pairs


def swept(mm, origin, job, budget, monkeypatch):
    """The candidate ids ``mm._fallback`` sweeps up, in order, at ``budget``
    (``None``: the module's own budget)."""
    seen = []

    def recording(capable, _job):
        seen.extend(node.node_id for node in capable)
        return None

    with monkeypatch.context() as patch:
        if budget is not None:
            patch.setattr(sched_base, "FALLBACK_BUDGET", budget)
        patch.setattr(mm, "_select_startable", recording)
        mm._fallback(origin, job)
    return seen


def run_searches(monkeypatch):
    _overlay, _grid, mm, pairs = build_world()
    cases = []
    for origin, job in pairs:
        case = {"origin": origin}
        for key, budget in SEARCHES.items():
            case[key] = swept(mm, origin, job, budget, monkeypatch)
        cases.append(case)
    return cases


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_folded_search_returns_the_recorded_lists(golden, monkeypatch):
    got = run_searches(monkeypatch)
    assert len(got) == len(golden) == PAIRS
    for i, (have, want) in enumerate(zip(got, golden)):
        assert have == want, f"pair {i} drifted"


def test_golden_exercises_dead_origins_and_both_budget_regimes(golden):
    overlay, _grid, _mm, _pairs = build_world()
    dead = overlay.dead_ids()
    assert sum(case["origin"] in dead for case in golden) >= PAIRS // 5
    # a budget cut short some sweeps and left others whole
    assert any(c["outward_64"] != c["outward_256"] for c in golden)
    assert any(c["outward_64"] == c["outward_256"] != [] for c in golden)


def test_budget_counts_discovered_nodes(monkeypatch):
    """A budget of 1 examines only the origin: its expansion alone
    discovers past the budget, whatever it queued."""
    _overlay, grid, mm, pairs = build_world()
    for origin, job in pairs:
        node = grid[origin]
        want = [origin] if node.alive and node.capable(job) else []
        assert swept(mm, origin, job, 1, monkeypatch) == want


def test_matchmaker_fallback_sweeps_the_corridor_at_256(golden, monkeypatch):
    _overlay, _grid, mm, pairs = build_world()
    got = [swept(mm, origin, job, None, monkeypatch) for origin, job in pairs]
    assert got == [case["outward_256"] for case in golden]
    assert mm.stats.fallback_searches == PAIRS


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as monkeypatch:
        cases = run_searches(monkeypatch)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(case) for case in cases))
        fh.write("\n]\n")
    print(f"wrote {GOLDEN_PATH}")
