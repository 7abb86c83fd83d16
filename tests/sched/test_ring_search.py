"""The one breadth-first candidate search, pinned on both adjacencies.

``ring_search`` serves two callers that used to carry a copy of the loop
each: the matchmaker's fallback sweep (the ``+dim`` corridor, budget 256)
and the recovery path's degraded-mode search (every zone adjacency,
``RetryPolicy.ring_budget``, 128 by default).  The recovery goldens never
reach the latter, so ``goldens/ring_search_candidates.json`` holds the
candidate lists both original loops returned for 50 seeded (origin, job)
pairs on a 200-node overlay with 20 dead nodes (every fifth origin dead),
at three budgets each.  The folded function must return exactly those
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
from repro.sched.base import ring_search
from repro.sched.can_het import CanHetMatchmaker
from repro.sim.core import Environment
from repro.workload.jobs import generate_jobs
from repro.workload.nodes import generate_node_specs

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "ring_search_candidates.json"
)
SEED, NODES, DEAD, PAIRS, GPU_SLOTS = 11, 200, 20, 50, 2
#: golden key -> (adjacency, budget)
SEARCHES = {
    "ring_12": ("all", 12),
    "ring_128": ("all", 128),
    "ring_400": ("all", 400),
    "outward_12": ("corridor", 12),
    "outward_64": ("corridor", 64),
    "outward_256": ("corridor", 256),
}


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
    jobs = generate_jobs(PAIRS, specs, GPU_SLOTS, 1.0, rng)
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
        overlay, grid, AggregationEngine(overlay, grid), np.random.default_rng(0)
    )
    return overlay, grid, mm, pairs


def _adjacency(kind, overlay, mm):
    if kind == "corridor":
        return mm._corridor_ids
    return lambda nid: sorted(overlay.neighbors(nid))


def run_searches():
    overlay, grid, mm, pairs = build_world()
    cases = []
    for origin, job in pairs:
        case = {"origin": origin}
        for key, (kind, budget) in SEARCHES.items():
            found = ring_search(
                grid, origin, job, _adjacency(kind, overlay, mm), budget
            )
            case[key] = [node.node_id for node in found]
        cases.append(case)
    return cases


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_folded_search_returns_the_recorded_lists(golden):
    got = run_searches()
    assert len(got) == len(golden) == PAIRS
    for i, (have, want) in enumerate(zip(got, golden)):
        assert have["origin"] == want["origin"], i
        for key in SEARCHES:
            assert have[key] == want[key], f"pair {i}: {key} drifted"


def test_golden_exercises_dead_origins_and_both_budget_regimes(golden):
    overlay, _grid, _mm, _pairs = build_world()
    dead = overlay.dead_ids()
    assert sum(case["origin"] in dead for case in golden) >= PAIRS // 5
    # a budget cut short some sweeps and left others whole
    assert any(c["ring_128"] != c["ring_400"] for c in golden)
    assert any(c["outward_64"] != c["outward_256"] for c in golden)
    assert any(c["outward_64"] == c["outward_256"] != [] for c in golden)
    # and the all-adjacency sweep at the recovery default came back empty
    assert any(c["ring_128"] == [] for c in golden)


def test_budget_counts_discovered_nodes():
    """A budget of 1 examines only the origin: its expansion alone
    discovers past the budget, whatever it queued."""
    overlay, grid, mm, pairs = build_world()
    for origin, job in pairs:
        node = grid[origin]
        want = [node] if node.alive and node.capable(job) else []
        for kind in ("all", "corridor"):
            assert ring_search(
                grid, origin, job, _adjacency(kind, overlay, mm), 1
            ) == want


def test_matchmaker_fallback_sweeps_the_corridor_at_256(golden, monkeypatch):
    _overlay, _grid, mm, pairs = build_world()
    seen = []

    def recording(grid_nodes, origin_id, job, adjacent, budget):
        found = ring_search(grid_nodes, origin_id, job, adjacent, budget)
        seen.append([node.node_id for node in found])
        return found

    monkeypatch.setattr(sched_base, "ring_search", recording)
    for origin, job in pairs:
        mm._fallback(origin, job)
    assert seen == [case["outward_256"] for case in golden]
    assert mm.stats.fallback_searches == PAIRS


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(case) for case in run_searches()))
        fh.write("\n]\n")
    print(f"wrote {GOLDEN_PATH}")
