"""The capability table against ``GridNode.capable``, candidate by candidate.

``CanMatchmaker._capable_candidates`` answers a hop with one gather from
its capability table and one ``>=`` against the job's threshold row.  It
must return exactly the nodes the per-candidate loop in
``tests/sched/oracle.py`` returns, in the same order, including after a
crash pops a ``grid_nodes`` entry and after an id comes back with another
CE set: the table is rebuilt with the hoods, on every topology change.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.aggregation import AggregationEngine
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model.ce import CESpec, CPU_SLOT, gpu_slot
from repro.model.job import CERequirement, Job
from repro.model.node import GridNode, NodeSpec
from repro.sched.can_het import CanHetMatchmaker
from repro.sim.core import Environment

from tests.sched import oracle

GPU_SLOTS = 2
#: few values per attribute, so specs equal to a threshold are common
CLOCKS = (0.5, 1.0, 2.0)
MEMORIES = (0.0, 2.0, 8.0)
DISKS = (0.0, 50.0, 100.0)
CORES = (1, 2, 4, 8)
#: ``gpu2`` exists on no node and in no dimension
JOB_SLOTS = (CPU_SLOT, gpu_slot(0), gpu_slot(1), gpu_slot(2))

ce_values = st.tuples(
    st.sampled_from(CLOCKS),
    st.sampled_from(MEMORIES),
    st.sampled_from(DISKS),
    st.sampled_from(CORES),
)
#: per node: the CPU's values, then those of the GPU slots it has
node_values = st.tuples(
    ce_values, st.lists(st.one_of(st.none(), ce_values), min_size=2, max_size=2)
)
thresholds = st.tuples(
    st.sampled_from((0.0,) + CLOCKS),
    st.sampled_from(MEMORIES),
    st.sampled_from(DISKS),
    st.sampled_from(CORES),
)
jobs = st.dictionaries(
    st.sampled_from(JOB_SLOTS), thresholds, min_size=1, max_size=3
).map(
    lambda reqs: Job(
        requirements={
            slot: CERequirement(cores=cores, clock=clock, memory=memory, disk=disk)
            for slot, (clock, memory, disk, cores) in reqs.items()
        },
        base_duration=1.0,
    )
)


def make_spec(node_id: int, values) -> NodeSpec:
    cpu, gpus = values
    ces = [CESpec(CPU_SLOT, cpu[0], cpu[1], cpu[3], disk=cpu[2])]
    for g, gpu in enumerate(gpus):
        if gpu is not None:
            ces.append(CESpec(gpu_slot(g), gpu[0], gpu[1], gpu[3], disk=gpu[2]))
    return NodeSpec(node_id, tuple(ces))


def assert_same(mm, job) -> None:
    overlay = mm.overlay
    for nid in overlay.alive_ids():
        want = oracle.capable_candidates(mm, nid, job)
        got = mm._capable_candidates(nid, job)
        assert [n.node_id for n in got] == [n.node_id for n in want], nid
        assert all(a is b for a, b in zip(got, want)), nid


@settings(max_examples=60, deadline=None)
@given(
    fleet=st.lists(node_values, min_size=3, max_size=14),
    job_list=st.lists(jobs, min_size=1, max_size=4),
    rejoined=node_values,
    seed=st.integers(0, 2**16),
)
def test_mask_equals_the_per_candidate_filter(fleet, job_list, rejoined, seed):
    rng = np.random.default_rng(seed)
    space = ResourceSpace(gpu_slots=GPU_SLOTS)
    overlay = CanOverlay(space)
    env = Environment()
    grid = {}
    for node_id, values in enumerate(fleet):
        spec = make_spec(node_id, values)
        overlay.add_node(node_id, space.node_coordinate(spec, float(rng.random())))
        if node_id:  # node 0 is in the overlay but missing from grid_nodes
            grid[node_id] = GridNode(spec, env)
    mm = CanHetMatchmaker(
        overlay, grid, AggregationEngine(overlay, grid), np.random.default_rng(0),
        stopping_factor=1.0, use_acceptable_nodes=True, use_dominant_ce=True,
    )
    for job in job_list:
        assert_same(mm, job)

    # a crash: the grid entry goes first, the overlay learns of it after
    crashed = 1 + int(rng.integers(len(fleet) - 1))
    grid.pop(crashed).fail()
    overlay.fail(crashed)
    for job in job_list:
        assert_same(mm, job)

    # an id that left comes back with another CE set (the faulty grid's
    # join): a table kept from before would still answer with the old one
    overlay.claim_zones(crashed)
    alive = overlay.alive_ids()
    if len(alive) > 1:
        back = alive[int(rng.integers(len(alive)))]
        overlay.graceful_leave(back)
        spec = make_spec(back, rejoined)
        overlay.add_node(back, space.node_coordinate(spec, float(rng.random())))
        grid[back] = GridNode(spec, env)
        for job in job_list:
            assert_same(mm, job)


def test_a_slot_no_node_has_admits_nothing():
    space = ResourceSpace(gpu_slots=1)
    overlay = CanOverlay(space)
    env = Environment()
    grid = {}
    for node_id in range(3):
        spec = make_spec(node_id, ((1.0, 2.0, 50.0, 2), [(1.0, 2.0, 0.0, 8), None]))
        overlay.add_node(node_id, space.node_coordinate(spec, 0.25 * (node_id + 1)))
        grid[node_id] = GridNode(spec, env)
    mm = CanHetMatchmaker(
        overlay, grid, AggregationEngine(overlay, grid), np.random.default_rng(0),
        stopping_factor=1.0, use_acceptable_nodes=True, use_dominant_ce=True,
    )
    job = Job({gpu_slot(1): CERequirement(cores=1)}, base_duration=1.0)
    assert mm._capable_candidates(0, job) == oracle.capable_candidates(mm, 0, job) == []
