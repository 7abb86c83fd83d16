"""Equation 3 over a whole corridor against the one-entry-at-a-time loop.

``CanMatchmaker._choose_push_target`` gathers the corridor's aggregate
rows in one index and evaluates the objective as float64 arrays.  It must
return the ``(target, dim)`` the scalar loop in ``tests/sched/oracle.py``
returns: steering-slot dimensions first, the first minimum on ties, and
no visited id, no id missing from ``grid_nodes`` and no entry without
cores.  Both substrates, both schemes' steering (``slot=None`` is
can-hom's pooled fields).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.aggregation import FIELD_INDEX, AggregationEngine
from repro.can.space import ResourceSpace
from repro.model.node import GridNode
from repro.overlay.registry import create_overlay
from repro.sched.can_het import CanHetMatchmaker
from repro.sim.core import Environment
from repro.workload.jobs import JobDistribution, generate_jobs
from repro.workload.nodes import generate_node_specs

from tests.sched import oracle

GPU_SLOTS = 2
#: ``None`` steers by pooled fields only (can-hom, or can-het without the
#: dominant-CE rule)
SLOTS = (None, "cpu", "gpu0", "gpu1")


def build(
    substrate: str,
    nodes: int,
    seed: int,
    loaded: int,
    absent: int,
    rounds: int,
    edited: float = 0.0,
):
    """A grid on ``substrate`` after ``rounds`` of aggregation, and its matchmaker.

    ``loaded`` jobs are submitted first, ``edited`` is the share of
    aggregate rows :func:`edit_aggregates` overwrites, and ``absent`` nodes
    stay in the overlay but leave ``grid_nodes``.
    """
    rng = np.random.default_rng(seed)
    space = ResourceSpace(gpu_slots=GPU_SLOTS)
    overlay = create_overlay(substrate, space)
    env = Environment()
    specs = generate_node_specs(nodes, GPU_SLOTS, rng)
    grid = {}
    for spec in specs:
        overlay.add_node(spec.node_id, space.node_coordinate(spec, float(rng.random())))
        grid[spec.node_id] = GridNode(spec, env)
    # load some nodes, so the objective is not 0 (an all-way tie) everywhere
    for job in generate_jobs(loaded, specs, GPU_SLOTS, 1.0, rng, JobDistribution()) if loaded else ():
        capable = [node for node in grid.values() if node.capable(job)]
        if capable:
            capable[int(rng.integers(len(capable)))].submit(job)
    aggregation = AggregationEngine(overlay, grid)
    aggregation.run_rounds(rounds)
    if edited:
        edit_aggregates(aggregation, rng, edited)
    # alive in the overlay, missing from grid_nodes
    for nid in rng.choice(nodes, absent, replace=False):
        del grid[int(nid)]
    mm = CanHetMatchmaker(
        overlay, grid, aggregation, np.random.default_rng(0), stopping_factor=1.0,
        use_acceptable_nodes=True, use_dominant_ce=True,
    )
    return mm, rng


def edit_aggregates(aggregation, rng, share: float) -> None:
    """Overwrite Eq. 3's fields of a ``share`` of the (dim, node) rows.

    Real aggregates seldom mix coreless and cored entries within one
    steering group, or tie on a non-zero objective; edited rows do both:
    each takes one of a few (required, cores) pairs, zero and negative
    cores included.
    """
    aggregation.advertised(aggregation.overlay.alive_ids()[0], 0)  # build
    table = aggregation._ai
    pairs = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (2.0, 4.0), (1.0, 2.0)])
    for required, cores in (
        ("slot_required_cores", "slot_cores"),
        ("pool_required_cores", "pool_cores"),
    ):
        rows = rng.random(table.shape[:2]) < share
        picked = pairs[rng.integers(len(pairs), size=int(rows.sum()))]
        table[rows, FIELD_INDEX[required]] = picked[:, 0]
        table[rows, FIELD_INDEX[cores]] = picked[:, 1]


def assert_same(mm, rng) -> int:
    """Compare every alive node under every steering slot; count the hits."""
    found = 0
    for nid in mm.overlay.alive_ids():
        corridor_ids = [other for _, other in oracle.corridor(mm, nid)]
        visited = {nid} | {
            other for other in corridor_ids if rng.random() < 0.3
        }
        for slot in SLOTS:
            want = oracle.choose_push_target(mm, nid, visited, slot)
            assert mm._choose_push_target(nid, visited, slot) == want, (nid, slot)
            found += want is not None
    return found


@settings(max_examples=50, deadline=None)
@given(
    substrate=st.sampled_from(("can", "chord")),
    nodes=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    loaded=st.sampled_from((0, 5, 40)),
    absent=st.integers(0, 2),
    rounds=st.integers(0, 4),
    edited=st.sampled_from((0.0, 0.3, 0.8)),
)
def test_array_target_equals_the_scalar_loop(
    substrate, nodes, seed, loaded, absent, rounds, edited
):
    absent = min(absent, nodes - 1)
    mm, rng = build(substrate, nodes, seed, loaded, absent, rounds, edited)
    assert_same(mm, rng)


@pytest.mark.parametrize("substrate", ["can", "chord"])
def test_ties_and_empty_cores_are_exercised(substrate):
    """An idle fleet ties every entry at 0; GPU-less regions have no cores."""
    mm, rng = build(substrate, nodes=60, seed=3, loaded=0, absent=3, rounds=2)
    ai = mm.aggregation
    tied = inf = 0
    for nid in mm.overlay.alive_ids():
        for dim, other in oracle.corridor(mm, nid):
            cores = ai.field(other, dim, "slot_cores")
            inf += cores <= 0
            tied += ai.field(other, dim, "slot_required_cores") == 0 < cores
    assert tied > 1 and inf > 0
    assert assert_same(mm, rng) > 0


@pytest.mark.parametrize("substrate", ["can", "chord"])
def test_coreless_entries_beside_cored_ones(substrate):
    """Within one corridor, a coreless entry must not hide a cored one."""
    mm, rng = build(
        substrate, nodes=60, seed=4, loaded=5, absent=0, rounds=2, edited=0.4
    )
    ai = mm.aggregation
    mixed = 0
    for nid in mm.overlay.alive_ids():
        cores = [ai.field(o, d, "pool_cores") for d, o in oracle.corridor(mm, nid)]
        mixed += min(cores, default=1) <= 0 < max(cores, default=0)
    assert mixed > 0
    assert assert_same(mm, rng) > 0
