"""Scenario tests for the three matchmakers."""

import numpy as np
import pytest

from repro.can.aggregation import AggregationEngine
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model import contention
from repro.model.node import GridNode
from repro.sched import base
from repro.sched.can_het import CanHetMatchmaker
from repro.sched.can_hom import CanHomMatchmaker
from repro.sched.central import CentralMatchmaker
from repro.sim.core import Environment

from tests.conftest import cpu_job, gpu_job, make_cpu, make_gpu, make_node_spec

#: Eq. 4's stopping factor these scenarios run with (the experiments take
#: ``MatchmakingConfig.stopping_factor``)
STOPPING_FACTOR = 1.0

@pytest.fixture(autouse=True)
def no_contention(monkeypatch):
    """Co-runners add nothing to a job's duration."""
    monkeypatch.setattr(contention, "ALPHA", 0.0)


def build_world(specs, gpu_slots=1, seed=0):
    space = ResourceSpace(gpu_slots=gpu_slots)
    overlay = CanOverlay(space)
    env = Environment()
    grid = {}
    rng = np.random.default_rng(seed)
    for spec in specs:
        overlay.add_node(
            spec.node_id, space.node_coordinate(spec, float(rng.random()))
        )
        grid[spec.node_id] = GridNode(spec, env)
    agg = AggregationEngine(overlay, grid)
    agg.run_rounds(4)
    return overlay, grid, agg, env


def het_matchmaker(overlay, grid, agg, seed=1):
    return CanHetMatchmaker(
        overlay, grid, agg, np.random.default_rng(seed), STOPPING_FACTOR,
        use_acceptable_nodes=True, use_dominant_ce=True,
    )


def standard_specs():
    """A small mixed fleet: CPU-only boxes plus GPU machines."""
    return [
        make_node_spec(0, cpu=make_cpu(clock=1.0, cores=2)),
        make_node_spec(1, cpu=make_cpu(clock=2.0, cores=4)),
        make_node_spec(2, cpu=make_cpu(clock=1.5, cores=8)),
        make_node_spec(
            3, cpu=make_cpu(clock=1.0, cores=2), gpus=[make_gpu(0, clock=1.0)]
        ),
        make_node_spec(
            4, cpu=make_cpu(clock=1.2, cores=4), gpus=[make_gpu(0, clock=2.5)]
        ),
        make_node_spec(
            5, cpu=make_cpu(clock=3.0, cores=4), gpus=[make_gpu(0, clock=0.8)]
        ),
    ]


class TestCanHet:
    def test_places_on_capable_node(self):
        overlay, grid, agg, env = build_world(standard_specs())
        mm = het_matchmaker(overlay, grid, agg)
        job = gpu_job(gpu_cores=64)
        node = mm.place(job)
        assert node is not None
        assert node.capable(job)
        assert mm.stats.placed == 1

    def test_prefers_fastest_free_dominant_clock(self, monkeypatch):
        overlay, grid, agg, env = build_world(standard_specs())
        monkeypatch.setattr(base, "MAX_PUSH_HOPS", 32)
        mm = het_matchmaker(overlay, grid, agg)
        # all nodes free: among GPU nodes 3/4/5, node 4 has the fastest GPU
        placements = set()
        for _ in range(5):
            job = gpu_job(gpu_cores=32, duration=1.0)
            node = mm.place(job)
            placements.add(node.node_id)
            # do not submit: nodes stay free
        assert placements == {4}

    def test_acceptable_beats_queued(self):
        overlay, grid, agg, env = build_world(standard_specs())
        mm = het_matchmaker(overlay, grid, agg)
        # saturate node 4's GPU so it is busy but its CPU stays open
        grid[4].submit(gpu_job(gpu_cores=64, duration=1e6))
        agg.run_rounds(2)
        job = gpu_job(gpu_cores=32)
        node = mm.place(job)
        # must pick a node that can start the job now (3 or 5), not queue on 4
        assert node.node_id in (3, 5)
        assert node.is_acceptable(job)

    def test_all_busy_picks_min_score(self):
        overlay, grid, agg, env = build_world(standard_specs())
        # every GPU busy; node 4 (fast clock) has shortest effective queue
        for nid in (3, 4, 5):
            grid[nid].submit(gpu_job(gpu_cores=64, duration=1e6))
        grid[3].submit(gpu_job(gpu_cores=64, duration=1e6))  # 3 also queued
        agg.run_rounds(2)
        mm = het_matchmaker(overlay, grid, agg)
        job = gpu_job(gpu_cores=32)
        node = mm.place(job)
        assert node.node_id in (4, 5)  # never the doubly-loaded node 3

    def test_unplaceable_returns_none(self):
        overlay, grid, agg, env = build_world(standard_specs())
        mm = het_matchmaker(overlay, grid, agg)
        impossible = gpu_job(slot_index=0, gpu_cores=4096)
        assert mm.place(impossible) is None
        assert mm.stats.unplaced == 1

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            overlay, grid, agg, env = build_world(standard_specs())
            mm = het_matchmaker(overlay, grid, agg, seed=9)
            results.append(
                [mm.place(gpu_job(gpu_cores=32, duration=1.0)).node_id
                 for _ in range(6)]
            )
        assert results[0] == results[1]


class TestCanHom:
    def test_ignores_idle_gpu_behind_busy_cpu(self):
        """The motivating failure of the prior system: a node whose CPU is
        busy looks loaded even though its (fast) GPU is idle."""
        specs = [
            make_node_spec(
                0, cpu=make_cpu(clock=1.0, cores=2), gpus=[make_gpu(0, clock=3.0)]
            ),
            make_node_spec(
                1, cpu=make_cpu(clock=1.0, cores=8), gpus=[make_gpu(0, clock=0.5)]
            ),
        ]
        overlay, grid, agg, env = build_world(specs)
        # Neither node is free (one CPU core busy on each); both could start
        # a GPU job immediately.  Node 0 has the fast GPU; node 1 merely has
        # the lower *pooled* core utilisation (more CPU cores).
        grid[0].submit(cpu_job(cores=1, duration=1e6))
        grid[1].submit(cpu_job(cores=1, duration=1e6))
        agg.run_rounds(3)
        job = gpu_job(gpu_cores=32)

        hom = CanHomMatchmaker(
            overlay, grid, agg, np.random.default_rng(1), STOPPING_FACTOR
        )
        het = het_matchmaker(overlay, grid, agg, seed=1)
        hom_choice = hom.place(job)
        het_choice = het.place(job)
        # can-hom has no acceptable-node concept and no free node to grab:
        # it falls back to pooled utilisation, which favours the node with
        # more idle CPU cores — blind to its much slower GPU.
        assert hom_choice.node_id == 1
        # can-het sees the dominant CE: node 0's fast GPU is idle.
        assert het_choice.node_id == 0

    def test_places_capable_only(self):
        overlay, grid, agg, env = build_world(standard_specs())
        hom = CanHomMatchmaker(
            overlay, grid, agg, np.random.default_rng(0), STOPPING_FACTOR
        )
        job = gpu_job(gpu_cores=32)
        node = hom.place(job)
        assert node is not None and node.capable(job)


class TestCentral:
    def test_free_fastest_dominant_clock(self):
        overlay, grid, agg, env = build_world(standard_specs())
        central = CentralMatchmaker(grid)
        node = central.place(gpu_job(gpu_cores=32))
        assert node.node_id == 4  # fastest GPU clock among free nodes

    def test_acceptable_when_no_free(self):
        overlay, grid, agg, env = build_world(standard_specs())
        central = CentralMatchmaker(grid)
        for g in grid.values():  # make every node non-free
            g.submit(cpu_job(cores=1, duration=1e6))
        job = gpu_job(gpu_cores=32)
        node = central.place(job)
        assert node.is_acceptable(job)
        assert node.node_id == 4

    def test_min_score_when_all_busy(self):
        overlay, grid, agg, env = build_world(standard_specs())
        central = CentralMatchmaker(grid)
        for nid in (3, 4, 5):
            grid[nid].submit(gpu_job(gpu_cores=64, duration=1e6))
        grid[4].submit(gpu_job(gpu_cores=64, duration=1e6))
        node = central.place(gpu_job(gpu_cores=32))
        # eq1 scores: node3 1/1.0; node4 2/2.5; node5 1/0.8 -> node4 wins
        assert node.node_id == 4

    def test_none_when_no_capable(self):
        overlay, grid, agg, env = build_world(standard_specs())
        central = CentralMatchmaker(grid)
        assert central.place(gpu_job(slot_index=0, gpu_cores=9999)) is None

    def test_dead_nodes_skipped(self):
        overlay, grid, agg, env = build_world(standard_specs())
        central = CentralMatchmaker(grid)
        grid[4].fail()
        node = central.place(gpu_job(gpu_cores=32))
        assert node.node_id != 4


class TestFallbackSearch:
    def test_rare_dual_gpu_job_found_by_fallback(self):
        """A job needing two GPU types can only run on one machine in the
        grid; the push walk rarely meets it, the expanding-ring search must."""
        from repro.model.job import CERequirement, Job
        from repro.model.ce import CPU_SLOT

        specs = [
            make_node_spec(i, cpu=make_cpu(clock=1.0 + 0.1 * i, cores=2))
            for i in range(8)
        ]
        specs.append(
            make_node_spec(
                8,
                cpu=make_cpu(clock=1.1, cores=4),
                gpus=[make_gpu(0, clock=1.5), make_gpu(1, clock=1.0)],
            )
        )
        overlay, grid, agg, env = build_world(specs, gpu_slots=2)
        job = Job(
            requirements={
                "gpu0": CERequirement(cores=64),
                "gpu1": CERequirement(cores=64),
                CPU_SLOT: CERequirement(cores=1),
            },
            base_duration=100.0,
        )
        for seed in range(5):
            mm = het_matchmaker(overlay, grid, agg, seed=seed)
            node = mm.place(job)
            assert node is not None and node.node_id == 8

    def test_fallback_counted_in_stats(self):
        from repro.model.job import CERequirement, Job
        from repro.model.ce import CPU_SLOT

        specs = [
            make_node_spec(i, cpu=make_cpu(clock=1.0 + 0.1 * i, cores=2))
            for i in range(6)
        ]
        specs.append(
            make_node_spec(6, cpu=make_cpu(cores=2), gpus=[make_gpu(0)])
        )
        overlay, grid, agg, env = build_world(specs, gpu_slots=1)
        # saturate the lone GPU node so it is never acceptable
        grid[6].submit(gpu_job(gpu_cores=64, duration=1e6))
        agg.run_rounds(2)
        mm = het_matchmaker(overlay, grid, agg, seed=0)
        before = mm.stats.fallback_searches
        node = mm.place(gpu_job(gpu_cores=32))
        assert node is not None and node.node_id == 6
        # the walk may or may not have needed the fallback depending on the
        # route; but placement must never fail while a capable node exists
        assert mm.stats.unplaced == 0
        assert mm.stats.fallback_searches >= before
