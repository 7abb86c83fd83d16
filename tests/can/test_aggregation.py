"""Unit tests for per-dimension load aggregation."""

import numpy as np
import pytest

from repro.can.aggregation import FIELDS, AggregationEngine
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model.node import GridNode
from repro.sim.core import Environment
from repro.workload.nodes import generate_node_specs

from tests.conftest import cpu_job, make_cpu, make_node_spec

IDX = {name: i for i, name in enumerate(FIELDS)}


def line_overlay(n=4):
    """n nodes in a row along cpu.clock (other dims equal except virtual)."""
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    env = Environment()
    grid = {}
    for i in range(n):
        clock = 0.5 + 3.0 * (i + 0.5) / n  # spread along cpu.clock
        spec = make_node_spec(i, cpu=make_cpu(clock=clock, cores=4))
        coord = space.node_coordinate(spec, virtual=0.5)
        overlay.add_node(i, coord)
        grid[i] = GridNode(spec, env)
    return overlay, grid, env


class TestAggregationEngine:
    def test_own_record_before_propagation(self):
        overlay, grid, _ = line_overlay(4)
        engine = AggregationEngine(overlay, grid)
        ai = engine.advertised(0, 0)
        assert ai[IDX["num_nodes"]] == 1.0
        assert ai[IDX["num_free"]] == 1.0
        assert ai[IDX["slot_cores"]] == 4.0

    def test_corridor_length_converges(self):
        overlay, grid, _ = line_overlay(4)
        engine = AggregationEngine(overlay, grid)
        clock_dim = overlay.space.labels().index("cpu.clock")
        engine.run_rounds(6)
        # the lowest node sees the whole corridor beyond it
        counts = [
            engine.field(i, clock_dim, "num_nodes") for i in range(4)
        ]
        # outermost node counts only itself; counts decrease outward
        order = np.argsort([overlay.coordinate(i)[clock_dim] for i in range(4)])
        sorted_counts = [counts[i] for i in order]
        assert sorted_counts == sorted(sorted_counts, reverse=True)
        assert sorted_counts[-1] == pytest.approx(1.0)
        assert sorted_counts[0] == pytest.approx(4.0, abs=0.5)

    def test_load_shows_up_in_aggregates(self):
        overlay, grid, env = line_overlay(4)
        engine = AggregationEngine(overlay, grid)
        grid[2].submit(cpu_job(cores=3, duration=1e6))
        engine.run_rounds(4)
        clock_dim = overlay.space.labels().index("cpu.clock")
        # some node's advertised required-cores along the corridor reflects it
        total = sum(
            engine.field(i, clock_dim, "slot_required_cores") for i in range(4)
        )
        assert total > 0
        assert engine.field(2, clock_dim, "num_free") < sum(
            engine.field(i, clock_dim, "num_free") for i in (0, 1)
        ) + 1  # node 2 is not free

    def test_pool_fields_track_all_cores(self):
        overlay, grid, _ = line_overlay(3)
        engine = AggregationEngine(overlay, grid)
        engine.run_rounds(1)
        ai = engine.advertised(0, 0)
        assert ai[IDX["pool_cores"]] >= ai[IDX["slot_cores"]]

    def test_topology_change_resets_and_recovers(self):
        overlay, grid, env = line_overlay(4)
        engine = AggregationEngine(overlay, grid)
        engine.run_rounds(3)
        # a new node joins -> topology version changes
        spec = make_node_spec(99, cpu=make_cpu(clock=2.2, cores=2))
        overlay.add_node(99, overlay.space.node_coordinate(spec, 0.77))
        grid[99] = GridNode(spec, env)
        engine.run_rounds(3)
        ai = engine.advertised(99, 0)
        assert ai[IDX["num_nodes"]] >= 1.0

    def test_a_crash_leaves_far_rows_alone(self):
        """A crash at the high end of a 200-node grid: after the next step a
        node at the low end, none of whose neighbors died, advertises what
        it would have without the crash, on every dimension."""

        def converged():
            rng = np.random.default_rng(5)
            space = ResourceSpace(gpu_slots=1)
            overlay = CanOverlay(space)
            env = Environment()
            grid = {}
            for spec in generate_node_specs(200, 1, rng):
                overlay.add_node(
                    spec.node_id, space.node_coordinate(spec, float(rng.random()))
                )
                grid[spec.node_id] = GridNode(spec, env)
            for node_id in range(0, 200, 3):
                grid[node_id].submit(cpu_job(duration=1e6))
            engine = AggregationEngine(overlay, grid)
            engine.run_rounds(8)
            return overlay, grid, engine

        overlay, grid, engine = converged()
        _, _, untouched = converged()
        by_corner = sorted(grid, key=lambda nid: sum(overlay.coordinate(nid)))
        victim = by_corner[-1]
        far = next(
            nid for nid in by_corner if victim not in overlay.neighbors(nid)
        )
        overlay.fail(victim)
        grid.pop(victim).fail()
        engine.step()
        untouched.step()
        dims = range(overlay.space.dims)
        for d in dims:
            assert np.array_equal(
                engine.advertised(far, d), untouched.advertised(far, d)
            )
        # and what it advertises is more than its own record
        assert max(engine.field(far, d, "num_nodes") for d in dims) > 2.0

    def test_unknown_node_raises(self):
        overlay, grid, _ = line_overlay(2)
        engine = AggregationEngine(overlay, grid)
        with pytest.raises(KeyError):
            engine.advertised(1234, 0)

    def test_rounds_counted(self):
        overlay, grid, _ = line_overlay(2)
        engine = AggregationEngine(overlay, grid)
        engine.run_rounds(5)
        assert engine.rounds_run == 5
