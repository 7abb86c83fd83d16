"""Cross-module integration tests: the pieces composed end to end."""

import numpy as np
import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    GridSimulation,
    MatchmakingConfig,
)
from repro.workload import TINY_LOAD
from tests.gridsim.test_metrics import jains_fairness


class TestMatchmakingIntegration:
    @pytest.fixture(scope="class")
    def het_run(self):
        sim = GridSimulation(MatchmakingConfig(TINY_LOAD, scheme="can-het"))
        result = sim.run()
        return sim, result

    def test_every_started_job_ran_on_capable_node(self, het_run):
        sim, _ = het_run
        for job in sim.jobs:
            if job.run_node_id is not None:
                node = sim.grid_nodes[job.run_node_id]
                assert node.capable(job)

    def test_job_timeline_ordering(self, het_run):
        sim, _ = het_run
        for job in sim.jobs:
            if job.finish_time is None:
                continue
            assert job.submit_time <= job.enqueue_time <= job.start_time
            assert job.start_time < job.finish_time

    def test_execution_scaled_by_dominant_clock(self, het_run):
        sim, _ = het_run
        for job in sim.jobs:
            if job.finish_time is None:
                continue
            node = sim.grid_nodes[job.run_node_id]
            clock = node.dominant_clock(job)
            wall = job.finish_time - job.start_time
            # wall time in [base/clock, base/clock * max contention factor]
            base = job.base_duration / clock
            assert base - 1e-6 <= wall <= base * 2.5 + 1e-6

    def test_nodes_end_idle(self, het_run):
        sim, _ = het_run
        assert all(n.is_free() for n in sim.grid_nodes.values())

    def test_completed_matches_submitted(self, het_run):
        sim, result = het_run
        completed = sum(n.completed_jobs for n in sim.grid_nodes.values())
        assert completed == result.jobs_submitted - result.unplaced_jobs

    def test_load_reasonably_spread(self, het_run):
        sim, _ = het_run
        per_node = np.array(
            [n.completed_jobs for n in sim.grid_nodes.values()], dtype=float
        )
        assert jains_fairness(per_node) > 0.2

    def test_aggregation_ran_during_simulation(self, het_run):
        sim, _ = het_run
        assert sim.aggregation.rounds_run > 3


class TestChurnIntegration:
    def test_self_stabilization_after_churn_stops(self):
        """Run high churn, then a quiet tail: vanilla and adaptive converge
        back to zero broken links; compact keeps its scar tissue."""
        residual = {}
        for scheme in HeartbeatScheme:
            cfg = ChurnConfig(
                initial_nodes=60,
                gpu_slots=1,
                scheme=scheme,
                heartbeat_period=60.0,
                event_gap_mean=12.0,
                leave_mode="fail",
                duration=2_400.0,
            )
            sim = ChurnSimulation(cfg)
            sim.bootstrap_population()
            sim.env.process(sim._round_process(), name="rounds")
            sim.env.process(sim._event_process(), name="events")
            sim.env.run(until=cfg.duration)
            # quiet tail: ten more rounds with no churn at all
            t = sim.env.now
            for i in range(1, 11):
                sim.protocol.run_round(t + i * cfg.heartbeat_period)
            residual[scheme] = sim.protocol.count_broken_links()
        assert residual[HeartbeatScheme.VANILLA] == 0
        assert residual[HeartbeatScheme.ADAPTIVE] <= 2
        assert residual[HeartbeatScheme.COMPACT] >= max(
            residual[HeartbeatScheme.VANILLA],
            residual[HeartbeatScheme.ADAPTIVE],
        )

    def test_overlay_invariants_survive_protocol_churn(self):
        cfg = ChurnConfig(
            initial_nodes=50,
            gpu_slots=1,
            scheme=HeartbeatScheme.ADAPTIVE,
            heartbeat_period=60.0,
            event_gap_mean=20.0,
            duration=2_000.0,
        )
        sim = ChurnSimulation(cfg)
        sim.run()
        sim.overlay.check_invariants()

    def test_believed_tables_subset_sanity(self):
        """A believed entry either is a true neighbor, or a recently-changed
        or dead node awaiting timeout — never an arbitrary stranger with
        up-to-date state."""
        cfg = ChurnConfig(
            initial_nodes=50,
            gpu_slots=1,
            scheme=HeartbeatScheme.VANILLA,
            heartbeat_period=60.0,
            event_gap_mean=25.0,
            duration=1_800.0,
        )
        sim = ChurnSimulation(cfg)
        sim.run()
        overlay, proto = sim.overlay, sim.protocol
        for nid, pnode in proto.nodes.items():
            if not overlay.is_alive(nid):
                continue
            truth = overlay.neighbors(nid)
            for other in pnode.table.ids():
                if other in truth:
                    continue
                rec = pnode.table.get(other)
                current = (
                    proto.nodes[other].own_record(overlay)
                    if overlay.is_alive(other) and other in proto.nodes
                    else None
                )
                stale_or_dead = current is None or rec.version < current.version
                assert stale_or_dead, (
                    f"{nid} believes non-neighbor {other} with fresh state"
                )
