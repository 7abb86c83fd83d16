"""Tests for the scripted fault-injection harness."""

from dataclasses import replace

import pytest

from repro.gridsim import (
    CrashBurst,
    FaultPlan,
    FaultyGridConfig,
    FaultyGridSimulation,
    MatchmakingConfig,
)
from repro.net import NetworkSpec
from repro.obs import Tracer
from repro.workload import TINY_LOAD


def quiet_config(**kwargs):
    """Background churn disabled; only the scripted plan injects faults."""
    kwargs.setdefault("mean_time_between_failures", 1e9)
    kwargs.setdefault("mean_time_between_joins", 1e9)
    return FaultyGridConfig(
        MatchmakingConfig(replace(TINY_LOAD, jobs=60)), **kwargs
    )


class TestPlanValidation:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            CrashBurst(at=-1.0)
        with pytest.raises(ValueError):
            CrashBurst(at=0.0, count=0)

    def test_plan_validation_and_empty(self):
        # loss lives in the plan's NetworkSpec, validated there; the
        # closed interval is accepted: 1.0 is a total blackout
        assert FaultPlan(network=NetworkSpec(loss=1.0)).network.loss == 1.0
        with pytest.raises(ValueError):
            FaultPlan(network=NetworkSpec(loss=1.5))
        with pytest.raises(ValueError):
            FaultPlan(network=NetworkSpec(loss=-0.1))
        with pytest.raises(TypeError):
            FaultPlan(message_loss=0.1)
        # the default plan changes nothing: no bursts, the ideal channel
        assert FaultPlan() == FaultPlan(bursts=(), joins=(), network=None)
        assert FaultPlan().ideal_channel
        assert FaultPlan(network=NetworkSpec()).ideal_channel  # identity spec
        assert not FaultPlan(network=NetworkSpec(loss=0.1)).ideal_channel
        assert FaultPlan(bursts=(CrashBurst(at=10.0),)).ideal_channel

    def test_bursts_normalised_to_tuple(self):
        plan = FaultPlan(bursts=[CrashBurst(at=5.0), CrashBurst(at=9.0)])
        assert isinstance(plan.bursts, tuple)


class TestInjection:
    def test_burst_kills_exact_count(self):
        plan = FaultPlan(bursts=(CrashBurst(at=500.0, count=3),))
        sim = FaultyGridSimulation(quiet_config(faults=plan))
        res = sim.run()
        assert sim._injector.bursts_fired == 1
        assert sim._injector.crashes_injected == 3
        assert res.failures == 3  # background churn is off

    def test_burst_that_raises_fails_the_run(self, monkeypatch):
        plan = FaultPlan(bursts=(CrashBurst(at=500.0, count=3),))
        sim = FaultyGridSimulation(quiet_config(faults=plan))
        boom = RuntimeError("burst")

        def crash(victim_id):
            raise boom

        monkeypatch.setattr(sim, "crash_node", crash)
        with pytest.raises(RuntimeError) as raised:
            sim.run()
        assert raised.value is boom
        assert sim.env.now == 500.0 and sim._injector.bursts_fired == 0

    def test_correlated_burst_takes_a_neighborhood(self):
        plan = FaultPlan(bursts=(CrashBurst(at=500.0, count=4, correlated=True),))
        tracer = Tracer()
        victims = []
        tracer.subscribe(
            lambda ev: victims.extend(ev.fields["victims"])
            if ev.etype == "fault.burst"
            else None
        )
        sim = FaultyGridSimulation(quiet_config(faults=plan), tracer=tracer)
        neighborhoods = {
            nid: set(sim.overlay.neighbors(nid)) for nid in sim.grid_nodes
        }
        sim.run()
        assert 2 <= len(victims) <= 4
        seed = victims[0]
        assert all(v in neighborhoods[seed] for v in victims[1:])

    def test_population_floor_clips_burst(self):
        plan = FaultPlan(bursts=(CrashBurst(at=500.0, count=1000),))
        cfg = quiet_config(faults=plan)
        sim = FaultyGridSimulation(cfg)
        res = sim.run()
        floor = TINY_LOAD.nodes // 2
        assert res.final_population >= floor
        assert sim._injector.crashes_injected == TINY_LOAD.nodes - floor

    def test_message_loss_installed_on_protocol(self):
        # at construction: the protocol factory needs the channel to pick
        # its class, so there is no install step left to forget
        sim = FaultyGridSimulation(
            quiet_config(faults=FaultPlan(network=NetworkSpec(loss=0.25)))
        )
        assert sim.protocol.net.spec.loss == 0.25
        assert not FaultyGridSimulation(quiet_config()).protocol.net.attempts

    def test_seeded_plan_replays_identically(self):
        plan = FaultPlan(
            bursts=(
                CrashBurst(at=400.0, count=2),
                CrashBurst(at=900.0, count=3, correlated=True),
            ),
            network=NetworkSpec(loss=0.1),
        )
        runs = [
            FaultyGridSimulation(quiet_config(faults=plan)).run()
            for _ in range(2)
        ]
        assert runs[0].summary() == runs[1].summary()
