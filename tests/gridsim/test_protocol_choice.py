"""Each host of a maintenance protocol hands its factory the stated channel.

No simulation takes an ``engine``: CAN's factory builds one class on every
channel, whatever the scheme (table-tested in ``tests/can/test_soa.py``),
and Chord has one class.  These tests pin that the three hosts of a
maintenance protocol hand the factory the channel their configuration
states.
"""

from dataclasses import replace

import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    FaultPlan,
    FaultyGridConfig,
    FaultyGridSimulation,
    MatchmakingConfig,
)
from repro.net import NetworkSpec
from repro.workload import TINY_LOAD
from tests.service.test_core import build_service

ADAPTIVE, VANILLA = HeartbeatScheme.ADAPTIVE, HeartbeatScheme.VANILLA
IDEAL = FaultPlan()
LOSSY = FaultPlan(network=NetworkSpec(loss=0.05))

#: (scheme, plan, substrate) a run states
CASES = [
    pytest.param(ADAPTIVE, IDEAL, "can", id="adaptive-ideal"),
    pytest.param(ADAPTIVE, LOSSY, "can", id="adaptive-lossy"),
    pytest.param(VANILLA, IDEAL, "can", id="vanilla"),
    pytest.param(VANILLA, LOSSY, "can", id="vanilla-lossy"),
    pytest.param(ADAPTIVE, IDEAL, "chord", id="chord"),
]


def assert_channel(protocol, plan):
    if plan.ideal_channel:
        assert protocol.net.is_identity
    else:
        assert protocol.net.spec is plan.network


@pytest.mark.parametrize("scheme,plan,substrate", CASES)
def test_churn_simulation(scheme, plan, substrate):
    sim = ChurnSimulation(
        ChurnConfig(initial_nodes=12, scheme=scheme, plan=plan, substrate=substrate)
    )
    assert_channel(sim.protocol, plan)


@pytest.mark.parametrize("scheme,plan,substrate", CASES)
def test_faulty_grid_simulation(scheme, plan, substrate):
    sim = FaultyGridSimulation(
        FaultyGridConfig(
            MatchmakingConfig(replace(TINY_LOAD, jobs=10), substrate=substrate),
            heartbeat_scheme=scheme,
            faults=plan,
        )
    )
    # on the protocol from construction, not from run()
    assert_channel(sim.protocol, plan)


@pytest.mark.parametrize(
    "scheme,plan,substrate", [c for c in CASES if c.id == "vanilla"]
)
def test_grid_service(scheme, plan, substrate):
    # every service runs a vanilla heartbeat on CAN, and it has no fault
    # plan: its channel is always the ideal one
    _, service = build_service()
    assert service.protocol.config.scheme is scheme
    assert service.protocol.net.is_identity
