"""What a run states (scheme, channel, substrate) decides the protocol class.

No simulation takes an ``engine``: CAN's factory picks the array class on
the ideal channel, whatever the scheme, and the object class on any other
(the rule itself is table-tested in ``tests/can/test_soa.py``); Chord has
one class.  These tests pin that the three hosts of a maintenance protocol hand
the factory the channel their configuration states.
"""

from dataclasses import replace

import pytest

from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme
from repro.can.soa import ArrayHeartbeatProtocol
from repro.chord.protocol import ChordMaintenanceProtocol
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

#: (scheme, plan, substrate) -> the class the run must construct
CASES = [
    pytest.param(ADAPTIVE, IDEAL, "can", ArrayHeartbeatProtocol, id="adaptive-ideal"),
    pytest.param(ADAPTIVE, LOSSY, "can", HeartbeatProtocol, id="adaptive-lossy"),
    pytest.param(VANILLA, IDEAL, "can", ArrayHeartbeatProtocol, id="vanilla"),
    pytest.param(VANILLA, LOSSY, "can", HeartbeatProtocol, id="vanilla-lossy"),
    pytest.param(ADAPTIVE, IDEAL, "chord", ChordMaintenanceProtocol, id="chord"),
]


def assert_channel(protocol, plan):
    if plan.ideal_channel:
        assert protocol.net.is_identity
    else:
        assert protocol.net.spec is plan.network


@pytest.mark.parametrize("scheme,plan,substrate,want", CASES)
def test_churn_simulation(scheme, plan, substrate, want):
    sim = ChurnSimulation(
        ChurnConfig(initial_nodes=12, scheme=scheme, plan=plan, substrate=substrate)
    )
    assert type(sim.protocol) is want
    assert_channel(sim.protocol, plan)


@pytest.mark.parametrize("scheme,plan,substrate,want", CASES)
def test_faulty_grid_simulation(scheme, plan, substrate, want):
    sim = FaultyGridSimulation(
        FaultyGridConfig(
            MatchmakingConfig(replace(TINY_LOAD, jobs=10), substrate=substrate),
            heartbeat_scheme=scheme,
            faults=plan,
        )
    )
    assert type(sim.protocol) is want
    # on the protocol from construction, not from run()
    assert_channel(sim.protocol, plan)


@pytest.mark.parametrize(
    "scheme,plan,substrate,want", [c for c in CASES if c.id == "vanilla"]
)
def test_grid_service(scheme, plan, substrate, want):
    # every service runs a vanilla heartbeat on CAN, and it has no fault
    # plan: its channel is always the ideal one
    _, service = build_service()
    assert service.protocol.config.scheme is scheme
    assert type(service.protocol) is want
    assert service.protocol.net.is_identity
