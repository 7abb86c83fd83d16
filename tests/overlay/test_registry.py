"""Substrate registry: conformance, engine gating, substrate-parametric sims."""

import numpy as np
import pytest

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.overlay import (
    MaintenanceProtocol,
    OverlaySubstrate,
    SubstrateDescriptor,
    available_substrates,
    create_overlay,
    get_substrate,
    register_substrate,
)


def test_builtins_are_listed():
    names = available_substrates()
    assert "can" in names
    assert "chord" in names


def test_unknown_substrate_names_the_alternatives():
    with pytest.raises(ValueError, match="can.*chord|chord.*can"):
        get_substrate("pastry")


@pytest.mark.parametrize("name", ["can", "chord"])
def test_descriptor_builds_conformant_objects(name):
    """Both substrates satisfy the structural protocols end to end."""
    sub = get_substrate(name)
    space = ResourceSpace(gpu_slots=1)
    overlay = sub.make_overlay(space)
    assert isinstance(overlay, OverlaySubstrate)
    cfg = ProtocolConfig(scheme=HeartbeatScheme.VANILLA, period=60.0)
    protocol = sub.make_protocol(overlay, cfg, None)
    assert isinstance(protocol, MaintenanceProtocol)
    # the full protocol surface works through the interface alone
    protocol.bootstrap(0, [0.5] * space.dims)
    protocol.join(1, [0.25] * space.dims, now=0.0)
    protocol.run_round(now=60.0)
    assert overlay.size == 2
    assert set(overlay.alive_ids()) == {0, 1}
    assert overlay.locate_owner([0.5] * space.dims) in (0, 1)
    overlay.check_invariants()
    path = sub.route(overlay, 0, [0.25] * space.dims)
    assert path[0] == 0
    result = sub.route_on_beliefs(protocol, 0, [0.25] * space.dims)
    assert result.delivered


@pytest.mark.parametrize("name", ["can", "chord"])
def test_create_overlay_shorthand(name):
    space = ResourceSpace(gpu_slots=1)
    overlay = create_overlay(name, space)
    assert isinstance(overlay, OverlaySubstrate)
    assert overlay.size == 0 or overlay.size >= 0


def test_engine_gating():
    """No descriptor names an engine; each factory builds on the stated channel."""
    from repro.net import NetworkSpec

    space = ResourceSpace(gpu_slots=1)
    adaptive = ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE)
    lossy = NetworkSpec(loss=0.1)
    for name in ("can", "chord"):
        substrate = get_substrate(name)
        assert not hasattr(substrate, "engines")
        assert not hasattr(substrate, "check_engine")
        proto = substrate.make_protocol(substrate.make_overlay(space), adaptive, None)
        assert proto.net.is_identity
        network = lossy.build(np.random.default_rng(0))
        proto = substrate.make_protocol(
            substrate.make_overlay(space), adaptive, network=network
        )
        assert proto.net is network
        with pytest.raises(TypeError):
            substrate.make_protocol(
                substrate.make_overlay(space), adaptive, None, engine="array"
            )


def test_register_substrate_overrides_and_restores():
    original = get_substrate("can")
    fake = SubstrateDescriptor(
        name="can",
        make_overlay=original.make_overlay,
        make_protocol=original.make_protocol,
        route=original.route,
        route_on_beliefs=original.route_on_beliefs,
    )
    try:
        register_substrate(fake)
        assert get_substrate("can") is fake
    finally:
        register_substrate(original)
    assert get_substrate("can") is original


@pytest.mark.parametrize("substrate", ["can", "chord"])
def test_churn_simulation_runs_on_both_substrates(substrate):
    from repro.gridsim.churn import ChurnConfig, ChurnSimulation
    from repro.gridsim.invariants import check_churn_invariants

    cfg = ChurnConfig(
        initial_nodes=24,
        gpu_slots=1,
        scheme=HeartbeatScheme.ADAPTIVE,
        heartbeat_period=60.0,
        event_gap_mean=30.0,
        duration=1_800.0,
        seed=5,
        substrate=substrate,
        invariant_check_every=3,
    )
    sim = ChurnSimulation(cfg)
    result = sim.run()
    assert result.substrate == substrate
    check_churn_invariants(sim)
    assert result.final_population > 0


@pytest.mark.parametrize("substrate", ["can", "chord"])
def test_matchmaking_simulation_runs_on_both_substrates(substrate):
    from repro.gridsim import GridSimulation, MatchmakingConfig
    from repro.gridsim.invariants import check_matchmaking_accounting
    from repro.workload import TINY_LOAD

    cfg = MatchmakingConfig(TINY_LOAD, scheme="can-het", substrate=substrate)
    result = GridSimulation(cfg).run()
    assert result.substrate == substrate
    assert result.jobs_submitted == TINY_LOAD.jobs
    check_matchmaking_accounting(result)
    assert result.started > 0


def test_substrate_config_validation():
    from repro.gridsim.churn import ChurnConfig

    with pytest.raises(ValueError, match="unknown substrate"):
        ChurnConfig(initial_nodes=10, substrate="kademlia")
    # no substrate takes an engine any more: the field is gone, not gated
    with pytest.raises(TypeError, match="engine"):
        ChurnConfig(initial_nodes=10, substrate="chord", engine="array")
