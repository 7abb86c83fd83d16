"""Chord routing: delivery, hop growth, dead-finger handling, beliefs."""

import math
import random

import pytest

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.chord.ring import ChordError, ChordRing
from repro.chord.routing import chord_route, chord_route_on_beliefs

from tests.chord.test_ring import make_ring


def test_route_delivers_to_owner_from_every_start():
    ring, rng = make_ring(n=25, seed=11)
    point = [rng.random() for _ in range(ring.space.dims)]
    owner = ring.locate_owner(point)
    for start in ring.members:
        path = chord_route(ring, start, point)
        assert path[0] == start
        assert path[-1] == owner
        assert len(path) == len(set(path))  # no revisits


def test_route_hops_scale_logarithmically():
    """Mean hops stay within a small multiple of log2(n)."""
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(2)
    n = 256
    for nid in range(n):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    hops = []
    for _ in range(200):
        start = rng.randrange(n)
        point = [rng.random() for _ in range(space.dims)]
        hops.append(len(chord_route(ring, start, point)) - 1)
    mean = sum(hops) / len(hops)
    assert mean <= 2.0 * math.log2(n)
    assert max(hops) <= 4.0 * math.log2(n)


def test_route_skips_dead_members():
    ring, rng = make_ring(n=20, seed=4)
    point = [rng.random() for _ in range(ring.space.dims)]
    owner = ring.locate_owner(point)
    victims = [nid for nid in ring.members if nid != owner][:6]
    for nid in victims:
        ring.fail(nid)
    start = next(
        nid for nid in ring.members if nid not in victims and nid != owner
    )
    path = chord_route(ring, start, point)
    assert path[-1] == owner
    assert not set(path[1:]) & set(victims)


def test_route_to_ghost_owner_raises():
    ring, rng = make_ring(n=10, seed=6)
    point = [rng.random() for _ in range(ring.space.dims)]
    owner = ring.locate_owner(point)
    ring.fail(owner)
    start = next(nid for nid in ring.members if nid != owner)
    with pytest.raises(ChordError):
        chord_route(ring, start, point)


def warmed_protocol(n=20, seed=8, rounds=6):
    ring, rng = make_ring(n=n, seed=seed)
    cfg = ProtocolConfig(scheme=HeartbeatScheme.VANILLA, period=60.0)
    proto = ChordMaintenanceProtocol(ring, cfg)
    proto.adopt_overlay(now=0.0)
    for r in range(1, rounds + 1):
        proto.run_round(now=r * cfg.period)
    return ring, proto, rng


def test_belief_route_matches_truth_on_converged_ring():
    ring, proto, rng = warmed_protocol()
    for _ in range(40):
        start = rng.choice(list(ring.members))
        point = [rng.random() for _ in range(ring.space.dims)]
        result = chord_route_on_beliefs(proto, start, point)
        assert result.delivered
        assert result.path[-1] == ring.locate_owner(point)
        assert result.hops == len(result.path) - 1


def test_belief_route_fails_when_beliefs_are_emptied():
    ring, proto, rng = warmed_protocol(n=8)
    start = next(iter(ring.members))
    # wipe the start node's beliefs: it knows nobody, so no hop exists
    pnode = proto.nodes[start]
    pnode.known.clear()
    pnode.epoch += 1
    point = [rng.random() for _ in range(ring.space.dims)]
    if ring.locate_owner(point) != start:
        result = chord_route_on_beliefs(proto, start, point)
        assert not result.delivered
