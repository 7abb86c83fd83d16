"""Chord maintenance protocol: convergence, detection, healing, accounting."""

import random

import pytest

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.net import NetworkSpec
from tests.chord.test_ring import ring_with

PERIOD = 60.0


def build(n=20, scheme=HeartbeatScheme.VANILLA, seed=13, succ=4, **cfg_kwargs):
    space = ResourceSpace(gpu_slots=1)
    ring = ring_with(space, succ)
    rng = random.Random(seed)
    for nid in range(n):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    cfg = ProtocolConfig(scheme=scheme, period=PERIOD, **cfg_kwargs)
    proto = ChordMaintenanceProtocol(ring, cfg)
    proto.adopt_overlay(now=0.0)
    return ring, proto


def run_rounds(proto, count, start=1):
    for r in range(start, start + count):
        proto.run_round(now=r * PERIOD)
    return start + count


@pytest.mark.parametrize(
    "scheme",
    [HeartbeatScheme.VANILLA, HeartbeatScheme.COMPACT, HeartbeatScheme.ADAPTIVE],
)
def test_quiet_ring_stays_converged(scheme):
    """Acks keep liveness evidence fresh: zero broken links, no detections."""
    ring, proto = build(scheme=scheme)
    run_rounds(proto, 8)
    assert proto.count_broken_links() == 0
    assert proto.events["failures"] == 0
    assert proto.events["claims"] == 0
    for nid in ring.members:
        assert proto.believed_successors(nid) == ring.successor_list(nid)


def test_adopt_overlay_seeds_ground_truth():
    ring, proto = build(n=15)
    for nid in ring.members:
        assert proto.believed_successors(nid) == ring.successor_list(nid)
        peers = set(proto.believed_peers(nid))
        assert set(ring.successor_list(nid)) <= peers
        assert ring.predecessor(nid) in peers


@pytest.mark.parametrize(
    "scheme",
    [HeartbeatScheme.VANILLA, HeartbeatScheme.COMPACT, HeartbeatScheme.ADAPTIVE],
)
def test_crash_is_detected_and_claimed(scheme):
    ring, proto = build(scheme=scheme)
    detections = []
    proto.on_failure_detected = lambda nid, now: detections.append((nid, now))
    run_rounds(proto, 3)
    victim = next(iter(ring.members))
    fail_time = 3 * PERIOD + 1.0
    proto.fail(victim, now=fail_time)
    run_rounds(proto, 8, start=4)
    assert proto.events["failures"] == 1
    assert proto.events["claims"] == 1
    assert victim not in ring.members  # arc merged into the heir
    assert victim not in proto.nodes
    assert proto._fail_times == {}
    assert [nid for nid, _ in detections] == [victim]
    # detected after the timeout elapsed, within a couple of rounds of it
    latency = detections[0][1] - fail_time
    assert proto.config.failure_timeout <= latency
    assert latency <= proto.config.failure_timeout + 2 * PERIOD
    ring.check_invariants()


def test_graceful_leave_hands_off_without_failure_events():
    ring, proto = build()
    run_rounds(proto, 2)
    leaver = next(iter(ring.members))
    proto.graceful_leave(leaver, now=2 * PERIOD + 1.0)
    run_rounds(proto, 4, start=3)
    assert proto.events["leaves"] == 1
    assert proto.events["failures"] == 0
    assert leaver not in ring.members
    assert leaver not in proto.nodes
    # nobody still believes in the leaver
    for nid in proto.nodes:
        assert leaver not in proto.believed_peers(nid)
    assert proto.count_broken_links() == 0


def test_join_through_protocol_integrates_newcomer():
    ring, proto = build(n=10)
    run_rounds(proto, 2)
    rng = random.Random(99)
    coord = [rng.random() for _ in range(ring.space.dims)]
    assert proto.join(100, coord, now=2 * PERIOD + 1.0)
    assert 100 in ring.members
    assert 100 in proto.nodes
    assert proto.events["joins"] == 1
    run_rounds(proto, 4, start=3)
    assert proto.count_broken_links() == 0
    assert proto.believed_successors(100) == ring.successor_list(100)


def test_join_into_dead_arc_defers_until_claimed():
    ring, proto = build(n=10)
    run_rounds(proto, 2)
    rng = random.Random(7)
    now = 2 * PERIOD + 1.0
    # find a coordinate whose owner we can kill, then join at it
    coord = [rng.random() for _ in range(ring.space.dims)]
    owner = ring.locate_owner(coord)
    proto.fail(owner, now=now)
    key = ring.keyspace.node_key(200, coord)
    if ring.successor_of_key(key) != owner:
        pytest.skip("tiebreak moved the join off the dead arc")
    assert not proto.join(200, coord, now=now + 1.0)  # deferred, not lost
    assert 200 not in ring.members
    run_rounds(proto, 8, start=3)  # detection + claim + join retry
    assert 200 in ring.members
    assert 200 in proto.nodes
    assert proto.events["joins"] == 1
    ring.check_invariants()


def test_scheme_contrast_volume_and_healing():
    """Compact cuts volume but can leave substitution gaps; adaptive heals
    them for a fraction of vanilla's byte cost."""
    results = {}
    for scheme in (
        HeartbeatScheme.VANILLA,
        HeartbeatScheme.COMPACT,
        HeartbeatScheme.ADAPTIVE,
    ):
        ring, proto = build(n=30, scheme=scheme, seed=21)
        run_rounds(proto, 4)
        now_round = 5
        rng = random.Random(5)
        victims = rng.sample(sorted(ring.members), 4)
        for i, victim in enumerate(victims):
            proto.fail(victim, now=(now_round - 1) * PERIOD + 1.0 + i)
        now_round = run_rounds(proto, 12, start=now_round)
        msgs, volume = proto.stats.totals()
        results[scheme] = (proto.count_broken_links(), volume)
        assert proto.events["claims"] == 4
    assert results[HeartbeatScheme.VANILLA][0] == 0
    assert results[HeartbeatScheme.ADAPTIVE][0] == 0
    # byte volume: compact < adaptive < vanilla
    assert results[HeartbeatScheme.COMPACT][1] < results[HeartbeatScheme.VANILLA][1]
    assert results[HeartbeatScheme.ADAPTIVE][1] < results[HeartbeatScheme.VANILLA][1]
    assert (
        results[HeartbeatScheme.COMPACT][1]
        <= results[HeartbeatScheme.ADAPTIVE][1]
    )


def test_message_loss_delays_but_does_not_break_detection():
    import numpy as np

    ring, proto = build(n=12)
    run_rounds(proto, 2)
    proto.net = NetworkSpec(loss=0.5).build(np.random.default_rng(0))
    victim = next(iter(ring.members))
    proto.fail(victim, now=2 * PERIOD + 1.0)
    run_rounds(proto, 12, start=3)
    # lossy links delay evidence, but timeouts still fire and the arc is
    # eventually claimed
    assert proto.events["claims"] >= 1
    assert victim not in ring.members
    # the closed interval is accepted: 1.0 is a total blackout
    proto.net = NetworkSpec(loss=1.0).build(np.random.default_rng(0))
    assert not proto.net.is_identity
    with pytest.raises(ValueError):
        NetworkSpec(loss=1.1)
    with pytest.raises(ValueError):
        NetworkSpec(loss=-0.1)


def test_broken_links_counts_missing_truth_neighbors():
    ring, proto = build(n=10, succ=3)
    run_rounds(proto, 2)
    assert proto.count_broken_links() == 0
    # erase one node's knowledge of its first successor
    nid = next(iter(ring.members))
    succ0 = ring.successor_list(nid)[0]
    pnode = proto.nodes[nid]
    if succ0 in pnode.known:
        del pnode.known[succ0]
        pnode.epoch += 1
    assert proto.count_broken_links() >= 1
