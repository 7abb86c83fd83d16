"""Ground-truth ChordRing: membership, arcs, derived structure, errors."""

import random
from bisect import bisect_left

import pytest

from repro.can.space import ResourceSpace
from repro.chord import ring as ring_module
from repro.chord.keyspace import RING_SIZE
from repro.chord.ring import FINGER_EXPONENTS, ChordError, ChordRing


def ring_with(space, successors):
    """A ring whose members keep ``successors`` ring successors."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ring_module, "SUCCESSOR_LIST_SIZE", successors)
        return ChordRing(space)


def make_ring(n=24, seed=3, succ=4, space=None):
    space = space or ResourceSpace(gpu_slots=2)
    ring = ring_with(space, succ)
    rng = random.Random(seed)
    for nid in range(n):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    return ring, rng


def brute_owner(ring, key):
    keys = sorted(m.key for m in ring.members.values())
    i = bisect_left(keys, key)
    k = keys[0] if i == len(keys) else keys[i]
    return next(m.node_id for m in ring.members.values() if m.key == k)


def test_bootstrap_and_join_results():
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    first = ring.add_node(0, [0.5] * space.dims)
    assert first.splitter_id is None
    second = ring.add_node(1, [0.25] * space.dims)
    assert second.splitter_id == 0  # only prior member owns every arc
    assert ring.size == 2
    ring.check_invariants()


def test_invariants_hold_through_membership_churn():
    ring, rng = make_ring(n=30)
    ring.check_invariants()
    for nid in (3, 11, 19):
        ring.graceful_leave(nid)
        ring.check_invariants()
    for nid in (5, 23):
        ring.fail(nid)
        ring.check_invariants()
        assert nid in ring.dead_ids()
    for nid in (5, 23):
        ring.claim_zones(nid)
        ring.check_invariants()
    assert ring.dead_ids() == set()
    assert ring.size == 25


def test_locate_owner_matches_brute_force():
    ring, rng = make_ring(n=40, seed=9)
    for _ in range(100):
        point = [rng.random() for _ in range(ring.space.dims)]
        key = ring.keyspace.point_key(point)
        assert ring.locate_owner(point) == brute_owner(ring, key)


def test_successor_list_and_predecessor_follow_ring_order():
    ring, _ = make_ring(n=12, succ=4)
    order = [ring._by_key[k] for k in ring._ring]
    n = len(order)
    for i, nid in enumerate(order):
        expect = tuple(order[(i + 1 + j) % n] for j in range(4))
        assert ring.successor_list(nid) == expect
        assert ring.predecessor(nid) == order[(i - 1) % n]


def test_fingers_are_successors_of_power_of_two_offsets():
    ring, _ = make_ring(n=32)
    for nid in list(ring.members)[:8]:
        key = ring.key_of(nid)
        expect, seen = [], {nid}
        for e in FINGER_EXPONENTS:
            t = ring.successor_of_key((key + (1 << e)) % RING_SIZE)
            if t not in seen:
                seen.add(t)
                expect.append(t)
        assert ring.fingers(nid) == tuple(expect)
        # fingers + successor list + predecessor = routing neighbors
        nbrs = set(ring.successor_list(nid)) | set(expect)
        nbrs.add(ring.predecessor(nid))
        nbrs.discard(nid)
        assert ring.neighbors(nid) == nbrs


def test_neighbors_along_filters_by_coordinate():
    ring, _ = make_ring(n=20)
    nid = next(iter(ring.members))
    own = ring.coordinate(nid)
    for dim in (0, ring.space.dims - 1):
        up = ring.neighbors_along(nid, dim)
        for other in ring.neighbors(nid):
            theirs = ring.coordinate(other)[dim]
            assert (other in up) == (theirs > own[dim])
            # the +1 view from the other node sees us iff we lie above it
            if nid in ring.neighbors(other):
                assert (nid in ring.neighbors_along(other, dim)) == (theirs < own[dim])


def test_takeover_target_is_first_alive_successor():
    ring, _ = make_ring(n=10, succ=3)
    nid = next(iter(ring.members))
    succ = ring.successor_list(nid)
    assert ring.takeover_targets(nid) == {succ[0]}
    ring.fail(succ[0])
    assert ring.takeover_targets(nid) == {succ[1]}


def test_leave_and_claim_hand_arc_to_successor():
    ring, _ = make_ring(n=8, succ=2)
    nid = next(iter(ring.members))
    heir = ring.successor_list(nid)[0]
    key = ring.key_of(nid)
    transfers = ring.graceful_leave(nid)
    assert len(transfers) == 1
    t = transfers[0]
    assert (t.from_node, t.to_node, t.hi_key) == (nid, heir, key)
    # the heir now owns the vacated arc
    assert ring.successor_of_key(key) == heir


def test_join_into_dead_arc_is_rejected_until_claimed():
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(5)
    for nid in range(6):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    # find a coordinate owned by a node, kill the owner, try to join there
    coord = [rng.random() for _ in range(space.dims)]
    owner = ring.locate_owner(coord)
    ring.fail(owner)
    key = ring.keyspace.node_key(99, coord)
    if ring.successor_of_key(key) == owner:  # tiebreak may shift the arc
        with pytest.raises(ChordError, match="dead node"):
            ring.add_node(99, coord)
        ring.claim_zones(owner)
        ring.add_node(99, coord)  # claimed arc accepts the join
        ring.check_invariants()


def test_error_paths():
    ring, _ = make_ring(n=4)
    nid = next(iter(ring.members))
    with pytest.raises(ChordError, match="already present"):
        ring.add_node(nid, [0.5] * ring.space.dims)
    with pytest.raises(ChordError, match="unknown node"):
        ring.key_of(10_000)
    with pytest.raises(ChordError, match="has not failed"):
        ring.claim_zones(nid)
    ring.fail(nid)
    with pytest.raises(ChordError, match="already failed"):
        ring.fail(nid)
    with pytest.raises(ChordError, match="already failed"):
        ring.graceful_leave(nid)


def test_key_collision_probe_keeps_bijection():
    """Same node re-keyed by linear probe when node_key collides."""
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    coord = [0.5] * space.dims
    ring.add_node(0, coord)
    # co-located nodes rely on the id tiebreak (and the linear probe as a
    # last resort) to keep the key -> node map a bijection
    for nid in range(1, 50):
        ring.add_node(nid, coord)
    keys = [m.key for m in ring.members.values()]
    assert len(set(keys)) == len(keys)
    ring.check_invariants()
