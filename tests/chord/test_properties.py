"""Property suite: random join/leave/fail/route schedules on the ring.

Hypothesis drives arbitrary interleavings of membership operations and
lookups through :class:`ChordRing` (and, in a second suite, through the
maintenance protocol), asserting after *every* step that

* the structural invariants hold (sorted key ring, key<->node bijection,
  full-circle arc coverage, derived successor/predecessor/finger spot
  checks via ``check_invariants``);
* the successor list and predecessor match an independent brute-force
  computation over the sorted keys;
* routing from a random live start delivers to ``locate_owner`` whenever
  the owner is alive.
"""

import random
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.chord.ring import ChordError
from repro.chord.routing import chord_route
from tests.chord.test_ring import ring_with

SPACE = ResourceSpace(gpu_slots=1)

# one schedule step: (operation, entropy) — the interpreter maps entropy
# onto the currently-valid population so every drawn schedule is runnable
STEP = st.tuples(
    st.sampled_from(["join", "leave", "fail", "claim", "route"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def brute_successor_list(ring, node_id):
    keys = sorted(ring._ring)
    n = len(keys)
    count = min(ring.successor_list_size, n - 1)
    i = bisect_left(keys, ring.key_of(node_id))
    return tuple(ring._by_key[keys[(i + 1 + j) % n]] for j in range(count))


def check_step(ring):
    ring.check_invariants()
    if not ring.members:
        return
    # brute-force cross-check of the derived structure on a sample member
    keys = sorted(ring._ring)
    nid = ring._by_key[keys[0]]
    assert ring.successor_list(nid) == brute_successor_list(ring, nid)
    if len(keys) >= 2:
        assert ring.predecessor(nid) == ring._by_key[keys[-1]]


@settings(max_examples=60, deadline=None)
@given(schedule=st.lists(STEP, min_size=1, max_size=40), seed=st.integers(0, 2**16))
def test_ring_invariants_hold_under_any_schedule(schedule, seed):
    rng = random.Random(seed)
    ring = ring_with(SPACE, 3)
    next_id = 0
    for op, entropy in schedule:
        pick = random.Random(entropy)
        alive = sorted(set(ring.alive_ids()))
        dead = sorted(ring.dead_ids())
        if op == "join":
            coord = [rng.random() for _ in range(SPACE.dims)]
            try:
                ring.add_node(next_id, coord)
                next_id += 1
            except ChordError:
                pass  # join arc owned by a ghost: deferred in real runs
        elif op == "leave" and alive:
            ring.graceful_leave(pick.choice(alive))
        elif op == "fail" and alive:
            ring.fail(pick.choice(alive))
        elif op == "claim" and dead:
            ring.claim_zones(pick.choice(dead))
        elif op == "route" and alive:
            point = [rng.random() for _ in range(SPACE.dims)]
            owner = ring.locate_owner(point)
            start = pick.choice(alive)
            if ring.is_alive(owner):
                path = chord_route(ring, start, point)
                assert path[-1] == owner
        check_step(ring)


@settings(max_examples=20, deadline=None)
@given(
    schedule=st.lists(STEP, min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
    scheme=st.sampled_from(list(HeartbeatScheme)),
)
def test_protocol_ledger_balances_under_any_schedule(schedule, seed, scheme):
    """Drive the maintenance protocol: membership ledgers stay balanced and
    ground-truth invariants hold after every round."""
    rng = random.Random(seed)
    ring = ring_with(SPACE, 3)
    cfg = ProtocolConfig(scheme=scheme, period=60.0)
    proto = ChordMaintenanceProtocol(ring, cfg)
    proto.bootstrap(0, [rng.random() for _ in range(SPACE.dims)])
    next_id, now = 1, 0.0
    for op, entropy in schedule:
        pick = random.Random(entropy)
        now += cfg.period
        alive = sorted(set(ring.alive_ids()) - {0})
        if op == "join":
            proto.join(next_id, [rng.random() for _ in range(SPACE.dims)], now)
            next_id += 1
        elif op in ("leave", "claim") and alive:
            proto.graceful_leave(pick.choice(alive), now)
        elif op == "fail" and alive:
            proto.fail(pick.choice(alive), now)
        proto.run_round(now)
        ring.check_invariants()
        ev = proto.events
        members = 1 + ev["joins"] - ev["leaves"] - ev["claims"]
        assert len(ring.members) == members
        assert len(ring.alive_ids()) == members - (ev["failures"] - ev["claims"])
        assert set(proto.nodes) == set(ring.members)
        assert set(proto._fail_times) == ring.dead_ids()
    # run quiet rounds until every outstanding failure is claimed
    for _ in range(12):
        if not ring.dead_ids() and not proto._pending_joins:
            break
        now += cfg.period
        proto.run_round(now)
    assert ring.dead_ids() == set()
    ring.check_invariants()
