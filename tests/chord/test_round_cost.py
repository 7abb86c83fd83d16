"""Chord's round pays per sender turn, per requester and per ring change.

Each shortcut the round takes is pinned here against what it replaced,
written out longhand (as ``oracle_has_gap`` is for CAN's coverage kernel):

* a requester's full-update replies land together and take one gap
  verdict (``_land_replies``) — against the reply-by-reply landing with a
  verdict after each reply (:func:`land_reply_by_reply`);
* the ring's link table (``ChordRing.live_links``) — against the per-node
  successor-list and predecessor lookups (:func:`truth_neighbors`);
* the sender's ack is a plain stamp — because after ``_derived`` every
  target is a known id;
* count guards on full derivations while replies land and on table
  rebuilds, and the broken-link count after a reply batch rebuilt a
  ``known`` dict.
"""

import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol, ChordProtocolNode
from repro.chord.ring import ChordError, ChordRing
from tests.chord.test_protocol import PERIOD, build, run_rounds
from tests.chord.test_ring import ring_with
from tests.overlay.oracle import missing_neighbors, oracle

SPACE = ResourceSpace(gpu_slots=1)
NOW = 10 * PERIOD


class EventLog:
    """The slice of a tracer the protocol emits through."""

    def __init__(self):
        self.events = []

    def emit(self, now, kind, **fields):
        self.events.append((now, kind, sorted(fields.items())))


def land_reply_by_reply(proto, receiver, payloads, now):
    """The landing ``_land_replies`` replaced: per reply, the responder is
    heard, each entry gossiped on its own, then the gap verdict is taken."""
    for responder_id, snapshot in payloads:
        proto._hear(receiver, responder_id, now)
        for nid, heard_at in snapshot.items():
            proto._absorb(receiver, {nid: heard_at})
        if not proto._detects_gap(receiver.node_id):
            if proto.tracer is not None and (
                receiver.gap_attempts or receiver.gap_dirty
            ):
                proto.tracer.emit(now, "hb.gap_repaired", node=receiver.node_id)
            receiver.gap_attempts = 0
            receiver.gap_dirty = False


def truth_neighbors(ring, node_id):
    """The per-node lookup the link table replaced: alive successors plus
    the predecessor if alive."""
    truth = {nid for nid in ring.successor_list(node_id) if ring.is_alive(nid)}
    pred = ring.predecessor(node_id)
    if pred is not None and ring.is_alive(pred):
        truth.add(pred)
    return truth


# ------------------------------------------------- (i) a requester's batch --
def reply_ring(detection, n, succ, ghosts, departed, seed):
    """A ring of ``n`` whose protocol knows every id's key, then ``ghosts``
    members crashed and ``departed`` more crashed and claimed: believed
    ids may be alive, dead-but-unclaimed or gone from the ring."""
    rng = random.Random(seed)
    ring = ring_with(SPACE, succ)
    for nid in range(n):
        ring.add_node(nid, [rng.random() for _ in range(SPACE.dims)])
    cls = ChordMaintenanceProtocol
    proto = (oracle(cls) if detection == "oracle" else cls)(
        ring,
        ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD),
        tracer=EventLog(),
    )
    proto.adopt_overlay(now=0.0)
    victims = rng.sample(range(1, n), ghosts + departed)
    for nid in victims:
        ring.fail(nid)
    for nid in victims[ghosts:]:
        ring.claim_zones(nid)
    return proto


STAMPS = st.integers(0, int(NOW)).map(float)


@settings(max_examples=150, deadline=None)
@given(
    detection=st.sampled_from(["coverage", "oracle"]),
    n=st.integers(3, 28),
    succ=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_batched_landing_equals_reply_by_reply(detection, n, succ, seed, data):
    ghosts = data.draw(st.integers(0, (n - 1) // 3))
    departed = data.draw(st.integers(0, (n - 1) // 3))
    ids = st.integers(0, n - 1)
    receiver_id = 0  # never a victim
    state = dict(
        known=data.draw(st.dictionaries(ids.filter(bool), STAMPS, max_size=n)),
        gap_dirty=data.draw(st.booleans()),
        gap_attempts=data.draw(st.integers(0, 2)),
    )
    payloads = data.draw(
        st.lists(
            st.tuples(ids.filter(bool), st.dictionaries(ids, STAMPS, max_size=n)),
            min_size=1,
            max_size=6,
        )
    )
    seen = []
    for land in ("batched", "one by one"):
        proto = reply_ring(detection, n, succ, ghosts, departed, seed)
        receiver = proto.nodes[receiver_id] = ChordProtocolNode(receiver_id)
        receiver.known = dict(state["known"])
        receiver.gap_dirty = state["gap_dirty"]
        receiver.gap_attempts = state["gap_attempts"]
        if land == "batched":
            proto._land_replies(receiver, payloads, NOW)
        else:
            land_reply_by_reply(proto, receiver, payloads, NOW)
        seen.append(
            (
                list(receiver.known.items()),  # ids, stamps and their order
                receiver.gap_dirty,
                receiver.gap_attempts,
                proto.tracer.events,
                proto._derived(receiver)[:4],
            )
        )
    assert seen[0] == seen[1]


# ----------------------------------------------------- (ii) the link table --
STEP = st.tuples(
    st.sampled_from(["join", "join", "leave", "fail", "claim"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(
    succ=st.integers(1, 5),
    schedule=st.lists(STEP, min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_link_table_equals_per_node_lookups(succ, schedule, seed):
    """After every join / fail / claim / leave — rings of one, two, and
    ``successor_list_size + 1`` members included, where the predecessor is
    also a successor — the table names each alive member's truth links
    once each, and is rebuilt exactly when the ring changed."""
    rng = random.Random(seed)
    ring = ring_with(SPACE, succ)
    next_id = 0
    table = ring.live_links()
    for op, entropy in schedule:
        pick = random.Random(entropy)
        alive = sorted(ring.alive_ids())
        dead = sorted(ring.dead_ids())
        version = ring.topology_version
        if op == "join":
            try:
                ring.add_node(next_id, [rng.random() for _ in range(SPACE.dims)])
                next_id += 1
            except ChordError:
                pass  # the arc belongs to a ghost
        elif op == "leave" and alive:
            ring.graceful_leave(pick.choice(alive))
        elif op == "fail" and alive:
            ring.fail(pick.choice(alive))
        elif op == "claim" and dead:
            ring.claim_zones(pick.choice(dead))
        before, table = table, ring.live_links()
        assert (table is before) == (ring.topology_version == version)
        assert table.keys() == set(ring.alive_ids())
        for node_id, links in table.items():
            assert len(set(links)) == len(links)
            assert set(links) == truth_neighbors(ring, node_id)


# ---------------------------------------------- (iii) the ack never inserts --
@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(list(HeartbeatScheme)),
    schedule=st.lists(STEP, min_size=1, max_size=10),
    seed=st.integers(0, 2**16),
)
def test_targets_are_known_after_every_derivation(scheme, schedule, seed):
    """The exchange stamps the sender's evidence of an acking target with a
    plain store: that is exact only while every live sender's turn starts
    with ``_derived`` and ``derived.targets`` are all known ids when it
    returns."""
    rng = random.Random(seed)
    ring, proto = build(n=12, scheme=scheme, seed=seed, succ=3)
    inner_derived, inner_exchange = proto._derived, proto._exchange_heartbeats
    checked, turns = [0], []

    def derived(pnode):
        structure = inner_derived(pnode)
        assert set(structure.targets) <= pnode.known.keys()
        checked[0] += 1
        if turns:
            turns[-1].add(pnode.node_id)
        return structure

    def exchange(now):
        turns.append(set())
        inner_exchange(now)
        assert turns.pop() == set(ring.alive_ids())

    proto._derived, proto._exchange_heartbeats = derived, exchange
    next_id, now = 100, PERIOD
    for op, entropy in schedule:
        pick = random.Random(entropy)
        alive = sorted(ring.alive_ids())
        if op == "join":
            proto.join(next_id, [rng.random() for _ in range(SPACE.dims)], now)
            next_id += 1
        elif op in ("leave", "claim") and len(alive) > 2:
            proto.graceful_leave(pick.choice(alive), now)
        elif op == "fail" and len(alive) > 2:
            proto.fail(pick.choice(alive), now)
        now += PERIOD
        proto.run_round(now)
    run_rounds(proto, 4, start=int(now // PERIOD) + 1)
    assert checked[0]


# ------------------------------------------------------- (iv) count guards --
def test_landing_derives_at_most_once_per_requester():
    """200 adaptive nodes that joined one by one all request repair in the
    first round and land 1 484 replies in the second.  Landing used to
    re-derive after every reply: 923 full derivations in that round."""
    ring = ChordRing(SPACE)
    proto = ChordMaintenanceProtocol(
        ring, ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD)
    )
    rng = random.Random(5)
    proto.bootstrap(0, [rng.random() for _ in range(SPACE.dims)])
    for nid in range(1, 200):
        proto.join(nid, [rng.random() for _ in range(SPACE.dims)], 0.0)
    rnd = run_rounds(proto, 1)
    requesters = len({r for r, _ in proto._reply_queue})
    assert len(proto._reply_queue) > requesters == 200
    landing, full = [False], [0]
    deliver, compute = proto._deliver_replies, proto._compute_derived

    def counted_deliver(now):
        landing[0] = True
        deliver(now)
        landing[0] = False

    def counted_compute(pnode):
        full[0] += landing[0]
        return compute(pnode)

    proto._deliver_replies = counted_deliver
    proto._compute_derived = counted_compute
    run_rounds(proto, 1, start=rnd)
    assert 0 < full[0] <= requesters


def test_a_round_without_a_ring_change_rebuilds_no_table():
    ring, proto = build(n=60, scheme=HeartbeatScheme.ADAPTIVE)
    rnd = run_rounds(proto, 2)
    table, version = ring.live_links(), ring.topology_version
    run_rounds(proto, 3, start=rnd)
    assert ring.topology_version == version
    assert ring.live_links() is table
    proto.fail(sorted(ring.members)[3], now=(rnd + 3) * PERIOD - 1.0)
    assert ring.live_links() is not table


# ------------------------------------------ (v) a rebuilt dict is the dict --
def test_broken_links_read_the_dict_a_batch_rebuilt():
    ring, proto = build(n=60, scheme=HeartbeatScheme.ADAPTIVE)
    rnd = run_rounds(proto, 3)
    assert proto.count_broken_links() == 0
    node_id = sorted(ring.members)[0]
    pnode = proto.nodes[node_id]
    old = pnode.known
    # everyone, heard long ago: the prune keeps only the peers it had
    stale = {nid: 0.0 for nid in ring.members}
    proto._land_replies(pnode, [(nid, stale) for nid in old], rnd * PERIOD)
    assert pnode.known is not old
    assert proto.count_broken_links() == 0
    successor = ring.live_links()[node_id][0]
    proto._forget(pnode, successor)
    assert proto.count_broken_links() == 1
    assert missing_neighbors(proto, node_id) == {successor}


# ------------------------------------------------ hash-seed independence --
def lossy_adaptive_run():
    """The Chord ``lossy.adaptive`` golden case, plus what it exercised:
    late landings, reply batches, and reverse-index entries of departed
    holders.  Printed as JSON for :func:`test_lossy_adaptive_ignores_the_hash_seed`."""
    from tests.chord.test_maintenance_goldens import run_case

    seen = {"late": 0, "batches": 0, "replies": 0, "holders_dropped": 0}
    cls = ChordMaintenanceProtocol
    land_late, land_replies, drop = cls._land_late, cls._land_replies, cls._drop_node

    def late(self, *args):
        seen["late"] += 1
        return land_late(self, *args)

    def replies(self, receiver, payloads, now):
        seen["batches"] += 1
        seen["replies"] += len(payloads)
        return land_replies(self, receiver, payloads, now)

    def dropped(self, node_id):
        seen["holders_dropped"] += sum(
            node_id in holders for holders in self._stored_in.values()
        )
        return drop(self, node_id)

    cls._land_late, cls._land_replies, cls._drop_node = late, replies, dropped
    try:
        fingerprint = run_case("lossy", HeartbeatScheme.ADAPTIVE)
    finally:
        cls._land_late, cls._land_replies, cls._drop_node = land_late, land_replies, drop
    print(json.dumps({"fingerprint": fingerprint, "seen": seen}))


def test_lossy_adaptive_ignores_the_hash_seed():
    """The round walks ``Set[int]`` / ``Dict[int, Set]`` (the reverse index,
    a turn's live map, reply groups) on its way to ordered trace events:
    fresh interpreters under three hash seeds must hash the golden trace."""
    from tests.chord.test_maintenance_goldens import GOLDEN_PATH

    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)["lossy.adaptive"]
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    script = "from tests.chord.test_round_cost import lossy_adaptive_run; lossy_adaptive_run()"
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            cwd=root,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(root, "src"),
                "PYTHONHASHSEED": seed,
            },
        )
        for seed in ("0", "1", "4242")
    ]
    outs = []
    for run in runs:
        out, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        outs.append(json.loads(out))
    for got in outs:
        assert got["fingerprint"] == want
        assert got["seen"] == outs[0]["seen"]
    seen = outs[0]["seen"]
    assert seen["late"] and seen["holders_dropped"]
    assert seen["replies"] > seen["batches"] > 0
