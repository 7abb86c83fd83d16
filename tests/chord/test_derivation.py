"""Believed-structure derivation: one pass == per-exponent bisect, always.

``ChordMaintenanceProtocol._compute_derived`` selects successors,
predecessor and fingers in one walk over the known ids in clockwise
distance order, and ``_derived`` skips the walk altogether when the ids
gained since the cached derivation cannot change it.  Both are pinned here
against the algorithm they replaced, written out longhand:
``successor(own + 2**e)`` by ``bisect`` per exponent, recomputed after
every prune until nothing more drops.
"""

import random
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.space import ResourceSpace
from repro.chord.keyspace import RING_SIZE
from repro.chord.protocol import ChordMaintenanceProtocol, ChordProtocolNode
from repro.chord.ring import FINGER_EXPONENTS
from tests.chord.test_protocol import PERIOD, build, run_rounds
from tests.chord.test_ring import ring_with

SPACE = ResourceSpace(gpu_slots=1)
OWN_ID = 0

OWN_KEYS = st.one_of(
    st.sampled_from([0, 1, 2**63, RING_SIZE - 2, RING_SIZE - 1]),
    st.integers(0, RING_SIZE - 1),
)
#: clockwise distances from the own key: anywhere on the ring, or hugging a
#: power of two from either side (where a finger target changes hands)
DISTANCES = st.one_of(
    st.integers(1, RING_SIZE - 1),
    st.builds(
        lambda e, jitter: min(RING_SIZE - 1, max(1, (1 << e) + jitter)),
        st.integers(0, 63),
        st.integers(-2, 2),
    ),
)
#: 1-80 known ids, every size as likely as any other (a plain ``lists``
#: strategy draws mostly short ones, which never get past the successor span)
DISTANCE_SETS = st.integers(1, 80).flatmap(
    lambda n: st.lists(DISTANCES, min_size=n, max_size=n, unique=True)
)
SUCCESSOR_SIZES = st.integers(1, 8)


def reference_structure(own_key, known_keys, succ_size, exponents):
    """The replaced algorithm: ids in key order, one bisect per exponent."""
    ids = sorted(known_keys, key=known_keys.__getitem__)
    keys = [known_keys[nid] for nid in ids]
    n = len(ids)
    pos = bisect_left(keys, own_key) % n
    successors = tuple(ids[(pos + j) % n] for j in range(min(succ_size, n)))
    predecessor = ids[(pos - 1) % n]
    fingers = []
    seen = {*successors, predecessor}
    for e in exponents:
        fid = ids[bisect_left(keys, (own_key + (1 << e)) % RING_SIZE) % n]
        if fid not in seen:
            seen.add(fid)
            fingers.append(fid)
    peers = tuple(dict.fromkeys(successors + (predecessor,) + tuple(fingers)))
    return successors, predecessor, tuple(fingers), peers


class ReferenceNode:
    """Known-set bookkeeping as it was: derive, prune, derive again."""

    def __init__(self, own_key, keys, succ_size, exponents):
        self.own_key, self.keys = own_key, keys
        self.succ_size, self.exponents = succ_size, exponents
        self.known = {}
        self.epoch = 0

    def add(self, nid, heard_at):
        if nid not in self.known:
            self.epoch += 1
        self.known[nid] = heard_at

    def forget(self, nid):
        if nid in self.known:
            del self.known[nid]
            self.epoch += 1

    def derived(self):
        if not self.known:
            return (), None, (), ()
        while True:
            structure = reference_structure(
                self.own_key,
                {nid: self.keys[nid] for nid in self.known},
                self.succ_size,
                self.exponents,
            )
            drop = [nid for nid in self.known if nid not in structure[3]]
            if not drop:
                return structure
            for nid in drop:
                del self.known[nid]
            self.epoch += 1


def make_protocol(own_key, distances, succ_size):
    """A protocol whose node ``OWN_ID`` can learn ids 1..len(distances)."""
    ring = ring_with(SPACE, succ_size)
    proto = ChordMaintenanceProtocol(
        ring, ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD)
    )
    pnode = proto.nodes[OWN_ID] = ChordProtocolNode(OWN_ID)
    proto._key[OWN_ID] = own_key
    for nid, distance in enumerate(distances, start=1):
        proto._key[nid] = (own_key + distance) % RING_SIZE
    return proto, pnode


@settings(max_examples=60, deadline=None)
@given(
    own_key=OWN_KEYS,
    distances=DISTANCE_SETS,
    succ_size=SUCCESSOR_SIZES,
)
def test_one_pass_equals_per_exponent_bisect(own_key, distances, succ_size):
    proto, pnode = make_protocol(own_key, distances, succ_size)
    for nid in range(1, len(distances) + 1):
        pnode.known[nid] = 0.0
    got = proto._compute_derived(pnode)
    want = reference_structure(
        own_key,
        {nid: proto._key[nid] for nid in pnode.known},
        succ_size,
        FINGER_EXPONENTS,
    )
    assert (got.successors, got.predecessor, got.fingers, got.peers) == want
    assert got.targets == tuple(sorted(got.peers))
    assert got.compact_targets == tuple(
        t for t in got.targets if t != got.successors[0]
    )


@settings(max_examples=120, deadline=None)
@given(
    own_key=OWN_KEYS,
    distances=DISTANCE_SETS,
    succ_size=SUCCESSOR_SIZES,
    settled=st.integers(0, 80),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ["hear", "gossip", "gossip", "gossip", "forget", "derive"]
            ),
            st.integers(0, 2**16),
        ),
        min_size=30,
        max_size=120,
    ),
)
def test_incremental_derivation_equals_from_scratch(
    own_key, distances, succ_size, settled, steps
):
    """After any add/forget history, structure, ``known`` (order included)
    and epoch are what derive-prune-derive from scratch leaves behind."""
    proto, pnode = make_protocol(own_key, distances, succ_size)
    ref = ReferenceNode(own_key, proto._key, succ_size, FINGER_EXPONENTS)
    # start from a structure derived over the first ``settled`` ids, so the
    # steps mostly land between its successor span and its predecessor
    for nid in range(1, min(settled, len(distances)) + 1):
        proto._absorb(pnode, {nid: 0.0})
        ref.add(nid, 0.0)
    steps = [("derive", 0), *steps]
    for clock, (op, entropy) in enumerate(steps, start=1):
        nid = 1 + entropy % len(distances)
        if op == "hear":
            proto._hear(pnode, nid, float(clock))
            ref.add(nid, float(clock))
        elif op == "gossip":
            proto._absorb(pnode, {nid: float(clock)})
            ref.add(nid, float(clock))
        elif op == "forget":
            proto._forget(pnode, nid)
            ref.forget(nid)
        else:
            got = proto._derived(pnode)
            want = ref.derived()
            assert (
                got.successors, got.predecessor, got.fingers, got.peers
            ) == want
            assert list(pnode.known.items()) == list(ref.known.items())
            assert pnode.epoch == ref.epoch
            # what the fast path answers is what a full walk would
            assert got == proto._compute_derived(pnode)
    assert proto._derived(pnode)[:4] == ref.derived()
    assert list(pnode.known.items()) == list(ref.known.items())


def test_settled_round_derives_nothing_from_scratch():
    """Count guard for the additions-only path: once churn has settled, a
    round's transient ids (compact heartbeats from nodes holding this one
    as a finger) are all rejected against the cached structure.  Before
    that path existed every node paid two full derivations per round."""
    ring, proto = build(n=200, scheme=HeartbeatScheme.ADAPTIVE)
    rng = random.Random(5)
    rnd = run_rounds(proto, 2)
    for nid in range(200, 212):
        coord = [rng.random() for _ in range(ring.space.dims)]
        proto.join(nid, coord, now=rnd * PERIOD - 30.0)
    for victim in rng.sample(sorted(ring.members), 6):
        proto.fail(victim, now=rnd * PERIOD - 20.0)
    rnd = run_rounds(proto, 12, start=rnd)
    assert proto.events["claims"] == 6

    calls = {"full": 0, "checked": 0}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    proto._compute_derived = counting("full", proto._compute_derived)
    proto._any_selected = counting("checked", proto._any_selected)
    run_rounds(proto, 1, start=rnd)
    assert calls["checked"] >= len(proto.nodes)  # every node pruned something
    assert calls["full"] <= 10
