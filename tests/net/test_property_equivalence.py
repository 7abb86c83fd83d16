"""Property test: both substrates hold up under hostile networks.

Drives randomly drawn network adversity (loss rate, a flapping-link
storm from the start or from mid-run) plus random churn through CAN's
heartbeat class (the one its substrate builds) and the Chord protocol
under the same spec: each one's channel invariants must hold, no
*genuine* detection may be spurious, and CAN's tables move into the
array store iff the channel stayed ideal.

On any channel but the ideal one the CAN class runs the inherited
per-sender exchange on plain tables, which the lossy goldens pin; the
goldens and ``tests/can/test_engine_equivalence`` pin loss-free runs;
this covers the network-adversity surface those never reach.
"""

import itertools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.chord.ring import ChordRing
from repro.gridsim.invariants import InvariantViolation, _check_network
from repro.net import FlapSpec, NetworkSpec

INITIAL_NODES = 8
PERIOD = 60.0

op = st.tuples(
    st.sampled_from(["round", "round", "round", "join", "fail"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@st.composite
def network_specs(draw):
    loss = draw(st.sampled_from([0.0, 0.1, 0.3]))
    flaps = ()
    if draw(st.booleans()):
        flaps = (
            FlapSpec(
                down=draw(st.sampled_from([PERIOD, 3 * PERIOD])),
                up=draw(st.sampled_from([0.0, 2 * PERIOD])),
                fraction=draw(st.sampled_from([0.3, 1.0])),
                start=draw(st.sampled_from([0.0, 3 * PERIOD])),
            ),
        )
    return NetworkSpec(loss=loss, flaps=flaps)


def run_can(scheme, spec, ops):
    space = ResourceSpace(gpu_slots=1)
    overlay = CanOverlay(space)
    proto = ArrayHeartbeatProtocol(
        overlay, ProtocolConfig(scheme=scheme, period=PERIOD)
    )
    rng = np.random.default_rng(20110926)
    ids = itertools.count()

    def coord():
        return space.clamp_point(rng.random(space.dims))

    proto.bootstrap(next(ids), coord())
    for _ in range(INITIAL_NODES - 1):
        proto.join(next(ids), coord(), now=0.0)
    proto.net = spec.build(np.random.default_rng(99))
    failed = set()
    now = 0.0
    for kind, r in ops:
        if kind == "round":
            now += PERIOD
            proto.run_round(now)
            continue
        now += 1.0
        if kind == "join":
            proto.join(next(ids), coord(), now=now)
            continue
        alive = sorted(overlay.alive_ids())
        if len(alive) <= 4:
            continue
        victim = alive[r % len(alive)]
        proto.fail(victim, now)
        failed.add(victim)
    for _ in range(4):
        now += PERIOD
        proto.run_round(now)
    return proto, failed


def run_chord(scheme, spec, ops):
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(20110926)
    ids = itertools.count()
    for _ in range(INITIAL_NODES):
        ring.add_node(next(ids), [rng.random() for _ in range(space.dims)])
    proto = ChordMaintenanceProtocol(
        ring, ProtocolConfig(scheme=scheme, period=PERIOD)
    )
    proto.adopt_overlay(now=0.0)
    proto.net = spec.build(np.random.default_rng(99))
    failed = set()
    now = 0.0
    for kind, r in ops:
        if kind == "round":
            now += PERIOD
            proto.run_round(now)
            continue
        now += 1.0
        if kind == "join":
            proto.join(
                next(ids), [rng.random() for _ in range(space.dims)], now=now
            )
            continue
        # members keeps failed-but-unclaimed nodes until their arc is taken
        members = sorted(set(ring.members) - failed)
        if len(members) <= 4:
            continue
        victim = members[r % len(members)]
        proto.fail(victim, now)
        failed.add(victim)
    for _ in range(4):
        now += PERIOD
        proto.run_round(now)
    return ring, proto, failed


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(op, max_size=10),
    spec=network_specs(),
    scheme=st.sampled_from(list(HeartbeatScheme)),
)
def test_engines_and_substrates_agree_under_adversity(ops, spec, scheme):
    # CAN: the channel is fixed before the first round, so the tables load
    # into the store iff it is the ideal one
    proto, failed = run_can(scheme, spec, ops)
    _check_network(proto)
    assert bool(proto.store.n_rows) is spec.identity
    assert set(proto._detected_failures) <= failed

    # Chord: same adversity, its own invariants must hold mid-flight
    ring, proto, failed = run_chord(scheme, spec, ops)
    try:
        _check_network(proto)
        ring.check_invariants()
    except InvariantViolation as exc:  # pragma: no cover - failure path
        raise AssertionError(f"spurious invariant failure: {exc}") from exc
    # detections are never spurious: only genuinely crashed nodes count
    assert set(proto._detected_failures) <= failed
