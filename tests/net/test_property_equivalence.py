"""Property test: engines and substrates agree under hostile networks.

Drives randomly drawn network adversity (loss rate, a flapping-link
storm from the start or from mid-run) plus random churn through:

* the CAN object engine vs the CAN array engine — the full observable
  fingerprint (message counts, byte volumes, events, detections, final
  believed tables) and the channel accounting must match exactly; and
* the Chord protocol under the same spec — its ring and channel
  invariants must hold and no *genuine* detection may be spurious.

The goldens pin loss-free runs; ``tests/can/test_engine_equivalence``
pins loss-free churn; this covers the network-adversity surface those
never reach.
"""

import itertools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.chord.ring import ChordRing
from repro.gridsim.invariants import InvariantViolation, _check_network
from repro.net import FlapSpec, NetworkSpec
from tests.can.hb_golden import ENGINE_CLASSES

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


def run_can_engine(engine, scheme, spec, ops):
    space = ResourceSpace(gpu_slots=1)
    overlay = CanOverlay(space)
    proto = ENGINE_CLASSES[engine](
        overlay, ProtocolConfig(scheme=scheme, period=PERIOD)
    )
    rng = np.random.default_rng(20110926)
    ids = itertools.count()

    def coord():
        return space.clamp_point(rng.random(space.dims))

    proto.bootstrap(next(ids), coord())
    for _ in range(INITIAL_NODES - 1):
        proto.join(next(ids), coord(), now=0.0)
    proto.set_network(spec.build(np.random.default_rng(99)))
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
        proto.fail(alive[r % len(alive)], now)
    for _ in range(4):
        now += PERIOD
        proto.run_round(now)
    _check_network(proto)
    return proto, overlay


def fingerprint(proto, overlay):
    return {
        "count": {t.value: c for t, c in proto.stats.count.items()},
        "bytes": {t.value: c for t, c in proto.stats.bytes.items()},
        "events": dict(proto.events),
        "detected": sorted(proto._detected_failures),
        "alive": sorted(overlay.alive_ids()),
        "broken": proto.count_broken_links(),
        "net": proto.net.counters(),
        "deferred": sorted(
            (arrival, kind, dst) for arrival, kind, dst, *_ in proto._deferred
        ),
        "tables": {
            nid: {
                rec.node_id: (rec.version, node.table.last_heard(rec.node_id))
                for rec in node.table.records()
            }
            for nid, node in proto.nodes.items()
        },
    }


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
    proto.set_network(spec.build(np.random.default_rng(99)))
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
    # CAN: the array engine must shadow the object engine exactly
    obj = fingerprint(*run_can_engine("object", scheme, spec, ops))
    arr = fingerprint(*run_can_engine("array", scheme, spec, ops))
    for key in obj:
        assert obj[key] == arr[key], f"{key} diverged between engines"

    # Chord: same adversity, its own invariants must hold mid-flight
    ring, proto, failed = run_chord(scheme, spec, ops)
    try:
        _check_network(proto)
        ring.check_invariants()
    except InvariantViolation as exc:  # pragma: no cover - failure path
        raise AssertionError(f"spurious invariant failure: {exc}") from exc
    # detections are never spurious: only genuinely crashed nodes count
    assert set(proto._detected_failures) <= failed
