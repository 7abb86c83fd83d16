"""Protocol-level channel behaviour: blackouts and deferral.

Every unreliable send in both maintenance protocols (CAN heartbeat, Chord
ring) goes through one ``NetworkModel`` choke point.  These tests pin the
operational consequences: total blackouts starve evidence while senders
still pay bytes and break links without detecting anyone, and
slower-than-a-round latency delays delivery without forging freshness.
"""

import random

import numpy as np
import pytest

from repro.can.heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
)
from repro.can.messages import MessageType
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.chord.ring import ChordRing
from repro.gridsim.invariants import _check_network
from repro.net import LatencySpec, NetworkSpec

PERIOD = 60.0


def build_can(n=12, scheme=HeartbeatScheme.VANILLA, seed=0):
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    proto = HeartbeatProtocol(overlay, ProtocolConfig(scheme=scheme, period=PERIOD))
    rng = np.random.default_rng(seed)
    coords = [tuple(rng.random(space.dims) * 0.998 + 0.001) for _ in range(n)]
    proto.bootstrap(0, coords[0])
    for i in range(1, n):
        proto.join(i, coords[i], now=0.0)
    return proto


def build_chord(n=12, scheme=HeartbeatScheme.VANILLA, seed=13):
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(seed)
    for nid in range(n):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    proto = ChordMaintenanceProtocol(
        ring, ProtocolConfig(scheme=scheme, period=PERIOD)
    )
    proto.adopt_overlay(now=0.0)
    return ring, proto


def run_rounds(proto, count, start=1):
    for r in range(start, start + count):
        proto.run_round(now=r * PERIOD)
    return (start + count - 1) * PERIOD


class TestBlackout:
    """loss=1.0: the sender pays for every byte, nothing arrives."""

    def test_can_blackout_starves_evidence_but_bills_sender(self):
        proto = build_can(scheme=HeartbeatScheme.VANILLA)
        run_rounds(proto, 2)
        sent_before = proto.stats.count[MessageType.HEARTBEAT_FULL]
        proto.net = NetworkSpec(loss=1.0).build(np.random.default_rng(5))
        run_rounds(proto, 2, start=3)
        assert proto.stats.count[MessageType.HEARTBEAT_FULL] > sent_before
        assert proto.net.attempts > 0
        assert proto.net.delivered == 0
        assert proto.net.drops["loss"] == proto.net.attempts
        # evidence is frozen at the last pre-blackout round
        for node in proto.nodes.values():
            heards = [node.table.last_heard(i) for i in node.table.ids()]
            assert max(heards) <= 2 * PERIOD
        _check_network(proto)

    def test_can_adaptive_blackout_leaves_nobody_to_ask(self):
        """Total blackout drains every believed table simultaneously, so
        the adaptive repair loop has no peers left to broadcast to."""
        proto = build_can(scheme=HeartbeatScheme.ADAPTIVE)
        run_rounds(proto, 2)
        proto.net = NetworkSpec(loss=1.0).build(np.random.default_rng(5))
        # well past the failure timeout: every belief times out at once
        run_rounds(proto, 6, start=3)
        assert all(not node.table.ids() for node in proto.nodes.values())
        assert proto.stats.count.get(MessageType.FULL_UPDATE_REQUEST, 0) == 0
        assert proto.net.delivered == 0
        assert proto.count_broken_links() > 0
        _check_network(proto)

    def test_can_false_suspicion_is_not_a_detection(self):
        """Silenced-but-alive nodes become broken links, never detections."""
        proto = build_can(scheme=HeartbeatScheme.VANILLA)
        detections = []
        proto.on_failure_detected = lambda nid, now: detections.append(nid)
        run_rounds(proto, 2)
        proto.net = NetworkSpec(loss=1.0).build(np.random.default_rng(5))
        # well past the failure timeout: believers give up on everyone
        run_rounds(proto, 6, start=3)
        assert all(not node.table.ids() for node in proto.nodes.values())
        assert detections == []  # alive: a broken link, not a failure
        assert all(proto.overlay.is_alive(n) for n in proto.nodes)
        _check_network(proto)

    def test_chord_blackout_starves_evidence(self):
        ring, proto = build_chord()
        run_rounds(proto, 2)
        proto.net = NetworkSpec(loss=1.0).build(random.Random(5))
        run_rounds(proto, 2, start=3)
        assert proto.net.attempts > 0
        assert proto.net.delivered == 0
        for node in proto.nodes.values():
            assert all(t <= 2 * PERIOD for t in node.known.values())
        _check_network(proto)


class TestLatencyDeferral:
    """Latency above the round period delays delivery by whole rounds and
    stamps evidence at *send* time — slow links can't forge freshness."""

    SLOW = NetworkSpec(latency=LatencySpec(kind="constant", low=1.5 * PERIOD))

    def test_can_deferred_delivery_keeps_send_time_evidence(self):
        proto = build_can(scheme=HeartbeatScheme.VANILLA)
        run_rounds(proto, 1)  # clean round: evidence == PERIOD
        proto.net = self.SLOW.build(np.random.default_rng(0))
        proto.run_round(2 * PERIOD)  # sends defer to t=210
        assert proto._deferred
        for arrival, _, _, _, _, sent_at in proto._deferred:
            assert arrival == pytest.approx(sent_at + 1.5 * PERIOD)
        proto.run_round(3 * PERIOD)  # t=180: round-2 batch not yet due
        proto.run_round(4 * PERIOD)  # t=240: round-2 batch (t=210) lands
        heards = {
            node.table.last_heard(i)
            for node in proto.nodes.values()
            for i in node.table.ids()
            if i != node.node_id
        }
        # freshest evidence anywhere is the round-2 send time, not arrival
        assert max(heards) == 2 * PERIOD
        _check_network(proto)

    def test_chord_deferred_delivery_keeps_send_time_evidence(self):
        ring, proto = build_chord()
        run_rounds(proto, 1)
        proto.net = self.SLOW.build(np.random.default_rng(0))
        proto.run_round(2 * PERIOD)
        assert proto._deferred
        proto.run_round(3 * PERIOD)
        proto.run_round(4 * PERIOD)
        fresh = {
            t
            for node in proto.nodes.values()
            for p, t in node.known.items()
            if p != node.node_id
        }
        assert max(fresh) == 2 * PERIOD
        _check_network(proto)

    def test_fast_latency_delivers_same_round(self):
        """Sub-period latency is invisible to round granularity."""
        quick = NetworkSpec(latency=LatencySpec(kind="constant", low=0.5))
        proto = build_can(scheme=HeartbeatScheme.VANILLA)
        proto.net = quick.build(np.random.default_rng(0))
        run_rounds(proto, 2)
        assert not proto._deferred
        assert proto.count_broken_links() == 0
        for node in proto.nodes.values():
            assert all(
                node.table.last_heard(i) == 2 * PERIOD
                for i in node.table.ids()
                if i != node.node_id
            )
        _check_network(proto)
