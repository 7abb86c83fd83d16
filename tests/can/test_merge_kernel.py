"""Oracle for the array class's batched full-table merge.

``ArrayHeartbeatProtocol._merge_live`` decides a sender's whole turn of
full-table merges as one matrix; the loop it replaces is the inherited
``HeartbeatProtocol._merge_live``, which runs unchanged on array-backed
tables.  These tests run the two in lockstep — two array-class protocols
built and tampered with identically, one of them forced onto the inherited
loop — and demand the same state afterwards: records and their order, raw
freshness per slot, every epoch and generation counter, the abutment memo,
the dirty flags, the processed-epoch keys, the stored copies, and the
sequence in which records got past the loop's two cheap branches (believed
at this version or newer; memoised as not abutting) to a relevance test.

The tampering is what a seeded churn run rarely lines up: a receiver that
forgot a record, holds an older version of it, or holds a memo for it at
its current or at a stale ``own_version``; a subject whose version moved
under everybody; freshness pushed back so a merge has something to add.
Each exchange visits every sender, so every subject is seen from both
sides of its own turn (``cur_pos``), and every receiver finds its own id in
the tables it merges.
"""

import copy
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme, ProtocolConfig
from repro.can.neighbor import BeliefRecord
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol
from repro.can.space import ResourceSpace
from tests.can.hb_golden import small_store, stored_payload

NODES = 10


def build(kernel: bool, scheme=HeartbeatScheme.VANILLA, nodes=NODES):
    """An array-class protocol; ``kernel=False`` merges by the inherited loop."""
    space = ResourceSpace(gpu_slots=0)
    proto = ArrayHeartbeatProtocol(
        CanOverlay(space), ProtocolConfig(scheme=scheme, period=60.0)
    )
    proto.store = small_store(rows=4)
    if not kernel:
        proto._merge_live = types.MethodType(HeartbeatProtocol._merge_live, proto)
    #: (receiver, subject, version) of every record that reached a relevance test
    proto.tested = []
    # a bound method, so that a deep copy of the protocol records for itself
    proto._record_relevant = types.MethodType(_recording_relevant, proto)
    rng = np.random.default_rng(5)
    ids = itertools.count()
    proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
    for _ in range(nodes - 1):
        proto.join(next(ids), space.clamp_point(rng.random(space.dims)), now=0.0)
    # the tables live in plain dicts until the first exchange; the tampering
    # below edits the store
    proto._move_to_arrays()
    proto.newcomer = lambda: (next(ids), space.clamp_point(rng.random(space.dims)))
    return proto


def _recording_relevant(self, receiver, record):
    self.tested.append((receiver.node_id, record.node_id, record.version))
    return ArrayHeartbeatProtocol._record_relevant(self, receiver, record)


def pick(seq, r):
    seq = sorted(seq)
    return seq[r % len(seq)] if seq else None


def tamper(proto, kind: str, a: int, b: int, now: float) -> None:
    """One deterministic edit of protocol state (same on both instances)."""
    alive = sorted(proto.overlay.alive_ids())
    node = proto.nodes[alive[a % len(alive)]]
    table, store = node.table, proto.store
    known = pick(table.ids(), b)
    if kind == "forget" and known is not None:
        table.remove(known)  # unknown again; forces a full re-merge
    elif kind == "age" and known is not None and table.get(known).version:
        # hold an older version of a believed record
        rec = table.get(known)
        table.remove(known)
        table.upsert(
            BeliefRecord(known, rec.version - 1, rec.zones, rec.coord), now - 30.0
        )
    elif kind in ("memo", "stale-memo"):
        # a verdict about somebody unknown, at the current own_version or at
        # the one before (which must not count)
        stranger = pick(set(proto.nodes) - table.ids() - {node.node_id}, b)
        if stranger is not None:
            version = proto.nodes[stranger].own_version - (b % 2)
            # never over a verdict the node reached itself: the protocol
            # only ever writes the current own_version there
            node._non_abutting.setdefault(
                (stranger, version), node.own_version - (kind == "stale-memo")
            )
    elif kind == "bump":
        node.bump_version()  # everybody's record of this node is now old
    elif kind == "cool" and known is not None:
        push_back(table, known, 45.0 + (b % 3) * 60.0)
    elif kind == "join":
        proto.join(*proto.newcomer(), now=now)
    elif kind == "fail" and len(alive) > 5:
        proto.fail(alive[b % len(alive)], now)


def push_back(table, sid, by):
    """Move a believed entry's raw freshness back by ``by`` seconds, in its
    slot or, edited since the load (or in a newcomer's plain table), in the
    table's dict."""
    i = getattr(table, "_at", {}).get(sid)
    if i is None:
        table._last_heard[sid] -= by
        table._snap_cache = None
    else:
        table._store.eh[table._base + i] -= by
        table._heard_gen += 1


def raw_heard(table, sid):
    i = getattr(table, "_at", {}).get(sid)
    if i is None:
        return table._last_heard[sid]
    return float(table._store.eh[table._base + i])


def table_state(proto, node):
    """What a merge may touch at a receiver."""
    table = node.table
    return {
        "records": [(r.node_id, r.version, r.zones) for r in table.records()],
        "eh": {sid: raw_heard(table, sid) for sid in table._records},
        "heard_gen": getattr(table, "_heard_gen", None),
        "epochs": (table.epoch, table.removals_epoch),
        "memo": dict(node._non_abutting),
        "gap_dirty": node.gap_dirty,
    }


def state(proto):
    out = {"tested": list(proto.tested), "totals": proto.stats.totals()}
    for nid, node in proto.nodes.items():
        out[nid] = {
            **table_state(proto, node),
            "processed": dict(node.processed_epoch),
            "stored": {
                sid: stored_payload(proto, node, sid)
                for sid in sorted(node.stored_tables)
            },
        }
    return out


def assert_same(a, b):
    sa, sb = state(a), state(b)
    for key in sa:
        assert sa[key] == sb[key], f"{key} diverged between kernel and loop"


op = st.tuples(
    st.sampled_from(
        ["round", "round", "forget", "age", "memo", "stale-memo", "bump", "cool",
         "join", "fail"]
    ),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op, min_size=1, max_size=16))
def test_kernel_matches_the_inherited_loop(ops):
    pair = build(kernel=True), build(kernel=False)
    now = 0.0
    for kind, a, b in ops + [("round", 0, 0), ("round", 0, 0)]:
        for proto in pair:
            if kind == "round":
                proto.run_round(now + 60.0)
            else:
                tamper(proto, kind, a, b, now + 1.0)
        now += 60.0 if kind == "round" else 1.0
        if kind == "round":
            assert_same(*pair)


def test_kernel_matches_the_loop_call_by_call_under_dense_churn():
    """Every kernel call of a join/fail-a-round run against the loop on a
    deep copy of the protocol taken at that call (mid-exchange state, frozen
    positions and all)."""
    proto = build(kernel=True, nodes=14)
    calls = {"n": 0, "cells": 0, "tested": 0}
    kernel = ArrayHeartbeatProtocol._merge_live

    def both(self, sender, snap, receivers, sinces, now):
        twin, tsender, tsnap, treceivers = copy.deepcopy(
            (self, sender, snap, receivers)
        )
        before = len(self.tested)
        HeartbeatProtocol._merge_live(twin, tsender, tsnap, treceivers, sinces, now)
        kernel(self, sender, snap, receivers, sinces, now)
        calls["n"] += 1
        calls["cells"] += len(receivers) * len(sender.table)
        calls["tested"] += len(self.tested) - before
        for ours, theirs in zip(receivers, treceivers):
            assert table_state(self, ours) == table_state(twin, theirs)
        assert self.tested == twin.tested

    proto._merge_live = types.MethodType(both, proto)
    now = 0.0
    for r in range(12):
        now += 60.0
        proto.run_round(now)
        tamper(proto, "join" if r % 2 else "fail", r, 3 * r + 1, now + 1.0)
        tamper(proto, "bump", 5 * r, 0, now + 2.0)
    # the run reached the kernel, and the kernel left most cells to numpy
    assert calls["n"] > 50
    assert 0 < calls["tested"] < calls["cells"] / 4


class TestDirected:
    """One scenario a mutant: each fails if the kernel takes the shortcut."""

    def pair(self):
        pair = build(kernel=True), build(kernel=False)
        for proto in pair:
            proto.run_round(60.0)
            proto.run_round(120.0)
        return pair

    def test_fresher_evidence_only_moves_freshness_forward(self):
        # a plain assign instead of a maximum would pull these back
        pair = self.pair()
        for proto in pair:
            for i in range(4):
                tamper(proto, "forget", i, i, 121.0)  # full re-merges follow
            sender = proto.nodes[2]
            for sid in sender.table.ids():
                # the sender heard long ago
                push_back(sender.table, sid, sender.table.last_heard(sid) - 30.0)
            proto.run_round(180.0)
        assert_same(*pair)

    def test_a_memo_from_before_a_zone_change_is_retested(self):
        pair = self.pair()
        for now, kind in ((121.0, "forget"), (181.0, "bump"), (241.0, "forget")):
            for proto in pair:
                for i in range(NODES):
                    tamper(proto, kind, i, 2 * i + 1, now)
                proto.run_round(now + 59.0)
            assert_same(*pair)
        assert pair[0].tested  # something went past the memo at all

    def test_remainder_is_handed_over_in_snapshot_order(self):
        pair = self.pair()
        for proto in pair:
            for i in range(NODES):
                tamper(proto, "forget", i, i, 121.0)
                tamper(proto, "forget", i, i + 3, 121.0)
                tamper(proto, "age", i, i + 5, 121.0)
            proto.tested.clear()
            proto.run_round(180.0)
        assert len(pair[0].tested) > NODES
        assert pair[0].tested == pair[1].tested


    @staticmethod
    def merge(proto, sender, receiver, now):
        """A turn with two full merges (one alone is left to the loop)."""
        other = min(
            n for n in sender.table.ids() & set(proto.nodes) if n != receiver.node_id
        )
        proto._merge_live(
            sender, sender.table.snapshot(),
            [receiver, proto.nodes[other]], [-1, -1], now,
        )

    def trio(self, proto):
        """(receiver, sender, subject): mutual neighbours in a settled CAN."""
        for receiver in proto.nodes.values():
            for sid in sorted(receiver.table.ids()):
                sender = proto.nodes[sid]
                shared = sorted(
                    (receiver.table.ids() & sender.table.ids()) - {sid}
                )
                if shared:
                    return receiver, sender, shared[0]
        raise AssertionError("no triangle in the population")

    def test_a_believed_record_beats_a_memo_of_it(self):
        # memoised while unknown, believed again later: the slot is what a
        # merge must find, or an older version's evidence is dropped
        pair = self.pair()
        for proto in pair:
            receiver, sender, subject = self.trio(proto)
            record = receiver.table.get(subject)
            receiver.table.remove(subject)
            receiver._non_abutting[(subject, record.version)] = receiver.own_version
            self.merge(proto, sender, receiver, 121.0)  # arrays learn it
            assert subject not in receiver.table.ids()
            receiver.table.upsert(record, 122.0, heard_at=10.0)
            self.merge(proto, sender, receiver, 123.0)
            assert receiver.table.last_heard(subject) == 120.0
        assert_same(*pair)

    def test_two_records_without_rows_are_not_mistaken_for_each_other(self):
        pair = self.pair()
        for proto in pair:
            receiver, sender, _ = self.trio(proto)
            # two nodes that join and leave between two loads never get a row
            leavers = []
            for _ in range(2):
                nid, point = proto.newcomer()
                assert proto.join(nid, point, now=120.5)
                leavers.append(nid)
            # versions nobody holds a verdict on, the receiver's the newer one
            for n, bumps in zip(leavers, (1, 3)):
                for _ in range(bumps):
                    proto.nodes[n].bump_version()
            records = [proto.nodes[n].own_record(proto.overlay) for n in leavers]
            for n in leavers:
                proto.graceful_leave(n, 121.0)
            sender.table.upsert(records[0], 122.0)
            receiver.table.upsert(records[1], 122.0)
            proto._move_to_arrays()
            assert proto.store.rowless == 2
            proto.tested.clear()
            self.merge(proto, sender, receiver, 123.0)
            assert (receiver.node_id, leavers[0], records[0].version) in proto.tested
        assert_same(*pair)


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
def test_a_record_without_a_row_sends_the_turn_to_the_loop(scheme):
    """Gossip about a node that left before any load has no row to be found
    through."""
    pair = build(kernel=True, scheme=scheme), build(kernel=False, scheme=scheme)
    for proto in pair:
        proto.run_round(60.0)
        # a node that joins and leaves between two loads never gets a row
        leaver, point = proto.newcomer()
        assert proto.join(leaver, point, now=60.5)
        record = proto.nodes[leaver].own_record(proto.overlay)
        proto.graceful_leave(leaver, 61.0)
        holder = proto.nodes[pick(proto.overlay.alive_ids(), 1)]
        holder.table.upsert(record, 62.0)
        proto._move_to_arrays()
        assert proto.store.rowless == 1
        proto.run_round(120.0)  # by the loop; vanilla gossips the record on
        assert proto.store.rowless >= 1
        for node in proto.nodes.values():
            node.table.remove(leaver)
        proto._move_to_arrays()
        assert proto.store.rowless == 0
        proto.run_round(180.0)
    assert_same(*pair)
