"""CAN lands a requester's full-update replies as one batch.

``HeartbeatProtocol._land_replies`` (both classes run it) classifies each
subject once, lands only the records that can change the requester's
table, and takes a gap verdict only where one can differ.  The landing it
replaced is kept here longhand (:func:`land_reply_by_reply`: per reply the
responder's record, then its snapshot, then a verdict), and every test
demands the same requester afterwards: believed records in insertion
order, their change epochs and freshness, the table epochs, the gap flags
and the ``hb.gap_repaired`` events.

The replies are built from a real overlay's history: every version every
node ever advertised (a join bumps the splitter), records about nodes that
left or crashed, the requester's own record, memoised records and one
subject offered at several versions across the batch.  A few records carry
zones their subject never held, where a case needs a removal the history
does not line up.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.neighbor import BeliefRecord, TableSnapshot
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from tests.can.hb_golden import ENGINE_CLASSES, GOLDEN_PATH, run_case
from tests.overlay.oracle import oracle

PERIOD = 60.0
NOW = 20 * PERIOD
ENGINES = sorted(ENGINE_CLASSES)
STAMPS = st.integers(int(NOW - 4 * PERIOD), int(NOW)).map(float)


class EventLog:
    """The slice of a tracer the protocol emits through."""

    def __init__(self):
        self.events = []

    def emit(self, now, kind, **fields):
        self.events.append((now, kind, sorted(fields.items())))


def land_reply_by_reply(proto, receiver, payloads, now):
    """The landing ``_land_replies`` replaced: per reply, the responder's
    record received and its snapshot absorbed, then a gap verdict."""
    for own, snapshot in payloads:
        proto._receive_record(receiver, own, now)
        proto._absorb_table(receiver, snapshot, now)
        proto._settle_gap(receiver, now)


def land_replies(proto, receiver, payloads, now):
    """The batch, called the way :func:`land_reply_by_reply` is."""
    proto._land_replies(receiver, payloads, now)


def build(engine, detection="coverage", seed=0, nodes=20):
    """A 5-dim CAN grown by joins, then two graceful leaves and one crash
    left unclaimed; returns the protocol and every record each node ever
    advertised, by id and version."""
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    cls = ENGINE_CLASSES[engine]
    proto = (oracle(cls) if detection == "oracle" else cls)(
        overlay, ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD)
    )
    history = {}

    def note():
        for nid, pnode in proto.nodes.items():
            record = pnode.own_record(overlay)
            history.setdefault(nid, {})[record.version] = record

    rng = np.random.default_rng(seed)

    def point():
        return space.clamp_point(rng.random(space.dims))

    proto.bootstrap(0, point())
    for nid in range(1, nodes):
        proto.join(nid, point(), now=0.0)
        note()
    for nid in (3, 11):
        proto.graceful_leave(nid, now=PERIOD)
        note()
    proto.fail(7, now=PERIOD)
    proto._now = NOW
    return proto, {nid: list(versions.values()) for nid, versions in history.items()}


def pick(history, nid, i):
    """The ``i``-th record ``nid`` advertised, cyclically."""
    versions = history[nid]
    return versions[i % len(versions)]


def prepare(proto, history, state):
    """Give the requester the drawn table, grace zones, memo and flags."""
    receiver = proto.nodes[state["receiver"]]
    table = receiver.table
    for nid in list(table.ids_view()):
        table.remove(nid)
    if state["truth"]:
        for nid in sorted(proto.overlay.neighbor_ids(receiver.node_id)):
            table.upsert(history[nid][-1], NOW)
    for nid, (i, heard) in state["believed"].items():
        table.remove(nid)
        table.upsert(pick(history, nid, i), NOW, heard_at=heard)
    for nid in state["forgotten"]:
        table.remove(nid)
    for nid, ago in state["grace"]:
        table.remove(nid, NOW - ago)
    for nid, i in state["memo"]:
        record = pick(history, nid, i)
        if nid not in table and not proto._record_relevant(receiver, record):
            receiver._non_abutting[(nid, record.version)] = receiver.own_version
    receiver.gap_dirty = state["gap_dirty"]
    receiver.gap_attempts = state["gap_attempts"]
    proto.tracer = EventLog()
    return receiver


def observe(proto, receiver):
    table = receiver.table
    return (
        [(nid, rec.version, rec.zones) for nid, rec in table._records.items()],
        list(table._record_seq.items()),
        {nid: float(table.last_heard(nid)) for nid in table.ids_view()},
        table.epoch,
        table.removals_epoch,
        receiver.gap_dirty,
        receiver.gap_attempts,
        [e for e in proto.tracer.events if e[1] == "hb.gap_repaired"],
    )


def land(engine, detection, seed, state, make_payloads, batched):
    """Build, prepare and land one way; what the requester ends up with,
    the verdicts taken and how many replies updated or removed a record."""
    proto, history = build(engine, detection, seed)
    receiver = prepare(proto, history, state)
    payloads = make_payloads(history)
    verdicts, shrinking = [], 0
    settle = proto._settle_gap

    def counted(pnode, now):
        verdicts.append(proto._detects_gap(pnode.node_id))
        settle(pnode, now)

    proto._settle_gap = counted
    if batched:
        proto._land_replies(receiver, payloads, NOW)
    else:
        # every update or removal, also of a record the same reply inserted
        # (a responder named by its own record and again by its snapshot)
        table = receiver.table
        upsert, remove = table.upsert, table.remove
        edits = []

        def upserting(record, now, **kw):
            held = record.node_id in table
            changed = upsert(record, now, **kw)
            edits.append(changed and held)
            return changed

        def removing(node_id, now=None):
            removed = remove(node_id, now)
            edits.append(removed)
            return removed

        table.upsert, table.remove = upserting, removing
        for payload in payloads:
            edits.clear()
            land_reply_by_reply(proto, receiver, [payload], NOW)
            shrinking += any(edits)
    return observe(proto, receiver), verdicts, shrinking


# ------------------------------------------------------------ random batches --
@settings(max_examples=150, deadline=None)
@given(
    detection=st.sampled_from(["coverage", "oracle"]),
    seed=st.integers(0, 5),
    data=st.data(),
)
def test_batched_landing_equals_reply_by_reply(detection, seed, data):
    _, history = build("object", detection, seed)
    ids = sorted(history)
    live = [nid for nid in ids if nid not in (3, 7, 11)]
    receiver_id = data.draw(st.sampled_from(live), label="receiver")
    others = st.sampled_from([nid for nid in ids if nid != receiver_id])
    versions = st.integers(0, 6)
    # the requester starts from its ground-truth neighbours at their
    # versions (or from nothing), then believes, forgets and has lately
    # timed out some records
    state = dict(
        receiver=receiver_id,
        truth=data.draw(st.booleans()),
        believed=data.draw(
            st.dictionaries(others, st.tuples(versions, STAMPS), max_size=8)
        ),
        forgotten=data.draw(st.lists(others, max_size=3)),
        grace=data.draw(st.lists(st.tuples(others, st.integers(1, 300)), max_size=2)),
        memo=data.draw(st.lists(st.tuples(others, versions), max_size=8)),
        gap_dirty=data.draw(st.booleans()),
        gap_attempts=data.draw(st.integers(0, 2)),
    )
    # (responder, its record's version, the snapshot: subject -> (version,
    # heard)); the requester's own id may be in a snapshot, never a responder
    replies = data.draw(
        st.lists(
            st.tuples(
                others,
                versions,
                st.dictionaries(st.sampled_from(ids), st.tuples(versions, STAMPS), max_size=12),
            ),
            min_size=1,
            max_size=6,
        ),
        label="replies",
    )

    def make_payloads(history):
        return [
            (
                pick(history, responder, i),
                TableSnapshot(
                    {nid: pick(history, nid, j) for nid, (j, _) in snap.items()},
                    {nid: heard for nid, (_, heard) in snap.items()},
                    0,
                ),
            )
            for responder, i, snap in replies
        ]

    want, _, shrinking = land("object", detection, seed, state, make_payloads, False)
    for engine in ENGINES:
        got, verdicts, _ = land(engine, detection, seed, state, make_payloads, True)
        assert got == want, engine
        # the count guard: one verdict, plus one before each later reply
        # that can shrink the believed area
        assert len(verdicts) <= 1 + shrinking


# ---------------------------------------------------------- directed batches --
def neighborhood(proto):
    """A live node with four live neighbours, and a member it does not abut."""
    overlay = proto.overlay
    for rid in sorted(overlay.alive_ids()):
        near = sorted(
            nid for nid in overlay.neighbor_ids(rid) if overlay.is_alive(nid)
        )
        far = sorted(set(overlay.alive_ids()) - set(near) - {rid})
        if len(near) >= 4 and far:
            return rid, near[:4], far[0]
    raise AssertionError("no node with four neighbours")


def believe_truth(proto, rid):
    """The requester believes each ground-truth neighbour at its version."""
    receiver = proto.nodes[rid]
    for nid in sorted(proto.overlay.neighbor_ids(rid)):
        if nid not in receiver.table:
            receiver.table.upsert(proto.nodes[nid].own_record(proto.overlay), NOW)
    return receiver


def far_record(proto, subject, version, far):
    """``subject`` at ``version`` with zones it never held: ``far``'s."""
    return BeliefRecord(
        subject,
        version,
        tuple(proto.overlay.zones_of(far)),
        proto.overlay.coordinate(subject),
    )


def own(proto, nid):
    return proto.nodes[nid].own_record(proto.overlay)


def snapshot(*pairs):
    return TableSnapshot(
        {rec.node_id: rec for rec, _ in pairs},
        {rec.node_id: heard for rec, heard in pairs},
        0,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("detection", ["coverage", "oracle"])
def test_verdicts_reading_gap_then_no_gap_then_gap(engine, detection):
    """Reply 1 brings back the missing neighbour N (no gap), reply 2 drops
    M for a newer record elsewhere (gap again): reply by reply clears the
    flags after reply 1, so a single verdict at the end would not."""
    outcomes = []
    for batched in (False, True):
        proto, _ = build(engine, detection)
        rid, (n, m, a, b), far = neighborhood(proto)
        receiver = believe_truth(proto, rid)
        proto.nodes[m].bump_version()  # what the requester believes of m is old
        proto.nodes[m].bump_version()
        receiver.table.remove(n)
        receiver.gap_dirty, receiver.gap_attempts = True, 1
        proto.tracer = EventLog()
        assert proto._detects_gap(rid)
        payloads = [
            (own(proto, a), snapshot((own(proto, n), NOW - 10.0))),
            (own(proto, b), snapshot((far_record(proto, m, own(proto, m).version - 1, far), NOW))),
        ]
        verdicts = []
        detects = proto._detects_gap
        proto._detects_gap = lambda nid: verdicts.append(detects(nid)) or verdicts[-1]
        if batched:
            proto._land_replies(receiver, payloads, NOW)
        else:
            land_reply_by_reply(proto, receiver, payloads, NOW)
        outcomes.append((observe(proto, receiver), verdicts))
    (want, by_reply), (got, batch) = outcomes
    assert by_reply == [False, True]
    assert batch == [False, True]  # before reply 2, and at the end
    assert got == want
    assert want[5:] == (True, 0, [(NOW, "hb.gap_repaired", [("node", rid)])])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_subject_removed_and_reinserted_keeps_the_later_freshness(engine):
    """Believed x offered at its version and heard late, then newer
    elsewhere (removed), then at its current version heard early
    (re-inserted): the re-insert's evidence stands."""
    outcomes = []
    for batched in (False, True):
        proto, _ = build(engine)
        rid, (x, a, b, c), far = neighborhood(proto)
        receiver = believe_truth(proto, rid)
        held = own(proto, x)
        proto.nodes[x].bump_version()
        proto.nodes[x].bump_version()
        proto.tracer = EventLog()
        payloads = [
            (own(proto, a), snapshot((held, NOW))),
            (own(proto, b), snapshot((far_record(proto, x, held.version + 1, far), NOW))),
            (own(proto, c), snapshot((own(proto, x), NOW - 30.0))),
        ]
        (land_replies if batched else land_reply_by_reply)(proto, receiver, payloads, NOW)
        outcomes.append(observe(proto, receiver))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2][x] == NOW - 30.0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_stale_record_of_a_member_that_moved_away_is_tested(engine):
    """A member that is no ground-truth neighbour, offered at an old version
    whose zones abut the requester: only its current version may skip the
    relevance test, so the stale record is believed."""
    outcomes = []
    for batched in (False, True):
        proto, _ = build(engine)
        rid, (n, a, _, _), far = neighborhood(proto)
        receiver = believe_truth(proto, rid)
        receiver.table.remove(far)
        proto.nodes[far].bump_version()
        stale = far_record(proto, far, own(proto, far).version - 1, n)
        proto.tracer = EventLog()
        payloads = [(own(proto, a), snapshot((stale, NOW)))]
        (land_replies if batched else land_reply_by_reply)(proto, receiver, payloads, NOW)
        outcomes.append(observe(proto, receiver))
    assert outcomes[0] == outcomes[1]
    assert far in dict((nid, v) for nid, v, _ in outcomes[0][0])


# ------------------------------------------------ hash-seed independence --
def lossy_adaptive_run():
    """The CAN ``lossy.adaptive`` golden case on the class CAN builds (off
    the ideal channel it runs the inherited exchange on plain tables), plus
    the batches it landed, their replies and the verdicts they took.
    Printed as JSON for :func:`test_lossy_adaptive_ignores_the_hash_seed`."""
    cls = ENGINE_CLASSES["array"]
    seen = {"batches": 0, "replies": 0, "verdicts": 0}
    land, settle = cls._land_replies, cls._settle_gap

    def replies(self, receiver, payloads, now):
        seen["batches"] += 1
        seen["replies"] += len(payloads)
        return land(self, receiver, payloads, now)

    def verdict(self, receiver, now):
        seen["verdicts"] += 1
        return settle(self, receiver, now)

    cls._land_replies, cls._settle_gap = replies, verdict
    try:
        fingerprint = run_case("lossy", HeartbeatScheme.ADAPTIVE, engine="array")
    finally:
        cls._land_replies, cls._settle_gap = land, settle
    print(json.dumps({"fingerprint": fingerprint, "seen": seen}))


def test_lossy_adaptive_ignores_the_hash_seed():
    """A batch walks sets of subjects and a dict of freshness on its way to
    ordered table inserts and trace events: fresh interpreters under three
    hash seeds must hash the golden trace."""
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)["lossy.adaptive"]
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    runs = {
        seed: subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from tests.can.test_reply_landing import lossy_adaptive_run;"
                "lossy_adaptive_run()",
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(root, "src"),
                "PYTHONHASHSEED": seed,
            },
        )
        for seed in ("0", "1", "4242")
    }
    outs = []
    for run in runs.values():
        out, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        outs.append(json.loads(out))
    for got in outs:
        assert got["fingerprint"] == want
        assert got["seen"] == outs[0]["seen"]
    seen = outs[0]["seen"]
    assert seen["replies"] > seen["verdicts"] >= seen["batches"] > 0
