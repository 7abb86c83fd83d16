"""Property test: the object and array heartbeat engines are equivalent.

Drives random join/leave/fail/round sequences through both engines with
identical seeds and asserts the full observable protocol state matches:
message counts and byte volumes, protocol events, detected failures,
take-over outcomes (the alive set and final believed tables, freshness
included), every stored full-table copy with the freshness it carries, and
the broken-link count.  The seeded goldens pin the engines
to the committed reference numbers; this test covers the operation
sequences the goldens' two churn shapes never reach.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from tests.can.hb_golden import ENGINE_CLASSES, small_store, stored_payload

INITIAL_NODES = 8

#: "quiet" is 3-6 consecutive rounds: long enough for the array class to
#: form a settled streak, which the next join / crash / leave then ends;
#: "dense" is 3-6 rounds with a join or a crash before every one, the regime
#: in which every full-table delivery is a merge (the array class's batched
#: kernel against the object class's per-record loop)
op = st.tuples(
    st.sampled_from(["round", "round", "quiet", "dense", "join", "fail", "leave"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def run_engine(
    engine: str,
    scheme: HeartbeatScheme,
    ops,
    initial=INITIAL_NODES,
    watch=None,
    gpu_slots=1,
):
    space = ResourceSpace(gpu_slots=gpu_slots)
    overlay = CanOverlay(space)
    proto = ENGINE_CLASSES[engine](
        overlay, ProtocolConfig(scheme=scheme, period=60.0)
    )
    if engine == "array":
        # tiny capacities so every example reallocates the store's arrays
        # (regression: closures must not hold pre-growth array objects)
        proto.store = small_store(rows=4)
    if watch is not None:
        watch(proto)
    rng = np.random.default_rng(20110926)
    ids = itertools.count()

    def coord():
        return space.clamp_point(rng.random(space.dims))

    proto.bootstrap(next(ids), coord())
    for _ in range(initial - 1):
        proto.join(next(ids), coord(), now=0.0)
    now = 0.0

    def event(kind, r, now):
        if kind == "join":
            proto.join(next(ids), coord(), now=now)
            return
        alive = sorted(overlay.alive_ids())
        if len(alive) <= 4:
            return  # keep the population claimable
        victim = alive[r % len(alive)]
        if kind == "fail":
            proto.fail(victim, now)
        else:
            proto.graceful_leave(victim, now)

    for kind, r in ops:
        if kind in ("round", "quiet", "dense"):
            for i in range(1 if kind == "round" else 3 + r % 4):
                if kind == "dense":
                    event("join" if (r >> (i + 2)) & 1 else "fail", r >> 8, now + 1.0)
                now += 60.0
                proto.run_round(now)
            continue
        now += 1.0
        event(kind, r, now)
    # drain in-flight failures through detection and take-over
    for _ in range(4):
        now += 60.0
        proto.run_round(now)
    return proto, overlay


def fingerprint(proto, overlay):
    return {
        "count": {t.value: c for t, c in proto.stats.count.items()},
        "bytes": {t.value: c for t, c in proto.stats.bytes.items()},
        "events": dict(proto.events),
        "detected": sorted(proto._detected_failures),
        "alive": sorted(overlay.alive_ids()),
        "broken": proto.count_broken_links(),
        "tables": {
            nid: {
                rec.node_id: (
                    rec.version,
                    rec.zones,
                    node.table.last_heard(rec.node_id),
                )
                for rec in node.table.records()
            }
            for nid, node in proto.nodes.items()
        },
        # what decides the next full-table delivery's merge: the sender's
        # table epoch and the holder's version and removals at the last one
        "processed": {
            nid: dict(sorted(node.processed_epoch.items()))
            for nid, node in proto.nodes.items()
        },
        # the payload a take-over would absorb: what each holder stored of
        # each sender's full table, freshness as the sender last sent it
        "stored": {
            (nid, sid): stored_payload(proto, node, sid)
            for nid, node in proto.nodes.items()
            for sid in sorted(node.stored_tables)
        },
    }


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(op, max_size=24),
    scheme=st.sampled_from(list(HeartbeatScheme)),
)
def test_engines_equivalent_under_random_churn(ops, scheme):
    obj = fingerprint(*run_engine("object", scheme, ops))
    arr = fingerprint(*run_engine("array", scheme, ops))
    for key in obj:
        assert obj[key] == arr[key], f"{key} diverged between engines"
    assert obj == arr


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["dense", "dense", "quiet", "leave"]),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_engines_equivalent_under_dense_vanilla_churn(ops):
    obj = fingerprint(*run_engine("object", HeartbeatScheme.VANILLA, ops))
    arr = fingerprint(*run_engine("array", HeartbeatScheme.VANILLA, ops))
    for key in obj:
        assert obj[key] == arr[key], f"{key} diverged between engines"


def tally_quiet_turns(tally: list):
    """A ``watch`` for :func:`run_engine`: append to ``tally`` the quiet
    sender turns of every round that does not settle."""

    def watch(proto):
        run_round = proto.run_round

        def counted(now):
            settled, quiet = proto.settled_rounds, proto.quiet_turns
            run_round(now)
            if proto.settled_rounds == settled:
                tally.append(proto.quiet_turns - quiet)

        proto.run_round = counted

    return watch


@settings(max_examples=40, deadline=None)
@given(
    initial=st.integers(min_value=24, max_value=32),
    crash=st.integers(min_value=0, max_value=2**31 - 1),
    events=st.lists(
        st.tuples(
            st.sampled_from(["join", "fail", "leave"]),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        max_size=3,
    ),
    quiet=st.integers(min_value=0, max_value=2**31 - 1),
    scheme=st.sampled_from(list(HeartbeatScheme)),
)
def test_engines_equivalent_with_quiet_senders_in_unquiet_rounds(
    initial, crash, events, quiet, scheme
):
    """One join, crash or leave between quiet runs: the rounds after it have
    a worklist, and every sender off it takes a quiet turn (bytes re-added,
    its stored copies deferred).  Each example has a crash: a join's or a
    leave's notify reaches nearly every table at this size, and a table
    that changed is a loud turn, while a crash moves only the dead row, the
    senders that deliver it a full table and those it was the take-over
    target of, until it is detected."""
    ops = [("quiet", quiet)]
    for k, event in enumerate([("fail", crash), *events], 1):
        ops += [event, ("quiet", quiet >> (2 * k))]
    # five dimensions: sparse enough at this size that an event does not
    # reach every sender through the full tables it moves
    obj = fingerprint(*run_engine("object", scheme, ops, initial, gpu_slots=0))
    tally = []
    arr = fingerprint(
        *run_engine(
            "array", scheme, ops, initial, tally_quiet_turns(tally), gpu_slots=0
        )
    )
    for key in obj:
        assert obj[key] == arr[key], f"{key} diverged between engines"
    assert sum(tally) > 0
