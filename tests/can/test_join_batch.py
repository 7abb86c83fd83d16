"""A CAN join lands in one pass over the splitter's table.

Two pieces of the join path are written for speed, and each is held here
against the longhand it replaced:

* ``HeartbeatProtocol._joined`` (both classes run it) decides the
  newcomer's slice and the splitter's prune in one pass over the
  splitter's table, and the notify fan-out from the overlay's pair
  counters.  :func:`join_record_by_record` is the join it replaced: every
  record through ``_record_relevant``, every notified record through
  ``_receive_record``.
* ``CanOverlay._split_adjacency`` updates the pair counters inline;
  :func:`split_adjacency_pair_by_pair` calls ``_pair_inc`` / ``_pair_dec``
  as it used to.

Every comparison demands the same state, order included: a table's records
and change sequence in insertion order, its slots and the store's arrays,
the epochs, the abutment memo, the gap flags, the message statistics, the
protocol events and the trace.  The order is observable: the tiling proof
walks the counters' key view, and merges walk tables in insertion order.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.geometry import _EPS
from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme, ProtocolConfig
from repro.can.messages import SIZE_MODEL, MessageType
from repro.can.neighbor import BeliefRecord
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayNeighborTable
from repro.can.space import ResourceSpace
from repro.gridsim import ChurnConfig, ChurnSimulation, FaultPlan
from repro.net import NetworkSpec
from repro.obs.events import Tracer
from tests.can.hb_golden import ENGINE_CLASSES, pinned_engine, small_store, stored_payload
from tests.can.test_incremental_consistency import _Cube, _churn, _coord
from tests.can.test_reply_landing import EventLog

ENGINES = sorted(ENGINE_CLASSES)
PERIOD = 60.0


# ------------------------------------------------------------------ oracles --
def join_record_by_record(self, newcomer, result, now):
    """The join ``_joined`` replaced, as a method of a CAN protocol."""
    splitter = self.nodes[result.splitter_id]
    splitter.bump_version()

    dims = self.overlay.space.dims

    slice_records = [
        (rec, heard_at)
        for rec, heard_at in splitter.table.snapshot().pairs()
        if self._record_relevant(newcomer, rec)
    ]
    self.stats.record(
        MessageType.JOIN_REPLY,
        SIZE_MODEL.table_bytes_from_totals(
            dims,
            len(slice_records) + 1,
            sum(max(r.zone_count, 1) for r, _ in slice_records) + 1,
        ),
    )
    for rec, heard_at in slice_records:
        newcomer.table.upsert(rec, now, heard_at=heard_at)
    newcomer.table.upsert(splitter.own_record(self.overlay), now)
    newcomer.gap_dirty = True

    notify_ids = splitter.table.sorted_ids()
    for rec in splitter.table.records():
        if not self._record_relevant(splitter, rec):
            splitter.table.remove(rec.node_id)
    new_record = newcomer.own_record(self.overlay)
    if self._record_relevant(splitter, new_record):
        splitter.table.upsert(new_record, now)
    splitter.gap_dirty = True

    splitter_record = splitter.own_record(self.overlay)
    for target in self._notify(
        MessageType.JOIN_NOTIFY, splitter.node_id, notify_ids, now
    ):
        self._receive_record(target, splitter_record, now)
        self._receive_record(target, new_record, now)


def split_adjacency_pair_by_pair(self, old_id, old_owner, low, high, dim):
    """``CanOverlay._split_adjacency`` with its counter updates as calls."""
    leaves = self.tree.leaves
    adj = self._adj
    low_id, high_id = low.leaf_id, high.leaf_id
    zlo = low.zone.lo[dim]
    at = low.zone.hi[dim]
    zhi = high.zone.hi[dim]
    old_keeps_low = low.owner == old_owner
    newcomer = high.owner if old_keeps_low else low.owner
    old_adj = adj.pop(old_id)
    low_adj, high_adj = set(), set()
    touched = {low.owner, high.owner}
    for other_id in old_adj:
        other = leaves[other_id]
        olo = other.zone.lo[dim]
        ohi = other.zone.hi[dim]
        if abs(ohi - zlo) <= _EPS:
            in_low, in_high = True, False
        elif abs(zhi - olo) <= _EPS:
            in_low, in_high = False, True
        else:
            in_low = min(ohi, at) - max(olo, zlo) > _EPS
            in_high = min(ohi, zhi) - max(olo, at) > _EPS
        other_adj = adj[other_id]
        other_adj.discard(old_id)
        if in_low:
            low_adj.add(other_id)
            other_adj.add(low_id)
        if in_high:
            high_adj.add(other_id)
            other_adj.add(high_id)
        other_owner = other.owner
        touched.add(other_owner)
        in_kept, in_new = (in_low, in_high) if old_keeps_low else (in_high, in_low)
        if not in_kept:
            self._pair_dec(old_owner, other_owner)
        if in_new:
            self._pair_inc(newcomer, other_owner)
    low_adj.add(high_id)
    high_adj.add(low_id)
    self._pair_inc(low.owner, high.owner)
    adj[low_id] = low_adj
    adj[high_id] = high_adj
    self._touch_nodes(touched)


@contextlib.contextmanager
def record_by_record():
    """Both classes join through :func:`join_record_by_record` (neither
    class overrides ``_joined``)."""
    batched = HeartbeatProtocol._joined
    HeartbeatProtocol._joined = join_record_by_record
    try:
        yield
    finally:
        HeartbeatProtocol._joined = batched


# ---------------------------------------------------------------- the state --
def table_state(table):
    """One believed table: records and change sequence in insertion order,
    freshness, epochs, grace zones and (array class) slots."""
    state = {
        "records": [(nid, r.version, r.zones) for nid, r in table._records.items()],
        "seq": list(table._record_seq.items()),
        "heard": [float(table.last_heard(nid)) for nid in table._records],
        "epochs": (table.epoch, table.removals_epoch, table._total_zones),
        "grace": list(table._recent_removals.items()),
    }
    if isinstance(table, ArrayNeighborTable):
        state["slots"] = [(nid, table._base + i) for nid, i in table._at.items()]
        state["heard_gen"] = table._heard_gen
    return state


def store_state(store):
    """The slot and row arrays, as far as they are in use."""
    rows = store.n_rows
    return {
        "slots": [
            arr.tolist()
            for arr in (
                store.eh,
                store.owner_row,
                store.subj_row,
                store.rev,
                store.edge_version,
            )
        ],
        "rowless": store.rowless,
        "edited": sorted(store.edited),
        "rows": (store.own_version[:rows].tolist(), store.alive[:rows].tolist()),
        "row_of": list(store.row_of.items()),
    }


def protocol_state(proto):
    """Everything a join can write, node by node, plus the run's totals."""
    nodes = {}
    for nid in sorted(proto.nodes):
        pnode = proto.nodes[nid]
        nodes[nid] = {
            **table_state(pnode.table),
            "memo": list(pnode._non_abutting.items()),
            "flags": (pnode.own_version, pnode.gap_dirty, pnode.gap_attempts),
            "processed": list(pnode.processed_epoch.items()),
        }
    state = {
        "nodes": nodes,
        "count": {t.value: c for t, c in proto.stats.count.items()},
        "bytes": {t.value: c for t, c in proto.stats.bytes.items()},
        "events": dict(proto.events),
        "gap_dirty": sorted(proto._gap_dirty_ids),
        "counters": [
            (nid, list(row.items())) for nid, row in proto.overlay._nbr_counts.items()
        ],
    }
    if hasattr(proto, "store"):
        state["store"] = store_state(proto.store)
    # last: reading a stored copy can write it (the array class's quiet
    # senders), so every table is read first
    state["stored"] = {
        sid: {
            hid: stored_payload(proto, proto.nodes[hid], sid)
            for hid in sorted(holders)
        }
        for sid, holders in sorted(proto._stored_in.items())
    }
    return state


def bootstrap_digest(engine: str, nodes: int = 1000) -> str:
    """A 11-dim adaptive bootstrap of ``nodes`` nodes on one class, reduced
    to a hash of what both classes hold alike: every table's records in
    insertion order, change sequence, epochs and freshness, every memo and
    gap flag, the message statistics and the protocol events.  The array
    class's tables are read after its move into the store."""
    config = ChurnConfig(
        initial_nodes=nodes, scheme=HeartbeatScheme.ADAPTIVE, seed=20110926
    )
    with pinned_engine(engine):
        sim = ChurnSimulation(config)
    sim.bootstrap_population()
    proto = sim.protocol
    if engine == "array":
        # the joins ran on plain tables: hash what the first exchange's
        # move puts in the store
        proto._move_to_arrays()
        assert all(
            isinstance(pnode.table, ArrayNeighborTable)
            for pnode in proto.nodes.values()
        )
    rows = []
    for nid in sorted(proto.nodes):
        pnode = proto.nodes[nid]
        table = pnode.table
        records = table._records
        rows.append(
            (
                nid,
                # exact bounds: a Zone's repr rounds them
                [
                    (sid, r.version, [(z.lo, z.hi) for z in r.zones])
                    for sid, r in records.items()
                ],
                list(table._record_seq.items()),
                [float(table.last_heard(sid)) for sid in records],
                (table.epoch, table.removals_epoch, table._total_zones),
                list(pnode._non_abutting.items()),
                (pnode.own_version, pnode.gap_dirty),
            )
        )
    rows.append(
        (
            sorted((t.value, c) for t, c in proto.stats.count.items()),
            sorted((t.value, c) for t, c in proto.stats.bytes.items()),
            sorted(proto.events.items()),
        )
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# --------------------------------------------- the join, end to end in a run --
CHANNELS = {
    "ideal": FaultPlan(),
    "lossy": FaultPlan(network=NetworkSpec(loss=0.05)),
}
SCHEMES = list(HeartbeatScheme)


class Coverage:
    """What the splitters' tables held when a join read them."""

    def __init__(self):
        self.joins = self.stale = self.ghosts = self.departed = 0

    def note(self, proto, result):
        self.joins += 1
        members = proto.overlay.members
        for rec in proto.nodes[result.splitter_id].table.records():
            subject = proto.nodes.get(rec.node_id)
            if rec.node_id not in members:
                self.departed += 1
            elif not members[rec.node_id].alive:
                self.ghosts += 1
            elif subject.own_version != rec.version:
                self.stale += 1


def churn_run(engine, scheme, channel, seed, batched, coverage=None, leaves="fail"):
    """A small churn run (joins, crashes or leaves, claims, rounds) on one
    class; its protocol state and trace afterwards."""
    config = ChurnConfig(
        initial_nodes=16,
        gpu_slots=0,
        scheme=scheme,
        event_gap_mean=25.0,
        leave_mode=leaves,
        duration=12 * PERIOD,
        seed=seed,
        plan=CHANNELS[channel],
    )
    trace = []
    tracer = Tracer()
    tracer.subscribe(lambda e: trace.append((e.t, e.etype, sorted(e.fields.items()))))
    with contextlib.ExitStack() as stack:
        stack.enter_context(pinned_engine(engine))
        if not batched:
            stack.enter_context(record_by_record())
        sim = ChurnSimulation(config, tracer=tracer)
        if coverage is not None:
            joined = sim.protocol._joined

            def noted(newcomer, result, now):
                coverage.note(sim.protocol, result)
                joined(newcomer, result, now)

            sim.protocol._joined = noted
        sim.run()
    assert type(sim.protocol) is ENGINE_CLASSES[engine]
    sim.check_invariants()
    return protocol_state(sim.protocol), trace


#: off the ideal channel both classes run the same code: the built one runs
@pytest.mark.parametrize(
    ("engine", "channel"),
    [("array", "ideal"), ("array", "lossy"), ("object", "ideal")],
)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scheme=st.sampled_from(SCHEMES),
    leaves=st.sampled_from(["fail", "graceful"]),
)
def test_batched_join_equals_record_by_record(engine, channel, seed, scheme, leaves):
    want = churn_run(engine, scheme, channel, seed, False, leaves=leaves)
    got = churn_run(engine, scheme, channel, seed, True, leaves=leaves)
    assert got == want


@pytest.mark.parametrize("engine", ["array"])
def test_splitters_hold_stale_versions_ghosts_and_departed_subjects(engine):
    """Under vanilla gossip over the lossy channel, the tables a join reads
    hold what only the geometric fallback decides: older versions, crashed
    members (ghosts), and nodes that left or were claimed away.  Off the
    ideal channel both classes run the same code: the built one runs."""
    coverage = Coverage()
    for seed, leaves in ((1, "fail"), (2, "graceful")):
        want = churn_run(
            engine, HeartbeatScheme.VANILLA, "lossy", seed, False, leaves=leaves
        )
        got = churn_run(
            engine, HeartbeatScheme.VANILLA, "lossy", seed, True, coverage, leaves
        )
        assert got == want
    assert coverage.joins > 40
    assert coverage.stale > 0
    assert coverage.ghosts > 0
    assert coverage.departed > 0


def test_both_classes_bootstrap_to_one_digest():
    """CI runs this at 1 000 nodes; here a small population keeps the
    digest's reading of both classes honest."""
    assert bootstrap_digest("object", nodes=150) == bootstrap_digest("array", nodes=150)


# ------------------------------------------- every branch of the fan-out --
def grown(engine, seed=3, nodes=14):
    """A 5-dim CAN of ``nodes`` joins on one class, and a point source; the
    array class loads its tables after the first node, so that the joins
    edit a loaded table, as the joins after a first round do."""
    space = ResourceSpace(gpu_slots=0)
    proto = ENGINE_CLASSES[engine](
        CanOverlay(space), ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD)
    )
    if engine == "array":
        proto.store = small_store(rows=4)
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
    if engine == "array":
        proto._move_to_arrays()
    for _ in range(nodes - 1):
        proto.join(next(ids), space.clamp_point(rng.random(space.dims)), now=0.0)
    return proto, ids


def inside(proto, node_id):
    """A point in ``node_id``'s first zone, off its own coordinate."""
    zone = proto.overlay.zones_of(node_id)[0]
    return tuple(lo + (hi - lo) * 0.37 for lo, hi in zip(zone.lo, zone.hi))


def tamper_and_join(proto, ids, case):
    """Set up one fan-out branch at the splitter's notify targets, then join
    a node into the splitter's zone."""
    overlay = proto.overlay
    splitter_id = max(overlay.alive_ids(), key=lambda n: len(proto.nodes[n].table))
    splitter = proto.nodes[splitter_id]
    targets = splitter.table.sorted_ids()
    nxt = splitter.own_version + 1  # the version the join will announce
    for i, tid in enumerate(targets):
        target = proto.nodes[tid]
        table = target.table
        if case == "newer" and i % 2 == 0:
            # believed at the announced version or newer: nothing to learn
            table.remove(splitter_id)
            rec = splitter.own_record(overlay)
            table.upsert(BeliefRecord(splitter_id, nxt + i % 3, rec.zones, rec.coord), 0.0)
        elif case == "memo" and i % 2 == 0:
            # memoised as not abutting at the target's current version
            table.remove(splitter_id)
            target._non_abutting[(splitter_id, nxt)] = target.own_version
        elif case == "stale-memo" and i % 2 == 0:
            # a memo from an older version of the target's own zones
            table.remove(splitter_id)
            target._non_abutting[(splitter_id, nxt)] = target.own_version - 1
        elif case == "forgotten" and i % 2 == 0:
            table.remove(splitter_id)
    if case == "stale-slice":
        # the splitter believes every neighbour at an older version, so
        # the slice and the prune fall back to the zones
        for tid in targets:
            proto.nodes[tid].bump_version()
    proto.tracer = EventLog()
    assert proto.join(next(ids), inside(proto, splitter_id), now=30.0)
    return splitter_id


@pytest.mark.parametrize("case", ["plain", "stale-memo", "forgotten", "stale-slice"])
@pytest.mark.parametrize("engine", ENGINES)
def test_each_fan_out_branch_equals_record_by_record(engine, case):
    outcomes = []
    for batched in (False, True):
        proto, ids = grown(engine)
        if batched:
            tamper_and_join(proto, ids, case)
        else:
            with record_by_record():
                tamper_and_join(proto, ids, case)
        proto.overlay.check_invariants()
        outcomes.append((protocol_state(proto), proto.tracer.events))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("case", ["newer", "memo"])
@pytest.mark.parametrize("engine", ENGINES)
def test_fan_out_asserts_the_branches_no_join_reaches(engine, case):
    """Both notified records are made by the join, so no target believes
    one at its version or newer, or remembers it as not abutting.  The
    fan-out asserts this in place of ``_receive_record``'s first two
    branches; the churn runs above never trip it."""
    proto, ids = grown(engine)
    with pytest.raises(AssertionError):
        tamper_and_join(proto, ids, case)


# ------------------------------------------------------------ pair counters --
def counter_rows(overlay):
    return [(nid, list(row.items())) for nid, row in overlay._nbr_counts.items()]


def lockstep(seed, make_overlay, coords, steps):
    """The same churn on the inline overlay and on a pair-by-pair one."""
    overlays, streams = [], []
    for inline in (True, False):
        rng = np.random.default_rng(seed)
        overlay = make_overlay()
        if not inline:
            overlay._split_adjacency = types.MethodType(
                split_adjacency_pair_by_pair, overlay
            )
        overlays.append(overlay)
        streams.append(_churn(overlay, rng, steps, coords(rng)))
    for _ in zip(*streams):
        inline, oracle = overlays
        assert counter_rows(inline) == counter_rows(oracle)
        assert inline._adj == oracle._adj
        assert inline._nbr_stamp == oracle._nbr_stamp
    return overlays[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_inline_counters_equal_pair_by_pair_updates(seed):
    space = ResourceSpace(gpu_slots=0)
    overlay = lockstep(
        seed,
        lambda: CanOverlay(space),
        lambda rng: lambda: _coord(rng, space.dims),
        60,
    )
    overlay.check_invariants()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dims=st.integers(2, 6), bits=st.integers(1, 3))
def test_inline_counters_on_split_planes_at_existing_faces(seed, dims, bits):
    """Dyadic coordinates put split planes on existing faces, where a
    neighbour touches a half at a corner only."""
    cells = 1 << bits
    overlay = lockstep(
        seed,
        lambda: CanOverlay(_Cube(dims)),
        lambda rng: lambda: tuple(rng.integers(cells, size=dims) / cells),
        40,
    )
    if overlay.tree is not None:
        overlay.check_invariants()
