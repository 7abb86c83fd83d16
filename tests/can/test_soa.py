"""Unit tests for the struct-of-arrays heartbeat hot state."""

import numpy as np
import pytest

from repro.can.geometry import Zone
from repro.can.neighbor import _NEG_INF, BeliefRecord, NeighborTable
from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol, ArrayNeighborTable, EdgeStore
from repro.can.space import ResourceSpace
from repro.gridsim import ChurnSimulation
from repro.gridsim.config import ChurnConfig
from repro.gridsim.faulty import FaultyGridConfig
from repro.net import FlapSpec, LatencySpec, NetworkSpec
from repro.overlay import get_substrate
from tests.can.hb_golden import CASES, ENGINE_CLASSES, small_store, stored_payload
from tests.can.test_incremental_consistency import _brute_broken_links


def rec(nid: int, version: int = 0) -> BeliefRecord:
    zone = Zone([nid / 100.0, 0.0], [nid / 100.0 + 0.01, 1.0])
    return BeliefRecord(
        node_id=nid, version=version, zones=(zone,), coord=(0.0, 0.0)
    )


def make_table(store: EdgeStore, node_id: int) -> ArrayNeighborTable:
    row = store.alloc_row(node_id)
    return ArrayNeighborTable(150.0, store, node_id, row)


def load(store: EdgeStore, *tables: ArrayNeighborTable) -> None:
    """Load ``tables`` (every table the store holds) from their entries."""
    records = [table._records for table in tables]
    starts = store.load_slots(
        np.array([table._row for table in tables], dtype=np.int64),
        np.full(len(tables), -1, dtype=np.int64),
        np.array([len(r) for r in records], dtype=np.int64),
        np.array(
            [store.row_of.get(n, -1) for r in records for n in r], dtype=np.int64
        ),
        np.array([rec.version for r in records for rec in r.values()], dtype=np.int64),
        np.array([t.last_heard(n) for t in tables for n in t._records]),
    )
    for table, start in zip(tables, starts.tolist()):
        table.loaded(start)


class TestEdgeStore:
    def test_row_growth_and_monotonic_rows(self):
        store = small_store(rows=2)
        rows = [store.alloc_row(i) for i in range(5)]
        assert rows == [0, 1, 2, 3, 4]
        assert store.alive[:5].all()
        assert store.row_of == {i: i for i in range(5)}

    def test_rev_linking_and_unlinking(self):
        store = EdgeStore()
        a = make_table(store, 1)
        b = make_table(store, 2)
        a.upsert(rec(2), now=0.0)
        load(store, a, b)
        sa = a._base + a._at[2]
        assert store.rev[sa] == -1  # b does not believe a yet
        b.upsert(rec(1), now=0.0)
        load(store, a, b)
        sa, sb = a._base + a._at[2], b._base + b._at[1]
        assert store.rev[sa] == sb and store.rev[sb] == sa
        a.remove(2)
        load(store, a, b)
        sb = b._base + b._at[1]
        assert store.rev[sb] == -1  # dropping one side unlinks the other
        assert store.n_slots == 1


class TestArrayTableMatchesObjectTable:
    """Differential: every override behaves like the dict implementation,
    on entries in their slots and on entries edited since the load."""

    def pair(self):
        store = EdgeStore()
        arr = make_table(store, 99)
        store.alloc_row(1)  # subjects get rows so rev indexing is exercised
        store.alloc_row(2)
        obj = NeighborTable(150.0)
        return obj, arr

    def test_upsert_heard_remove_sequence(self):
        obj, arr = self.pair()
        for table in (obj, arr):
            assert table.upsert(rec(1), now=0.0)
            assert table.upsert(rec(2, version=1), now=5.0, heard_at=2.0)
            if table is arr:
                load(arr._store, arr)
            assert not table.upsert(rec(2, version=0), now=6.0)  # older loses
            assert table.heard_from(rec(1), now=10.0)
            assert not table.heard_from(rec(3), now=10.0)  # unknown subject
            table.advance_freshness(1, 20.0)
            table.advance_freshness(1, 15.0)  # never backwards
            assert table.upsert(rec(1, version=1), now=21.0, heard_at=12.0)
            table.advance_freshness(1, 16.0)  # edited: in the dict now
            table.advance_freshness(2, 17.0)
        assert obj.sorted_ids() == arr.sorted_ids()
        assert obj.epoch == arr.epoch
        assert obj.total_zones() == arr.total_zones()
        for nid in (1, 2, 3):
            assert obj.last_heard(nid) == arr.last_heard(nid)
        assert obj.stale_ids(200.0, 150.0) == arr.stale_ids(200.0, 150.0)
        assert obj.records_since(0) == arr.records_since(0)
        for table in (obj, arr):
            assert table.remove(2, now=30.0)
            assert not table.remove(2)
        assert obj.sorted_ids() == arr.sorted_ids()
        assert obj.removals_epoch == arr.removals_epoch
        assert obj.grace_zones(31.0, 100.0) == arr.grace_zones(31.0, 100.0)
        assert obj.snapshot().heard == arr.snapshot().heard

    def test_stale_gossip_cannot_insert(self):
        obj, arr = self.pair()
        for table in (obj, arr):
            # heard_at far beyond the 150s freshness ttl
            assert not table.upsert(rec(1), now=1000.0, heard_at=0.0)
            assert 1 not in table

    def test_snapshot_freezes_state(self):
        obj, arr = self.pair()
        for table in (obj, arr):
            table.upsert(rec(1), now=1.0)
            if table is arr:
                load(arr._store, arr)
            snap = table.snapshot()
            table.upsert(rec(2), now=2.0)
            assert table.heard_from(rec(1), 50.0)
            assert list(snap.records) == [1]
            assert snap.heard == {1: 1.0}
            fresh = table.snapshot()
            assert fresh.heard == {1: 50.0, 2: 2.0}

    def test_records_since_order_and_values(self):
        obj, arr = self.pair()
        for table in (obj, arr):
            table.upsert(rec(1), now=1.0)
            table.upsert(rec(2), now=2.0)
            table.upsert(rec(1, version=1), now=3.0)
        obj_delta = obj.records_since(1)
        arr_delta = arr.records_since(1)
        assert [r.node_id for r, _ in obj_delta] == [
            r.node_id for r, _ in arr_delta
        ]
        assert [h for _, h in obj_delta] == [h for _, h in arr_delta]


#: channel name -> the ``network`` argument a run would hand the factory
CHANNELS = {
    "none": lambda: None,
    "identity": lambda: NetworkSpec().build(np.random.default_rng(1)),
    "loss": lambda: NetworkSpec(loss=0.05).build(np.random.default_rng(1)),
    "flap": lambda: NetworkSpec(
        flaps=(FlapSpec(down=60.0, up=60.0),)
    ).build(np.random.default_rng(1)),
    "latency": lambda: NetworkSpec(
        latency=LatencySpec("constant", low=5.0)
    ).build(np.random.default_rng(1)),
}
IDEAL = {"none", "identity"}


class TestEngineRule:
    """CAN's factory builds one class on every channel, any scheme; its
    tables move into the store at the first exchange iff the channel is
    ideal, and otherwise stay plain for the whole run."""

    @pytest.mark.parametrize("channel", list(CHANNELS))
    @pytest.mark.parametrize("scheme", list(HeartbeatScheme))
    def test_scheme_and_channel_pick_the_class(self, scheme, channel):
        network = CHANNELS[channel]()
        space = ResourceSpace(gpu_slots=0)
        proto = get_substrate("can").make_protocol(
            CanOverlay(space), ProtocolConfig(scheme=scheme), network=network
        )
        assert type(proto) is ArrayHeartbeatProtocol
        # the channel is installed by the factory, not after it
        if network is None:
            assert proto.net.is_identity
        else:
            assert proto.net is network
        rng = np.random.default_rng(5)
        proto.bootstrap(0, space.clamp_point(rng.random(space.dims)))
        for nid in range(1, 12):
            proto.join(nid, space.clamp_point(rng.random(space.dims)), now=0.0)
        for r in range(1, 4):
            proto.run_round(60.0 * r)
        ideal = channel in IDEAL
        assert (proto.store.n_rows > 0) is ideal
        assert (proto.store.n_slots > 0) is ideal


class TestEngineFlag:
    """The ``engine`` option is gone: nothing accepts one any more."""

    def test_build_protocol_rejects_unknown_engine(self):
        overlay = CanOverlay(ResourceSpace(gpu_slots=0))
        with pytest.raises(TypeError):
            ArrayHeartbeatProtocol.build(
                overlay, ProtocolConfig(), None, engine="array"
            )

    def test_churn_config_validates_engine(self):
        with pytest.raises(TypeError):
            ChurnConfig(engine="array")
        with pytest.raises(TypeError):
            ChurnConfig(message_loss=0.1)
        # the channel is said one way, and its range is NetworkSpec's
        with pytest.raises(ValueError):
            NetworkSpec(loss=1.1)

    def test_faulty_config_validates_engine(self):
        from repro.gridsim.config import MatchmakingConfig
        from repro.workload.presets import TINY_LOAD

        with pytest.raises(TypeError):
            FaultyGridConfig(
                matchmaking=MatchmakingConfig(preset=TINY_LOAD), engine="array"
            )


class TestArrayGrowth:
    """Regression: closures must survive the store's array reallocation."""

    def test_version_sink_survives_row_growth(self):
        import itertools

        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        proto = ArrayHeartbeatProtocol(
            overlay, ProtocolConfig(scheme=HeartbeatScheme.VANILLA)
        )
        # tiny capacities: every few joins reallocate the row/slot arrays,
        # so any closure holding a stale array diverges immediately
        proto.store = small_store(rows=2)
        rng = np.random.default_rng(3)
        ids = itertools.count()
        proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
        # a load after every join, so that the joins grow it a row at a time
        # and bump versions through sinks made before the growth
        proto._move_to_arrays()
        for _ in range(11):
            proto.join(
                next(ids), space.clamp_point(rng.random(space.dims)), now=0.0
            )
            proto._move_to_arrays()
        store = proto.store
        assert store.n_rows == 12  # grew well past the initial capacity
        assert any(n.own_version > 0 for n in proto.nodes.values())
        for nid, node in proto.nodes.items():
            assert store.own_version[store.row_of[nid]] == node.own_version


class TestExchangeKernel:
    """The bulk-advance mask semantics, via a tiny real protocol."""

    def test_array_round_advances_freshness_like_object(self):
        import itertools

        protos = {}
        for engine in ("object", "array"):
            space = ResourceSpace(gpu_slots=0)
            overlay = CanOverlay(space)
            proto = ENGINE_CLASSES[engine](
                overlay, ProtocolConfig(scheme=HeartbeatScheme.VANILLA)
            )
            rng = np.random.default_rng(7)
            ids = itertools.count()
            proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
            for _ in range(9):
                proto.join(
                    next(ids), space.clamp_point(rng.random(space.dims)), now=0.0
                )
            for r in range(1, 4):
                proto.run_round(60.0 * r)
            protos[engine] = proto
        obj, arr = protos["object"], protos["array"]
        assert {t.value: c for t, c in obj.stats.count.items()} == {
            t.value: c for t, c in arr.stats.count.items()
        }
        for nid, node in obj.nodes.items():
            anode = arr.nodes[nid]
            for other in node.table.ids():
                assert node.table.last_heard(other) == anode.table.last_heard(
                    other
                )


def _population(engine, scheme, nodes=64, tracer=None):
    """A bootstrapped 11-dimensional CAN on one named heartbeat class."""
    import itertools

    space = ResourceSpace(gpu_slots=2)
    assert space.dims == 11
    proto = ENGINE_CLASSES[engine](
        CanOverlay(space), ProtocolConfig(scheme=scheme), tracer=tracer
    )
    rng = np.random.default_rng(11)
    ids = itertools.count()
    proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
    for _ in range(nodes - 1):
        proto.join(next(ids), space.clamp_point(rng.random(space.dims)), now=0.0)
    return proto, lambda: (next(ids), space.clamp_point(rng.random(space.dims)))


def _rounds(proto, count, now=0.0):
    for _ in range(count):
        now += 60.0
        proto.run_round(now)
    return now


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
class TestSettledStreak:
    """A round with an empty worklist runs when the CAN is quiet, and stops
    for one round when something moved."""

    def test_quiet_rounds_settle(self, scheme):
        proto, _ = _population("array", scheme)
        _rounds(proto, 20)
        assert proto.settled_rounds >= 17

    def test_round_after_churn_is_not_settled(self, scheme):
        proto, newcomer = _population("array", scheme)
        now = _rounds(proto, 5)
        events = (
            lambda t: proto.fail(sorted(proto.overlay.alive_ids())[7], t),
            lambda t: proto.join(*newcomer(), now=t),
            lambda t: proto.graceful_leave(sorted(proto.overlay.alive_ids())[9], t),
        )
        for event in events:
            before = proto.settled_rounds
            now = _rounds(proto, 1, now)
            assert proto.settled_rounds == before + 1
            event(now + 1.0)
            before = proto.settled_rounds
            now = _rounds(proto, 1, now)
            assert proto.settled_rounds == before
            # detection, take-over and repair drain, then rounds settle again
            now = _rounds(proto, 8, now)
            assert proto.settled_rounds > before

    def test_leaver_stored_tables_stay_purged(self, scheme):
        proto, _ = _population("array", scheme)
        now = _rounds(proto, 8)
        assert proto.settled_rounds >= 5
        leaver = min(sid for sid, holders in proto._stored_in.items() if holders)
        proto.graceful_leave(leaver, now + 1.0)
        _rounds(proto, 1, now)
        # write every copy a quiet turn deferred
        for holder in proto.nodes.values():
            for sid in sorted(holder.stored_tables):
                proto._stored_copy(holder, sid)
        assert not proto._pending.any()
        assert not any(leaver in n.stored_tables for n in proto.nodes.values())

    def test_crash_after_streak_claimant_knows_what_object_class_knows(self, scheme):
        payloads = {}
        for engine in ("object", "array"):
            proto, _ = _population(engine, scheme)
            now = _rounds(proto, 8)
            victim = min(sid for sid, holders in proto._stored_in.items() if holders)
            proto.fail(victim, now + 1.0)
            claimants = sorted(proto.overlay.takeover_targets(victim))
            assert claimants
            copies = {
                c: stored_payload(proto, proto.nodes[c], victim) for c in claimants
            }
            # the copy sent in the last round (the first sender in a round
            # has heard nobody yet), not the one that began the streak
            assert all(
                max(heard.values()) >= now - 60.0 for _, heard, _ in copies.values()
            )
            now = _rounds(proto, 4, now)
            assert proto.events["claims"] == 1
            tables = {
                nid: {r.node_id: (r.version, n.table.last_heard(r.node_id))
                      for r in n.table.records()}
                for nid, n in proto.nodes.items()
            }
            payloads[engine] = (copies, tables, proto.stats.totals())
        assert payloads["array"] == payloads["object"]

    def test_traced_run_settles_like_the_untraced_one(self, scheme):
        """A tracer only observes: the traced run takes the same streak."""
        from repro.obs.events import Tracer

        runs = []
        for tracer in (None, Tracer()):
            proto, _ = _population("array", scheme, tracer=tracer)
            now = _rounds(proto, 6)
            proto.fail(sorted(proto.overlay.alive_ids())[7], now + 1.0)
            _rounds(proto, 10, now)
            runs.append(proto)
        plain, traced = runs
        assert plain.settled_rounds > 0
        assert traced.settled_rounds == plain.settled_rounds
        assert traced.stats.count == plain.stats.count
        assert traced.stats.bytes == plain.stats.bytes
        assert list(traced.broken_links.times) == list(plain.broken_links.times)
        assert list(traced.broken_links.values) == list(plain.broken_links.values)


def _turn_inputs(proto):
    """What each member's turn reads of itself — liveness, table epoch,
    version, take-over set — and what a full table delivered *to* it is
    keyed on: version, removals, liveness."""
    overlay = proto.overlay
    own, keyed = {}, {}
    for nid, node in proto.nodes.items():
        alive = overlay.is_alive(nid)
        targets = overlay.takeover_targets(nid) if alive else set()
        own[nid] = (alive, node.table.epoch, node.own_version, targets)
        keyed[nid] = (alive, node.own_version, node.table.removals_epoch)
    return own, keyed


def _suspects(proto):
    """Senders with a delivery that can change its receiver: a live
    neighbour believed that lacks the sender's current record."""
    alive = proto.overlay.is_alive
    found = set()
    for nid, node in proto.nodes.items():
        if not alive(nid):
            continue
        for other in node.table.ids():
            if other in proto.nodes and alive(other):
                rec = proto.nodes[other].table.get(nid)
                if rec is None or rec.version < node.own_version:
                    found.add(nid)
    return found


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
def test_the_round_after_a_join_loops_only_over_moved_senders(scheme):
    """After one join at 64 nodes, the senders the next round takes loud
    turns for are a subset of those whose inputs moved (theirs, or those of
    a node they deliver a full table to) plus the prescan's suspects; every
    other sender is quiet."""
    proto, newcomer = _population("array", scheme)
    now = _rounds(proto, 20)
    settled = proto.settled_rounds
    now = _rounds(proto, 1, now)
    assert proto.settled_rounds == settled + 1
    own_before, keyed_before = _turn_inputs(proto)
    holders_before = {
        sid: {nid for nid, n in proto.nodes.items() if sid in n.processed_epoch}
        for sid in proto.nodes
    }
    proto.join(*newcomer(), now=now + 1.0)
    suspects = _suspects(proto)
    quiet = proto.quiet_turns
    _rounds(proto, 1, now)
    own_after, keyed_after = _turn_inputs(proto)
    senders = [
        nid for nid, n in proto.nodes.items()
        if proto.overlay.is_alive(nid) and len(n.table)
    ]
    moved = {
        nid
        for nid in senders
        if own_before.get(nid) != own_after[nid]
        or any(
            keyed_before.get(h) != keyed_after.get(h)
            for h in holders_before.get(nid, set())
            | {h for h, n in proto.nodes.items() if nid in n.processed_epoch}
        )
    }
    # a quiet sender's holders are left with a deferred copy
    row_of = proto.store.row_of
    loud = {nid for nid in senders if not proto._pending[row_of[nid]]}
    assert proto.quiet_turns - quiet == len(senders) - len(loud) > 0
    assert loud <= moved | suspects
    assert len(moved | suspects) < len(senders)


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
def test_a_holders_new_version_puts_its_senders_on_the_worklist(scheme):
    """A full table delivered to a node whose version moved is re-merged,
    as the object class does, even when nothing the sender reads of
    itself moved.  The sender here takes its turn before the holder's, so
    no heartbeat of the holder's reaches it first and makes it loud."""
    merged = {}
    for engine in ("object", "array"):
        proto, _ = _population(engine, scheme)
        now = _rounds(proto, 8)
        sender, holder = min(
            (sid, hid)
            for hid, node in proto.nodes.items()
            for sid in node.processed_epoch
            if sid < hid
        )
        proto.nodes[holder].bump_version()
        _rounds(proto, 1, now)
        merged[engine] = {
            nid: dict(node.processed_epoch) for nid, node in proto.nodes.items()
        }
        assert merged[engine][holder][sender][1] == proto.nodes[holder].own_version
    assert merged["array"] == merged["object"]


def test_a_tracer_selects_no_path():
    """The array class never looks at its tracer, and no send is accounted
    through a wrapper that could mirror it onto one: ``stats.record`` is
    called directly everywhere."""
    import ast
    from pathlib import Path

    import repro
    import repro.can.soa

    soa = ast.parse(Path(repro.can.soa.__file__).read_text())
    reads = [
        node.lineno
        for node in ast.walk(soa)
        if (isinstance(node, ast.Attribute) and node.attr == "tracer")
        or (isinstance(node, ast.Name) and node.id == "tracer")
    ]
    assert reads == [], f"can/soa.py reads a tracer at lines {reads}"
    wrappers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "_record"
    ]
    assert wrappers == [], f"a _record method is defined at {wrappers}"


def test_detecting_a_crash_does_not_import_numpy_ma():
    """np.unique's first call imports numpy.ma: 8.5 ms inside one round."""
    import os
    import subprocess
    import sys

    script = """
import sys
from tests.can.test_soa import _population, _rounds
from repro.can.heartbeat import HeartbeatScheme
before = "numpy.ma" in sys.modules
proto, _ = _population("array", HeartbeatScheme.ADAPTIVE, nodes=16)
now = _rounds(proto, 2)
proto.fail(3, now + 1.0)
_rounds(proto, 4, now)
assert proto.events["claims"] == 1
print(before, "numpy.ma" in sys.modules)
"""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        cwd=root, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.parametrize(
    "shape",
    [
        CASES["fig8"],  # sparse: most rounds settle, the total stands still
        CASES["fig7"],  # dense: joins, crashes and take-overs every round
        dict(CASES["fig7"], leave_mode="graceful"),
    ],
    ids=["sparse", "dense", "graceful"],
)
def test_the_cached_broken_link_total_is_a_recount(shape):
    """The array class returns its previous total while ``topology_version``
    and ``struct_gen`` stand still; recounted from scratch after every
    round (and after the events in between), nothing else moves it."""
    sim = ChurnSimulation(
        ChurnConfig(scheme=HeartbeatScheme.ADAPTIVE, seed=20110926, **shape)
    )
    proto = sim.protocol
    assert type(proto) is ArrayHeartbeatProtocol
    run_round = proto.run_round
    kept = []

    def checked_round(now):
        # what happened since the last round may not read the cached total
        assert proto.count_broken_links() == _brute_broken_links(proto)
        before = proto._broken_total
        run_round(now)
        assert proto.count_broken_links() == _brute_broken_links(proto)
        assert proto.broken_links.values[-1] == _brute_broken_links(proto)
        kept.append(proto._broken_total == before)

    proto.run_round = checked_round
    sim.run()
    assert True in kept and False in kept
