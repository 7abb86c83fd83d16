"""The array class moves its tables into the store at its first exchange.

Until its first exchange :class:`ArrayHeartbeatProtocol` holds the object
class's plain tables and runs the object class's code on them; the first
exchange moves every table into the :class:`EdgeStore` in one pass
(``_move_to_arrays``), and every exchange after it loads what changed.
Two things hold that together:

* before the move the array class *is* the object class: a crash, a
  graceful leave, a join refused into a dead owner's zone, the broken-link
  count, belief routing and the invariant audit read the same on both, and
  the rounds after each send the same messages and emit the same events;
* every load leaves the store as one load of every table would, edge by
  edge: the subject's row, the version, the freshness and the reverse
  partner, however many tables changed since the last load, between the
  exchanges or during them.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.neighbor import NeighborTable
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol, ArrayNeighborTable, EdgeStore
from repro.can.space import ResourceSpace
from repro.gridsim import ChurnConfig, ChurnSimulation
from repro.obs.events import Tracer
from tests.can.hb_golden import ENGINE_CLASSES, pinned_engine

PERIOD = 60.0


# ------------------------------------------ before the first exchange --
def bootstrapped(engine: str, scheme: HeartbeatScheme, nodes: int = 40):
    """A 5-dim population grown by joins on one class, no round run yet,
    and the trace it writes from here on."""
    config = ChurnConfig(
        initial_nodes=nodes, gpu_slots=0, scheme=scheme, seed=20110926
    )
    trace = []
    tracer = Tracer()
    tracer.subscribe(
        lambda e: trace.append((e.t, e.etype, sorted(e.fields.items())))
    )
    with pinned_engine(engine):
        sim = ChurnSimulation(config, tracer=tracer)
    sim.bootstrap_population()
    assert type(sim.protocol) is ENGINE_CLASSES[engine]
    return sim, trace


def inside(proto, node_id):
    """A point in ``node_id``'s first zone, off its own coordinate."""
    zone = proto.overlay.zones_of(node_id)[0]
    return tuple(lo + (hi - lo) * 0.37 for lo, hi in zip(zone.lo, zone.hi))


def busiest(proto) -> int:
    alive = sorted(proto.overlay.alive_ids())
    return max(alive, key=lambda n: len(proto.nodes[n].table))


def apply(sim, case: str) -> None:
    """One membership change before any round."""
    proto = sim.protocol
    victim = busiest(proto)
    if case == "crash":
        sim.crash_node(victim)
    elif case == "leave":
        proto.graceful_leave(victim, now=0.0)
    elif case == "refused-join":
        sim.crash_node(victim)
        # the point's owner is dead and unclaimed: the join is refused and
        # queued, and every round retries it until the take-over
        assert not proto.join(10_000, inside(proto, victim), now=0.0)
        assert proto._pending_joins


def reading(sim):
    """What a run reads of believed state between rounds."""
    proto = sim.protocol
    rng = np.random.default_rng(7)
    alive = sorted(proto.overlay.alive_ids())
    routes = []
    for _ in range(40):
        start = alive[int(rng.integers(len(alive)))]
        point = sim.space.clamp_point(rng.random(sim.space.dims))
        result = sim.substrate.route_on_beliefs(proto, start, point)
        routes.append((result.path, result.delivered))
    sim.check_invariants()
    return {
        "broken": proto.count_broken_links(),
        "routes": routes,
        "tables": {
            nid: [(sid, rec.version) for sid, rec in pnode.table._records.items()]
            for nid, pnode in sorted(proto.nodes.items())
        },
    }


def round_outcome(proto):
    return {
        "count": {t.value: c for t, c in proto.stats.count.items()},
        "bytes": {t.value: c for t, c in proto.stats.bytes.items()},
        "events": dict(proto.events),
        "broken": proto.count_broken_links(),
    }


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
@pytest.mark.parametrize("case", ["crash", "leave", "refused-join"])
def test_before_its_first_exchange_the_array_class_is_the_object_class(case, scheme):
    runs = {}
    for engine in ("object", "array"):
        sim, trace = bootstrapped(engine, scheme)
        apply(sim, case)
        proto = sim.protocol
        if engine == "array":
            assert all(type(n.table) is NeighborTable for n in proto.nodes.values())
            assert not proto.store.n_rows
        before = reading(sim)
        rounds = []
        # the first round moves the array class's tables; the crash is
        # timed out and its zone claimed (a refused join lands) by the fourth
        for k in range(1, 5):
            proto.run_round(k * PERIOD)
            rounds.append(round_outcome(proto))
            if engine == "array":
                assert proto.store.n_rows
        sim.check_invariants()
        runs[engine] = (before, rounds, trace)
    assert runs["array"] == runs["object"]
    assert runs["array"][1][0]["count"]


# ------------------------------------------------- the load, oracle --
def fresh_load(proto) -> EdgeStore:
    """One load of every table from its entries, into a new store with the
    protocol's rows: what the loads the protocol ran must have left."""
    store, ours = EdgeStore(), proto.store
    for nid in ours.node_of_row:
        store.alloc_row(nid)
    n = ours.n_rows
    store.alive[:n] = ours.alive[:n]
    store.own_version[:n] = ours.own_version[:n]
    tables = [proto.nodes[nid].table for nid in sorted(proto.nodes)]
    records = [table._records for table in tables]
    store.load_slots(
        np.array([table._row for table in tables], dtype=np.int64),
        np.full(len(tables), -1, dtype=np.int64),
        np.array([len(r) for r in records], dtype=np.int64),
        np.array(
            [store.row_of.get(sid, -1) for r in records for sid in r], dtype=np.int64
        ),
        np.array([rec.version for r in records for rec in r.values()], dtype=np.int64),
        np.array([t.last_heard(n) for t in tables for n in t._records]),
    )
    return store


def edges(proto, store):
    """Every believed entry as ``store`` holds it, by (owner, subject) id:
    the subject's row (as the id it belongs to) and its liveness, the
    version, the freshness and the reverse slot's (owner, subject).  Tables
    lie in sender order, each in record order."""
    node_of = store.node_of_row
    out = {}
    slot = 0
    for nid in sorted(proto.nodes):
        table = proto.nodes[nid].table
        assert isinstance(table, ArrayNeighborTable)
        for sid in table._records:
            assert store.owner_row[slot] == store.row_of[nid]
            row, rev = int(store.subj_row[slot]), int(store.rev[slot])
            out[nid, sid] = (
                None if row < 0 else (node_of[row], bool(store.alive[row])),
                int(store.edge_version[slot]),
                float(store.eh[slot]),
                None if rev < 0
                else (node_of[store.owner_row[rev]], node_of[store.subj_row[rev]]),
            )
            slot += 1
    assert slot == store.n_slots
    return out


def read_at_each_exchange(proto):
    """Every table's entries (subject, version, freshness) as each exchange
    of ``proto`` starts, appended to the list returned."""
    reads = []
    exchange = proto._exchange_heartbeats

    def reading(now):
        reads.append([
            (nid, [
                (sid, rec.version, float(node.table.last_heard(sid)))
                for sid, rec in node.table._records.items()
            ])
            for nid, node in sorted(proto.nodes.items())
        ])
        exchange(now)

    proto._exchange_heartbeats = reading
    return reads


def checked_loads(proto, seen):
    """Hold every load ``proto`` runs against :func:`fresh_load`."""
    load = proto._move_to_arrays

    def checked():
        load()
        for table in (node.table for node in proto.nodes.values()):
            assert len(table._at) == len(table) and not table._last_heard
            assert table._base + len(table) <= proto.store.n_slots
        got, want = edges(proto, proto.store), edges(proto, fresh_load(proto))
        assert got == want
        assert proto.store.rowless == fresh_load(proto).rowless
        seen["loads"] += 1
        seen["partners"] += sum(e[3] is not None for e in got.values())
        seen["dead"] += sum(e[0] is not None and not e[0][1] for e in got.values())

    proto._move_to_arrays = checked


#: ``departures``: nodes leave gracefully, else they crash
@pytest.mark.parametrize("departures", [False, True])
@pytest.mark.parametrize("seed", [2, 5])
def test_the_bulk_move_equals_the_incremental_path(seed, departures, monkeypatch):
    """Every load of a dense churn run (joins, crashes or graceful leaves,
    take-overs, repairs between the exchanges; merges, inserts and removals
    during them) leaves what one load of every table would, per edge, with
    the tables reading what the object class's read at every exchange; and
    a full load in its place runs the next round the same."""
    seen = {"loads": 0, "partners": 0, "dead": 0, "during": 0, "between": 0}
    editing = ArrayNeighborTable._editing

    def counted(table, node_id, removal):
        seen["during" if table._store.adv_mask is not None else "between"] += 1
        editing(table, node_id, removal)

    monkeypatch.setattr(ArrayNeighborTable, "_editing", counted)
    for scheme in (HeartbeatScheme.VANILLA, HeartbeatScheme.ADAPTIVE):
        config = ChurnConfig(
            initial_nodes=40,
            gpu_slots=0,
            scheme=scheme,
            event_gap_mean=20.0,
            leave_mode="graceful" if departures else "fail",
            duration=10 * PERIOD,
            seed=seed,
        )
        beliefs = {}
        for engine in ("object", "array"):
            with pinned_engine(engine):
                sim = ChurnSimulation(config)
            proto = sim.protocol
            beliefs[engine] = read_at_each_exchange(proto)
            if engine == "array":
                checked_loads(proto, seen)
            sim.run()
            sim.check_invariants()
        # what the tables hold, freshness included, as the object class
        assert beliefs["array"] == beliefs["object"]
        # the same tables, every one loaded afresh, run the next round alike
        twin = copy.deepcopy(proto)
        # the twin loads unchecked, unread
        del twin._move_to_arrays, twin._exchange_heartbeats
        twin.store.edited.update(
            node.table._row for node in twin.nodes.values()
            if isinstance(node.table, ArrayNeighborTable)
        )
        now = sim.env.now + config.heartbeat_period
        for p in (proto, twin):
            p.run_round(now)
            p._move_to_arrays()
        assert round_outcome(proto) == round_outcome(twin)
        assert edges(proto, proto.store) == edges(twin, twin.store)
        assert proto.events["joins"] > 40
        assert proto.events["leaves" if departures else "claims"] > 0
    assert seen["loads"] > 10 and seen["partners"]
    assert seen["during"] and seen["between"]
    # a crashed member is believed until it is timed out: loads hold it
    assert bool(seen["dead"]) is not departures


def test_the_move_takes_a_shared_record_dict_over_copy_on_write():
    """A snapshot taken of a plain table keeps its records through the move
    and the array table's next change."""
    space = ResourceSpace(gpu_slots=0)
    proto = ArrayHeartbeatProtocol(CanOverlay(space), ProtocolConfig(period=PERIOD))
    rng = np.random.default_rng(1)
    proto.bootstrap(0, space.clamp_point(rng.random(space.dims)))
    for nid in range(1, 8):
        proto.join(nid, space.clamp_point(rng.random(space.dims)), now=0.0)
    node = proto.nodes[busiest(proto)]
    snap = node.table.snapshot()
    held = dict(snap.records)
    proto._move_to_arrays()
    assert node.table._records is snap.records
    assert node.table.remove(next(iter(held)))
    assert snap.records == held
