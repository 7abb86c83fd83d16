"""The array class moves its tables into the store at its first exchange.

Until its first exchange :class:`ArrayHeartbeatProtocol` holds the object
class's plain tables and runs the object class's code on them; the first
exchange moves every table into the :class:`EdgeStore` in one pass
(``_move_to_arrays``).  Two things hold that together:

* before the move the array class *is* the object class: a crash, a
  graceful leave, a join refused into a dead owner's zone, the broken-link
  count, belief routing and the invariant audit read the same on both, and
  the rounds after each send the same messages and emit the same events;
* the bulk move leaves the store as the incremental path leaves it for the
  same tables (one ``alloc_slot`` per entry, which every join after the
  first round takes): per entry the subject's row, the version, the
  freshness and the reverse slot, and the round after it runs the same.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.can.heartbeat import HeartbeatScheme, ProtocolConfig
from repro.can.neighbor import NeighborTable
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol, ArrayNeighborTable
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
            assert not proto._in_store
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
                assert proto._in_store
        sim.check_invariants()
        runs[engine] = (before, rounds, trace)
    assert runs["array"] == runs["object"]
    assert runs["array"][1][0]["count"]


# ---------------------------------------------- the bulk move, oracle --
def grown(
    moved_first: bool, nodes: int, seed: int, departures: bool = False
) -> ArrayHeartbeatProtocol:
    """An 8-dim population of ``nodes`` joins on the array class, moved into
    the store after the joins (one bulk move) or after the first node (so
    every join takes the incremental slot path).  Join ``i`` lands at
    ``now = i``, so freshness tells entries apart.  With ``departures`` the
    busiest node leaves gracefully and the next busiest crashes after the
    joins, before the bulk move."""
    space = ResourceSpace(gpu_slots=1)
    proto = ArrayHeartbeatProtocol(
        CanOverlay(space),
        ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE, period=PERIOD),
    )
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    proto.bootstrap(next(ids), space.clamp_point(rng.random(space.dims)))
    if moved_first:
        proto._move_to_arrays()
    for i in range(1, nodes):
        proto.join(next(ids), space.clamp_point(rng.random(space.dims)), now=float(i))
    if departures:
        proto.graceful_leave(busiest(proto), now=float(nodes))
        proto.fail(busiest(proto), now=float(nodes))
    assert proto._in_store is moved_first
    proto._move_to_arrays()
    return proto


def entries(proto):
    """Every table's entries as the store holds them, by node id: the
    subject's row (as the id it belongs to), version, freshness and the
    reverse slot's (owner, subject)."""
    store = proto.store
    node_of = store.node_of_row
    out = {}
    for nid, pnode in sorted(proto.nodes.items()):
        table = pnode.table
        assert isinstance(table, ArrayNeighborTable)
        assert list(table._slots) == list(table._records)
        slots = table.slot_vector()
        assert (store.owner_row[slots] == store.row_of[nid]).all()
        assert store.active[slots].all()
        partners = []
        for s in slots.tolist():
            r = int(store.rev[s])
            partners.append(
                None if r < 0
                else (node_of[store.owner_row[r]], node_of[store.subj_row[r]])
            )
        out[nid] = {
            "records": [(sid, rec.version) for sid, rec in table._records.items()],
            "subjects": [
                node_of[r] if r >= 0 else None for r in store.subj_row[slots].tolist()
            ],
            "versions": store.edge_version[slots].tolist(),
            "heard": store.eh[slots].tolist(),
            "partners": partners,
            "own": (
                int(store.own_version[store.row_of[nid]]),
                bool(store.alive[store.row_of[nid]]),
            ),
            "seq": list(table._record_seq.items()),
            "epochs": (table.epoch, table.removals_epoch, table._total_zones),
        }
    return out


@pytest.mark.parametrize("departures", [False, True])
@pytest.mark.parametrize("seed", [2, 5])
def test_the_bulk_move_equals_the_incremental_path(seed, departures):
    bulk, incremental = (
        grown(first, 60, seed, departures) for first in (False, True)
    )
    got, want = entries(bulk), entries(incremental)
    assert got == want
    if departures:
        # the crashed node is a member until its zone is claimed: a dead
        # row on both paths, still believed
        (crashed,) = (n for n in bulk.nodes if not bulk.overlay.is_alive(n))
        assert got[crashed]["own"][1] is False
        assert any(crashed in e["subjects"] for e in got.values())
        # the leaver's hand-off reached every table that held it: no slot
        # is left pointing at the dead row it has on the incremental path
        (left,) = set(incremental.store.node_of_row) - set(incremental.nodes)
        assert left not in bulk.store.row_of
        assert not any(left in e["subjects"] for e in want.values())
    # a mutual belief links both ways: the partner is (subject, owner)
    assert all(
        p == (subject, nid)
        for nid, e in got.items()
        for subject, p in zip(e["subjects"], e["partners"])
        if p is not None
    )
    assert any(p is not None for e in got.values() for p in e["partners"])
    assert bulk.store.rowless == incremental.store.rowless
    # the bulk store is packed: its slots are the live ones of the other
    assert not bulk.store.free_slots
    assert bulk.store.n_slots == (
        incremental.store.n_slots - len(incremental.store.free_slots)
    )
    assert len({h for e in got.values() for h in e["heard"]}) > 10
    for proto in (bulk, incremental):
        proto.run_round(PERIOD)
    assert round_outcome(bulk) == round_outcome(incremental)
    assert entries(bulk) == entries(incremental)


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
