"""Unit tests for believed neighbor tables."""

from repro.can.geometry import Zone
from repro.can.neighbor import BeliefRecord, NeighborTable


def record(nid=1, version=0, lo=(1.0, 0.0), hi=(2.0, 1.0)):
    return BeliefRecord(
        node_id=nid, version=version, zones=(Zone(lo, hi),), coord=(1.5, 0.5)
    )


OWN = [Zone((0.0, 0.0), (1.0, 1.0))]

#: the failure timeout a run builds its tables with: 2.5 periods of 60 s
TTL = 150.0


class TestBeliefRecord:
    def test_abuts_any(self):
        assert record().abuts_any(OWN)
        far = record(lo=(5.0, 0.0), hi=(6.0, 1.0))
        assert not far.abuts_any(OWN)

    def test_zone_count(self):
        assert record().zone_count == 1


class TestUpsert:
    def test_insert_and_get(self):
        t = NeighborTable(TTL)
        assert t.upsert(record(), now=10.0, heard=True)
        assert 1 in t
        assert t.get(1).version == 0
        assert t.last_heard(1) == 10.0
        assert len(t) == 1

    def test_newer_version_wins(self):
        t = NeighborTable(TTL)
        t.upsert(record(version=2), 0.0, heard=True)
        assert not t.upsert(record(version=1), 1.0)  # older rejected
        assert t.get(1).version == 2
        assert t.upsert(record(version=3), 2.0)
        assert t.get(1).version == 3

    def test_gossip_does_not_refresh_liveness(self):
        t = NeighborTable(TTL)
        t.upsert(record(version=0), 0.0, heard=True)
        t.upsert(record(version=0), 50.0, heard=False, heard_at=0.0)
        assert t.last_heard(1) == 0.0

    def test_gossip_freshness_moves_forward_only(self):
        t = NeighborTable(TTL)
        t.upsert(record(), 0.0, heard=True)
        t.upsert(record(), 60.0, heard=False, heard_at=40.0)
        assert t.last_heard(1) == 40.0
        t.upsert(record(), 70.0, heard=False, heard_at=10.0)
        assert t.last_heard(1) == 40.0  # never backwards

    def test_stale_gossip_cannot_insert(self):
        t = NeighborTable(freshness_ttl=100.0)
        assert not t.upsert(record(), now=500.0, heard=False, heard_at=10.0)
        assert 1 not in t
        # fresh gossip can
        assert t.upsert(record(), now=500.0, heard=False, heard_at=450.0)

    def test_direct_contact_always_inserts(self):
        t = NeighborTable(freshness_ttl=1.0)
        assert t.upsert(record(), now=1000.0, heard=True)

    def test_epoch_bumps_on_change_only(self):
        t = NeighborTable(TTL)
        e0 = t.epoch
        t.upsert(record(version=1), 0.0, heard=True)
        e1 = t.epoch
        assert e1 > e0
        t.upsert(record(version=1), 5.0, heard=True)  # same content
        assert t.epoch == e1
        t.upsert(record(version=2), 6.0, heard=True)
        assert t.epoch > e1


class TestLifecycle:
    def test_remove(self):
        t = NeighborTable(TTL)
        t.upsert(record(), 0.0, heard=True)
        assert t.remove(1)
        assert 1 not in t
        assert not t.remove(1)

    def test_stale_ids(self):
        t = NeighborTable(TTL)
        t.upsert(record(nid=1), 0.0, heard=True)
        t.upsert(record(nid=2, lo=(0.0, 1.0), hi=(1.0, 2.0)), 80.0, heard=True)
        assert t.stale_ids(now=100.0, timeout=50.0) == [1]


class TestSnapshot:
    def test_snapshot_contents(self):
        t = NeighborTable(TTL)
        t.upsert(record(), 12.0, heard=True)
        snap = t.snapshot()
        rec, heard_at = snap[1]
        assert rec.node_id == 1
        assert heard_at == 12.0

    def test_snapshot_cached_until_mutation(self):
        t = NeighborTable(TTL)
        t.upsert(record(), 0.0, heard=True)
        s1 = t.snapshot()
        assert t.snapshot() is s1  # cached
        assert t.heard_from(record(), 5.0)
        s2 = t.snapshot()
        assert s2 is not s1
        assert s2[1][1] == 5.0

    def test_snapshot_invalidated_by_remove(self):
        t = NeighborTable(TTL)
        t.upsert(record(), 0.0, heard=True)
        s1 = t.snapshot()
        t.remove(1)
        assert 1 not in t.snapshot()

    def test_snapshot_frozen_against_later_mutation(self):
        """Copy-on-write: a handed-out snapshot keeps capture-time state."""
        t = NeighborTable(TTL)
        t.upsert(record(nid=1), 0.0, heard=True)
        snap = t.snapshot()
        t.upsert(record(nid=2, lo=(0.0, 1.0), hi=(1.0, 2.0)), 1.0, heard=True)
        assert t.heard_from(record(nid=1), 9.0)
        t.remove(1)
        assert list(snap) == [1]
        assert snap[1][1] == 0.0
        assert len(snap) == 1 and snap.total_zones == 1
        fresh = t.snapshot()
        assert 1 not in fresh and 2 in fresh

    def test_snapshot_iteration_matches_table(self):
        t = NeighborTable(TTL)
        t.upsert(record(nid=1), 0.0, heard=True)
        t.upsert(record(nid=2, lo=(0.0, 1.0), hi=(1.0, 2.0)), 3.0, heard=True)
        snap = t.snapshot()
        assert list(snap.pairs()) == [snap[nid] for nid in snap]
        assert [rec.node_id for rec, _ in snap.pairs()] == list(snap.records)
        assert [heard for _, heard in snap.pairs()] == [0.0, 3.0]


class TestIncrementals:
    def test_total_zones_tracks_changes(self):
        t = NeighborTable(TTL)
        assert t.total_zones() == 0
        t.upsert(record(nid=1), 0.0, heard=True)
        assert t.total_zones() == 1
        two_zones = BeliefRecord(
            node_id=1,
            version=1,
            zones=(Zone((1.0, 0.0), (2.0, 1.0)), Zone((2.0, 0.0), (3.0, 1.0))),
            coord=(1.5, 0.5),
        )
        t.upsert(two_zones, 1.0, heard=True)
        assert t.total_zones() == 2
        t.remove(1)
        assert t.total_zones() == 0

    def test_sorted_ids_cached_and_refreshed(self):
        t = NeighborTable(TTL)
        t.upsert(record(nid=5), 0.0, heard=True)
        t.upsert(record(nid=2, lo=(0.0, 1.0), hi=(1.0, 2.0)), 0.0, heard=True)
        first = t.sorted_ids()
        assert first == [2, 5]
        assert t.sorted_ids() is first  # cached while unchanged
        t.upsert(record(nid=9, lo=(1.0, 1.0), hi=(2.0, 2.0)), 0.0, heard=True)
        assert t.sorted_ids() == [2, 5, 9]
        assert first == [2, 5]  # old list untouched (rebind, not mutate)

    def test_heard_from_fast_path(self):
        t = NeighborTable(TTL)
        assert not t.heard_from(record(), 5.0)  # unknown: full path needed
        t.upsert(record(version=1), 0.0, heard=True)
        epoch = t.epoch
        assert t.heard_from(record(version=1), 7.0)
        assert t.last_heard(1) == 7.0
        assert t.epoch == epoch  # liveness only, no structural change
        assert t.heard_from(record(version=0), 9.0)  # older version: absorbed
        assert t.get(1).version == 1
        assert not t.heard_from(record(version=2), 10.0)  # newer: full path
