"""Range queries: z-order box covers and owner resolution on the ring."""

import importlib
import random

from repro.can.space import ResourceSpace
from repro.chord.keyspace import ChordKeyspace
from repro.chord.range_query import box_key_intervals, range_query
from repro.chord.ring import ChordRing


def in_cover(intervals, key):
    return any(iv.lo <= key <= iv.hi for iv in intervals)


def random_box(rng, dims):
    lows, highs = [], []
    for _ in range(dims):
        a, b = sorted((rng.random(), rng.random()))
        lows.append(a)
        highs.append(b)
    return lows, highs


def test_intervals_are_sorted_disjoint_and_merged():
    ks = ChordKeyspace(3)
    rng = random.Random(1)
    for _ in range(25):
        lows, highs = random_box(rng, 3)
        ivs = box_key_intervals(ks, lows, highs)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi < b.lo  # disjoint, sorted
            assert a.hi + 1 < b.lo  # adjacent ones would have been merged
        for iv in ivs:
            assert iv.lo <= iv.hi


def test_cover_contains_every_inside_point():
    """Soundness: any point inside the box has its key inside the cover."""
    rng = random.Random(2)
    for dims in (2, 4, 7):
        ks = ChordKeyspace(dims)
        for _ in range(10):
            lows, highs = random_box(rng, dims)
            ivs = box_key_intervals(ks, lows, highs)
            assert ivs
            for _ in range(50):
                point = [
                    lo + rng.random() * (hi - lo)
                    for lo, hi in zip(lows, highs)
                ]
                assert in_cover(ivs, ks.point_key(point))
                # node keys differ only in (fully covered) tiebreak bits
                assert in_cover(ivs, ks.node_key(rng.randrange(10**6), point))


def test_cover_excludes_far_outside_points():
    """The cover is tight on coarse bits: points far outside the box (a
    different top-level cell in some dimension) fall outside it."""
    ks = ChordKeyspace(2)
    ivs = box_key_intervals(ks, [0.0, 0.0], [0.2, 0.2])
    for point in ([0.9, 0.9], [0.6, 0.1], [0.1, 0.7]):
        assert not in_cover(ivs, ks.point_key(point))


def test_full_space_box_is_one_interval():
    ks = ChordKeyspace(5)
    ivs = box_key_intervals(ks, [0.0] * 5, [1.0] * 5)
    assert len(ivs) == 1
    assert ivs[0].lo == 0


def test_depth_cap_bounds_interval_count(monkeypatch):
    # the package re-exports the function under the module's name
    module = importlib.import_module("repro.chord.range_query")
    ks = ChordKeyspace(6)
    rng = random.Random(3)
    for depth in (2, 4, 8):
        lows, highs = random_box(rng, 6)
        monkeypatch.setattr(module, "MAX_SPLIT_DEPTH", depth)
        ivs = box_key_intervals(ks, lows, highs)
        assert len(ivs) <= 1 << depth


def test_range_query_matches_are_exact_and_owned():
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(4)
    coords = {}
    for nid in range(60):
        coord = [rng.random() for _ in range(space.dims)]
        ring.add_node(nid, coord)
        coords[nid] = coord
    for _ in range(20):
        lows, highs = random_box(rng, space.dims)
        result = range_query(ring, lows, highs)
        expect = {
            nid
            for nid, c in coords.items()
            if all(lo <= x <= hi for x, lo, hi in zip(c, lows, highs))
        }
        assert set(result.matches) == expect
        # every exact match is reachable through the resolved arc owners
        assert set(result.matches) <= set(result.owners)
        for owner in result.owners:
            assert ring.is_alive(owner)


def test_range_query_skips_dead_members_in_matches():
    space = ResourceSpace(gpu_slots=1)
    ring = ChordRing(space)
    rng = random.Random(6)
    for nid in range(20):
        ring.add_node(nid, [rng.random() for _ in range(space.dims)])
    dead = sorted(ring.members)[:5]
    for nid in dead:
        ring.fail(nid)
    result = range_query(ring, [0.0] * space.dims, [1.0] * space.dims)
    assert not set(result.matches) & set(dead)
    assert set(result.matches) == set(ring.alive_ids())
