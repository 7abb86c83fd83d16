"""Unit + property tests for the authoritative CAN overlay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.overlay import CanOverlay, OverlayError
from repro.can.space import ResourceSpace

from tests.conftest import build_overlay


def random_coords(n, dims, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.random(dims) * 0.998 + 0.001) for _ in range(n)]


def grown_overlay(n=30, gpu_slots=0, seed=0) -> CanOverlay:
    space = ResourceSpace(gpu_slots=gpu_slots)
    overlay = CanOverlay(space)
    for i, coord in enumerate(random_coords(n, space.dims, seed)):
        overlay.add_node(i, coord)
    return overlay


class TestJoin:
    def test_bootstrap_owns_everything(self):
        overlay = build_overlay([(0.5,) * 5])
        assert overlay.size == 1
        assert overlay.locate_owner((0.9,) * 5) == 0
        overlay.check_invariants()

    def test_join_splits_containing_zone(self):
        overlay = build_overlay([(0.2,) * 5, (0.8,) * 5])
        assert overlay.size == 2
        assert overlay.locate_owner((0.1,) * 5) == 0
        assert overlay.locate_owner((0.9,) * 5) == 1
        overlay.check_invariants()

    def test_zone_contains_own_coordinate(self):
        overlay = grown_overlay(40)
        for nid in overlay.alive_ids():
            coord = overlay.coordinate(nid)
            assert any(
                z.contains_closed(coord) for z in overlay.zones_of(nid)
            ), f"node {nid} lost its coordinate"

    def test_duplicate_id_rejected(self):
        overlay = build_overlay([(0.5,) * 5])
        with pytest.raises(OverlayError):
            overlay.add_node(0, (0.1,) * 5)

    def test_wrong_dims_rejected(self):
        overlay = build_overlay([(0.5,) * 5])
        with pytest.raises(OverlayError):
            overlay.add_node(1, (0.5, 0.5))

    def test_identical_coordinates_rejected(self):
        overlay = build_overlay([(0.5,) * 5])
        with pytest.raises(OverlayError):
            overlay.add_node(1, (0.5,) * 5)

    def test_neighbors_symmetric(self):
        overlay = grown_overlay(50)
        for nid in overlay.alive_ids():
            for other in overlay.neighbors(nid):
                assert nid in overlay.neighbors(other)

    def test_neighbors_along_directionality(self):
        overlay = grown_overlay(30)
        for nid in overlay.alive_ids():
            (mine,) = overlay.zones_of(nid)
            for dim in range(overlay.space.dims):
                for other in overlay.neighbors_along(nid, dim):
                    # across our high face: its zone starts where ours ends,
                    # and the +1 view from the other node does not see us
                    (theirs,) = overlay.zones_of(other)
                    assert theirs.lo[dim] == pytest.approx(mine.hi[dim])
                    assert nid not in overlay.neighbors_along(other, dim)

    def test_neighbors_union_over_dims(self):
        overlay = grown_overlay(25)
        ids = overlay.alive_ids()
        dims = range(overlay.space.dims)
        # the -1 side of a node is the +1 view from the other nodes
        below = {nid: set() for nid in ids}
        for nid in ids:
            for dim in dims:
                for other in overlay.neighbors_along(nid, dim):
                    below[other].add(nid)
        for nid in ids:
            via_dims = set(below[nid])
            for dim in dims:
                via_dims |= overlay.neighbors_along(nid, dim)
            assert via_dims == overlay.neighbors(nid)


class TestLeaveAndClaim:
    def test_graceful_leave_transfers_zones(self):
        overlay = grown_overlay(20)
        victim = 7
        transfers = overlay.graceful_leave(victim)
        assert transfers, "zones must be handed off"
        assert all(t.from_node == victim for t in transfers)
        assert victim not in overlay.members
        overlay.check_invariants()

    def test_leave_all_but_one(self):
        overlay = grown_overlay(10)
        for nid in range(9):
            overlay.graceful_leave(nid)
            overlay.check_invariants()
        assert overlay.size == 1
        # the survivor owns the whole space again
        assert overlay.locate_owner((0.5,) * 5) == 9

    def test_fail_keeps_ghost_until_claim(self):
        overlay = grown_overlay(15)
        overlay.fail(3)
        assert not overlay.is_alive(3)
        assert 3 in overlay.members
        transfers = overlay.claim_zones(3)
        assert transfers
        assert 3 not in overlay.members
        overlay.check_invariants()

    def test_double_fail_rejected(self):
        overlay = grown_overlay(5)
        overlay.fail(0)
        with pytest.raises(OverlayError):
            overlay.fail(0)

    def test_claim_requires_failure(self):
        overlay = grown_overlay(5)
        with pytest.raises(OverlayError):
            overlay.claim_zones(0)

    def test_join_into_dead_zone_deferred(self):
        overlay = grown_overlay(5)
        victim = overlay.locate_owner((0.5,) * 5)
        overlay.fail(victim)
        with pytest.raises(OverlayError):
            overlay.add_node(99, (0.5,) * 5)

    def test_claims_exclude_dead_claimants(self):
        overlay = grown_overlay(20, seed=5)
        overlay.fail(1)
        overlay.fail(2)
        t1 = overlay.claim_zones(1)
        assert all(t.to_node != 2 for t in t1)
        t2 = overlay.claim_zones(2)
        assert all(overlay.is_alive(t.to_node) for t in t2)
        overlay.check_invariants()

    def test_takeover_targets_alive(self):
        overlay = grown_overlay(20)
        for nid in overlay.alive_ids():
            targets = overlay.takeover_targets(nid)
            assert targets
            assert nid not in targets
            assert all(overlay.is_alive(t) for t in targets)


class TestChurnInvariants:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_churn_preserves_partition(self, seed):
        rng = np.random.default_rng(seed)
        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        next_id = 0
        alive = []
        for _ in range(60):
            do_join = not alive or len(alive) < 3 or rng.random() < 0.55
            if do_join:
                coord = tuple(rng.random(space.dims) * 0.998 + 0.001)
                try:
                    overlay.add_node(next_id, coord)
                except OverlayError:
                    continue
                alive.append(next_id)
                next_id += 1
            else:
                victim = alive.pop(int(rng.integers(len(alive))))
                if rng.random() < 0.5:
                    overlay.graceful_leave(victim)
                else:
                    overlay.fail(victim)
                    overlay.claim_zones(victim)
            overlay.check_invariants()
        assert overlay.size == len(alive)
