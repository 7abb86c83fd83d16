"""Property tests: incremental indexes equal their brute-force definitions.

The overlay keeps leaf adjacency and the neighbor-pair counters up to date
at every split, merge and transfer (a split decides from the split axis
alone), the heartbeat engine resolves record relevance with one probe of
those counters, and broken links are counted through per-node caches keyed
by neighborhood stamps.  All of them must stay extensionally equal to the
quantities they replaced: pairwise geometric abutment of the ground-truth
zones, and a full rescan of believed tables against live ground-truth
neighbors.
"""

from itertools import combinations
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.geometry import Zone
from repro.can.heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
)
from repro.can.overlay import CanOverlay, OverlayError
from repro.can.space import ResourceSpace


def any_abuts(zones_a: Iterable[Zone], zones_b: Iterable[Zone]) -> bool:
    """True when some zone of A shares a face with some zone of B."""
    zones_b = list(zones_b)
    return any(za.abuts(zb) for za in zones_a for zb in zones_b)


def _coord(rng, dims):
    return tuple(rng.random(dims) * 0.998 + 0.001)


class _Cube:
    """A bare d-dimensional unit cube: all the overlay asks of a space."""

    def __init__(self, dims: int):
        self.dims = dims

    def full_zone(self) -> Zone:
        return Zone([0.0] * self.dims, [1.0] * self.dims)


def _churn(overlay, rng, steps, new_coord):
    """Random join / leave / fail / claim; yields after every operation."""
    next_id = 0
    alive: list = []
    pending: list = []
    for _ in range(steps):
        roll = rng.random()
        if not alive or len(alive) < 3 or roll < 0.5:
            try:
                overlay.add_node(next_id, new_coord())
            except OverlayError:
                continue  # dead owner, or the owner's own coordinate
            alive.append(next_id)
            next_id += 1
        elif roll < 0.7:
            overlay.graceful_leave(alive.pop(int(rng.integers(len(alive)))))
        elif roll < 0.9 or not pending:
            victim = alive.pop(int(rng.integers(len(alive))))
            overlay.fail(victim)
            pending.append(victim)
        else:
            overlay.claim_zones(pending.pop(int(rng.integers(len(pending)))))
        yield


def _assert_adjacency_is_brute_force(overlay):
    """``_adj`` and ``_nbr_counts`` against all-pairs ``Zone.abuts``."""
    leaves = overlay.tree.leaves
    expect_adj = {lid: set() for lid in leaves}
    expect_counts: dict = {}
    for a, b in combinations(leaves.values(), 2):
        if a.zone.abuts(b.zone):
            expect_adj[a.leaf_id].add(b.leaf_id)
            expect_adj[b.leaf_id].add(a.leaf_id)
            if a.owner != b.owner:
                for x, y in ((a.owner, b.owner), (b.owner, a.owner)):
                    row = expect_counts.setdefault(x, {})
                    row[y] = row.get(y, 0) + 1
    assert overlay._adj == expect_adj
    assert {k: v for k, v in overlay._nbr_counts.items() if v} == expect_counts


class TestAdjacencyIndex:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_neighbor_set_equals_geometric_abutment(self, seed):
        """Under random churn (including deferred take-overs), the neighbor
        set the pair counters give for every member — alive or
        dead-but-unclaimed — matches brute-force zone abutment."""
        rng = np.random.default_rng(seed)
        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        for _ in _churn(overlay, rng, 30, lambda: _coord(rng, space.dims)):
            members = list(overlay.members)
            zones = {nid: overlay.zones_of(nid) for nid in members}
            for r in members:
                brute = {
                    s
                    for s in members
                    if s != r and any_abuts(zones[s], zones[r])
                }
                assert overlay.neighbors(r) == brute
                assert set(overlay.neighbor_ids(r)) == brute
                for s in members:
                    assert overlay.are_neighbors(r, s) == (s in brute)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dims=st.integers(2, 11),
        bits=st.integers(1, 3),
    )
    def test_split_planes_on_existing_faces(self, seed, dims, bits):
        """Coordinates on a dyadic grid put new split planes exactly on
        faces that already exist (a neighbour that starts or ends *at* the
        plane), where a one-axis rule could mistake touching for overlap.
        After every operation the adjacency graph and the pair counters
        equal their all-pairs definitions."""
        rng = np.random.default_rng(seed)
        overlay = CanOverlay(_Cube(dims))
        cells = 1 << bits

        def grid_coord():
            return tuple(rng.integers(cells, size=dims) / cells)

        for _ in _churn(overlay, rng, 40, grid_coord):
            if overlay.tree is not None:
                _assert_adjacency_is_brute_force(overlay)
                overlay.check_invariants()
        # the array audit must also reject what the scalar definition rejects
        apart = [
            (a, b)
            for a, b in combinations(overlay.tree.leaves.values(), 2)
            if not a.zone.abuts(b.zone)
        ]
        if apart:
            a, b = apart[int(rng.integers(len(apart)))]
            overlay._adj[a.leaf_id].add(b.leaf_id)
            overlay._adj[b.leaf_id].add(a.leaf_id)
            with pytest.raises(AssertionError, match="non-abutting"):
                overlay.check_invariants()


class TestSplitPlaneRule:
    """One split, one neighbour, each way it can sit against the plane."""

    def build(self, *coords):
        overlay = CanOverlay(_Cube(2))
        for node_id, coord in enumerate(coords):
            overlay.add_node(node_id, coord)
            _assert_adjacency_is_brute_force(overlay)
        overlay.check_invariants()
        return overlay

    def test_neighbour_straddling_the_plane_abuts_both_halves(self):
        # 0: [0,.5)x[0,1) touches along x; 1 splits along y at .5
        overlay = self.build((0.1, 0.1), (0.6, 0.1), (0.6, 0.7))
        assert overlay.neighbors(0) == {1, 2}

    def test_neighbour_on_the_low_face_abuts_the_low_half_only(self):
        # 2: [.5,1)x[.5,1) splits along y at .75; 1 lies below, on y=.5
        overlay = self.build((0.1, 0.1), (0.6, 0.1), (0.6, 0.7), (0.6, 0.9))
        assert overlay.neighbors(1) == {0, 2}
        assert overlay.neighbors(3) == {0, 2}

    def test_neighbour_on_the_high_face_abuts_the_high_half_only(self):
        # 1: [.5,1)x[0,.5) splits along y at .25; 2 lies above, on y=.5
        overlay = self.build((0.1, 0.1), (0.6, 0.1), (0.6, 0.7), (0.6, 0.3))
        assert overlay.neighbors(2) == {0, 3}
        assert overlay.neighbors(1) == {0, 3}

    def test_neighbour_ending_or_starting_at_the_plane(self):
        # 0: [0,.5)x[0,1) splits along y at .5, where 1's zone ends and
        # 2's begins across the x=.5 face: corner contact is not abutment
        overlay = self.build((0.1, 0.1), (0.6, 0.1), (0.6, 0.7), (0.1, 0.6))
        assert overlay.neighbors(0) == {1, 3}
        assert overlay.neighbors(3) == {0, 2}

    def test_audit_rejects_a_listed_pair_that_does_not_abut(self):
        overlay = self.build((0.1, 0.1), (0.6, 0.1), (0.6, 0.7), (0.6, 0.9))
        (low,) = overlay._owner_leaves[1]
        (top,) = overlay._owner_leaves[3]
        overlay._adj[low].add(top)
        overlay._adj[top].add(low)
        with pytest.raises(AssertionError, match="non-abutting"):
            overlay.check_invariants()


def _brute_broken_links(proto: HeartbeatProtocol) -> int:
    """The pre-optimisation definition: full rescan, no caches."""
    overlay = proto.overlay
    total = 0
    for node_id, pnode in proto.nodes.items():
        if not overlay.is_alive(node_id):
            continue
        believed = pnode.table.ids()
        for nid in overlay.neighbors(node_id):
            if nid not in believed and overlay.is_alive(nid):
                total += 1
    return total


class TestBrokenLinkCount:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(
            [HeartbeatScheme.VANILLA, HeartbeatScheme.ADAPTIVE]
        ),
    )
    def test_count_matches_brute_force_under_churn(self, seed, scheme):
        rng = np.random.default_rng(seed)
        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        proto = HeartbeatProtocol(overlay, ProtocolConfig(scheme=scheme))
        proto.bootstrap(0, _coord(rng, space.dims))
        alive = [0]
        next_id = 1
        for _ in range(12):
            if proto.join(next_id, _coord(rng, space.dims), 0.0):
                alive.append(next_id)
            next_id += 1
        now = 0.0
        for _ in range(8):
            now += 60.0
            roll = rng.random()
            if roll < 0.4:
                if proto.join(next_id, _coord(rng, space.dims), now):
                    alive.append(next_id)
                next_id += 1
            elif roll < 0.7 and len(alive) > 4:
                proto.graceful_leave(
                    alive.pop(int(rng.integers(len(alive)))), now
                )
            elif len(alive) > 4:
                proto.fail(alive.pop(int(rng.integers(len(alive)))), now)
            proto.run_round(now)
            assert proto.count_broken_links() == _brute_broken_links(proto)
            # second call exercises the fully-cached path
            assert proto.count_broken_links() == _brute_broken_links(proto)
