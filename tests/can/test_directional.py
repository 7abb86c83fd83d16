"""The overlay's bulk directional build against the per-pair walk.

``CanOverlay._build_directional`` classifies every adjacent leaf pair's
shared face as one array expression and inserts the owners across each +1
face in the order the per-pair walk below inserts them: owned leaves in
``_owner_leaves`` order, each leaf's ``_adj`` in set order.  The result
must be *list*-equal to the walk's, keys and set iteration order
included: the aggregation CSR sums each row in that order, so equal sets
that iterate differently would drift the aggregates by an ulp.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np
import pytest

from repro.can.geometry import _EPS, Zone
from repro.can.overlay import CanOverlay, OverlayError


class UnitSpace:
    """A bare ``dims``-dimensional unit cube (all the overlay asks of a space)."""

    def __init__(self, dims: int):
        self.dims = dims

    def full_zone(self) -> Zone:
        return Zone([0.0] * self.dims, [1.0] * self.dims)


def touch(zone: Zone, other: Zone) -> Tuple[int, int]:
    """(dimension, direction) of the face two abutting zones share."""
    for d, (l1, h1, l2, h2) in enumerate(zip(zone.lo, zone.hi, other.lo, other.hi)):
        if abs(h1 - l2) <= _EPS:
            return d, +1
        if abs(h2 - l1) <= _EPS:
            return d, -1
    raise ValueError("zones do not touch along any axis")


def per_pair(overlay: CanOverlay, node_id: int) -> Dict[int, Set[int]]:
    """One member's table, one adjacent leaf pair at a time."""
    leaves = overlay.tree.leaves
    out: Dict[int, Set[int]] = {}
    for lid in overlay._owner_leaves.get(node_id, ()):
        mine = leaves[lid].zone
        for adj_lid in overlay._adj[lid]:
            other = leaves[adj_lid]
            if other.owner != node_id:
                dim, direction = touch(mine, other.zone)
                if direction > 0:
                    out.setdefault(dim, set()).add(other.owner)
    return out


def as_lists(table):
    return [(key, list(owners)) for key, owners in table.items()]


def assert_list_equal(overlay: CanOverlay) -> None:
    for nid in overlay.members:
        want = as_lists(per_pair(overlay, nid))
        assert as_lists(overlay._directional(nid)) == want, nid


def churn(overlay: CanOverlay, rng: np.random.Generator, dims: int, steps: int):
    """Joins, silent crashes and claims of crashed nodes, at random."""
    next_id = len(overlay.members)
    dead = []
    for _ in range(steps):
        roll = rng.random()
        alive = overlay.alive_ids()
        if roll < 0.5 or len(alive) < 4:
            try:
                overlay.add_node(next_id, tuple(rng.random(dims)))
            except OverlayError:
                continue  # the target leaf belongs to a crashed node
            next_id += 1
        elif roll < 0.75:
            victim = alive[int(rng.integers(len(alive)))]
            overlay.fail(victim)
            dead.append(victim)
        elif dead:
            overlay.claim_zones(dead.pop(int(rng.integers(len(dead)))))


@pytest.mark.parametrize("dims", [2, 5, 11, 14])
@pytest.mark.parametrize("seed", [0, 1])
def test_bulk_build_is_list_equal_to_the_per_pair_walk(dims, seed):
    rng = np.random.default_rng(seed)
    overlay = CanOverlay(UnitSpace(dims))
    for nid in range(60):
        overlay.add_node(nid, tuple(rng.random(dims)))
    assert_list_equal(overlay)
    multi_leaf = dead_owner = False
    for _ in range(6):
        churn(overlay, rng, dims, steps=15)
        assert_list_equal(overlay)
        multi_leaf |= any(len(lids) > 1 for lids in overlay._owner_leaves.values())
        dead_owner |= any(overlay._owner_leaves.get(n) for n in overlay.dead_ids())
    assert multi_leaf and dead_owner


def test_a_pair_that_does_not_touch_raises():
    rng = np.random.default_rng(5)
    overlay = CanOverlay(UnitSpace(2))
    for nid in range(12):
        overlay.add_node(nid, tuple(rng.random(2)))
    leaves = overlay.tree.leaves

    def apart(x: Zone, y: Zone) -> bool:
        return not any(
            abs(h1 - l2) <= _EPS or abs(h2 - l1) <= _EPS
            for l1, h1, l2, h2 in zip(x.lo, x.hi, y.lo, y.hi)
        )

    a, b = next(
        (x, y)
        for x in leaves
        for y in leaves
        if leaves[x].owner != leaves[y].owner and apart(leaves[x].zone, leaves[y].zone)
    )
    overlay._adj[a].add(b)
    overlay._adj[b].add(a)
    overlay.topology_version += 1
    with pytest.raises(ValueError):
        overlay.neighbors_along(leaves[a].owner, 0)
