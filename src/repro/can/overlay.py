"""Authoritative CAN state: membership, zones, adjacency, join/leave/claim.

The overlay is the simulator's ground truth.  It maintains the split tree,
the leaf-level adjacency graph (incrementally — splits and merges only touch
local edges), and per-member zone ownership.  The messaging layer
(:mod:`repro.can.heartbeat`) maintains each node's *believed* neighbor table
separately; a believed table missing a ground-truth neighbor is precisely a
*broken link* (paper, Section IV-A).

Failure handling is split in two: :meth:`fail` marks a member dead (its
zones linger, as in reality, until neighbors time the node out), and
:meth:`claim_zones` performs the predetermined take-over transfers — the
protocol layer calls it when the failure is detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, KeysView, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..overlay.base import SubstrateError
from .geometry import _EPS, Zone
from .space import ResourceSpace
from .split_tree import Leaf, SplitTree

__all__ = ["CanOverlay", "JoinResult", "Transfer", "OverlayError"]


#: what a member without a ground-truth neighbour reads from the counters
_NO_NEIGHBORS: Dict[int, int] = {}
#: adjacent pairs the invariant audit evaluates per array expression: bounds
#: its scratch to a few MB however large the overlay
_AUDIT_PAIRS = 1 << 14
#: adjacent pairs :meth:`CanOverlay._build_directional` classifies per array
#: expression, for the same reason
_DIRECTION_PAIRS = 1 << 12


class OverlayError(SubstrateError):
    """Structural CAN violation (bad join, unknown member, ...)."""


@dataclass(frozen=True)
class JoinResult:
    """What happened during a join: who split, and the resulting leaves."""

    node_id: int
    splitter_id: Optional[int]  # None for the bootstrap node
    new_leaf_id: Optional[int]
    split_dim: Optional[int]
    split_position: Optional[float]


@dataclass(frozen=True)
class Transfer:
    """One zone hand-off produced by a leave or a post-failure claim."""

    leaf_id: int
    zone: Zone
    from_node: int
    to_node: int


@dataclass
class Member:
    node_id: int
    coord: Tuple[float, ...]
    alive: bool = True


class CanOverlay:
    """Ground-truth CAN: split tree + adjacency + membership."""

    def __init__(self, space: ResourceSpace):
        self.space = space
        self.tree: Optional[SplitTree] = None
        self.members: Dict[int, Member] = {}
        self._owner_leaves: Dict[int, Set[int]] = {}
        self._adj: Dict[int, Set[int]] = {}  # leaf_id -> adjacent leaf_ids
        #: bumped on every structural change; caches key off it
        self.topology_version: int = 0
        # directional adjacency of every member, built on first use per
        # topology: node -> {dim: owners across its +1 face}
        self._dir_cache_version: int = -1
        self._dir_cache: Dict[int, Dict[int, Set[int]]] = {}
        #: per-node neighborhood stamps: ``_nbr_stamp[n]`` advances whenever
        #: node n's ground-truth neighborhood (or a neighbor's liveness) can
        #: have changed.  Unlike ``topology_version`` this is *local*: a
        #: split on the far side of the space leaves most stamps — and
        #: therefore most per-node caches — intact.
        self._nbr_tick: int = 0
        self._nbr_stamp: Dict[int, int] = {}
        #: incremental neighbor-pair counters: ``_nbr_counts[a][b]`` is the
        #: number of adjacent leaf pairs whose owners are (a, b), a != b.
        #: A pure function of (leaf adjacency, owner map), maintained at the
        #: same sites that mutate ``_adj`` / leaf ownership, so
        #: :meth:`neighbors` is O(degree) instead of a leaf-set rebuild and
        #: :meth:`are_neighbors` is one dict probe.
        self._nbr_counts: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------ queries --
    @property
    def size(self) -> int:
        """Number of members, dead-but-unclaimed included."""
        return len(self.members)

    def alive_ids(self) -> List[int]:
        return [m.node_id for m in self.members.values() if m.alive]

    def coordinate(self, node_id: int) -> Tuple[float, ...]:
        return self._member(node_id).coord

    def leaves_of(self, node_id: int) -> List[Leaf]:
        assert self.tree is not None
        return [self.tree.leaves[lid] for lid in self._owner_leaves.get(node_id, ())]

    def zones_of(self, node_id: int) -> List[Zone]:
        return [leaf.zone for leaf in self.leaves_of(node_id)]

    def neighbors(self, node_id: int) -> Set[int]:
        """Ground-truth neighbor ids: owners of leaves abutting any owned leaf."""
        self._member(node_id)
        return set(self.neighbor_ids(node_id))

    def neighborhood_stamp(self, node_id: int) -> int:
        """Monotone counter advancing when this node's neighborhood changes.

        Covers adjacency changes (splits, merges, transfers, drops) *and*
        liveness flips of adjacent owners, so any value derived from
        :meth:`neighbor_ids` plus member liveness can be cached against it.
        """
        return self._nbr_stamp.get(node_id, 0)

    def neighbor_ids(self, node_id: int) -> KeysView[int]:
        """:meth:`neighbors` without the copy: a live, read-only key view."""
        return self._nbr_counts.get(node_id, _NO_NEIGHBORS).keys()

    def are_neighbors(self, a: int, b: int) -> bool:
        """Does some leaf of ``a`` share a face with some leaf of ``b``?

        The believed-table layer resolves record relevance with this one
        probe of the pair counters instead of pairwise zone abutment scans.
        """
        return b in self._nbr_counts.get(a, _NO_NEIGHBORS)

    def _touch_nodes(self, node_ids: Iterable[int]) -> None:
        """Advance the neighborhood stamp of every listed node."""
        self._nbr_tick += 1
        tick = self._nbr_tick
        stamp = self._nbr_stamp
        for nid in node_ids:
            stamp[nid] = tick

    def neighbors_along(self, node_id: int, dim: int) -> Set[int]:
        """Neighbors reached by crossing this node's high face along ``dim``."""
        return self._directional(node_id).get(dim, set())

    def _directional(self, node_id: int) -> Dict[int, Set[int]]:
        """Per-node dim -> owners across the +1 face, cached per topology.

        Matchmaking probes every dimension at every push hop and the
        aggregation engine rebuilds its CSR from the same queries, so the
        first query after a topology change builds every member's table at
        once (:meth:`_build_directional`).
        """
        self._member(node_id)
        if self._dir_cache_version != self.topology_version:
            self._dir_cache = self._build_directional()
            self._dir_cache_version = self.topology_version
        return self._dir_cache[node_id]

    def _build_directional(self) -> Dict[int, Dict[int, Set[int]]]:
        """Every member's dim -> owners across its +1 face, in one pass.

        Each adjacent leaf pair's shared face is classified as an array
        expression over stacked bounds, ``_DIRECTION_PAIRS`` pairs at a
        time: the first axis where ``other`` starts at this leaf's high
        end (+1) or ends at its low end (-1), within ``_EPS``; only +1
        faces are kept.  The owners
        are then inserted in the order a per-pair walk would insert them:
        owned leaves in ``_owner_leaves`` order, each leaf's ``_adj`` in set
        order.  That order fixes the sets' iteration order, which fixes the
        order the aggregation CSR sums each row in, so it is load-bearing.
        """
        out: Dict[int, Dict[int, Set[int]]] = {nid: {} for nid in self.members}
        if self.tree is None:
            return out
        leaves = self.tree.leaves
        row = {lid: i for i, lid in enumerate(leaves)}
        lo = np.array([leaf.zone.lo for leaf in leaves.values()])
        hi = np.array([leaf.zone.hi for leaf in leaves.values()])
        # one block of pairs: (owner's table, neighbor owner), leaf rows
        tables: List[Dict[int, Set[int]]] = []
        others: List[int] = []
        mine: List[int] = []
        theirs: List[int] = []

        def flush() -> None:
            a = np.array(mine, dtype=np.intp)
            b = np.array(theirs, dtype=np.intp)
            up = np.abs(hi[a] - lo[b]) <= _EPS
            touching = up | (np.abs(hi[b] - lo[a]) <= _EPS)
            dim = touching.argmax(axis=1)
            pick = np.arange(len(a)), dim
            if not touching[pick].all():
                raise ValueError("zones do not touch along any axis")
            upward = up[pick]
            for k, d in zip(np.flatnonzero(upward).tolist(), dim[upward].tolist()):
                owners = tables[k].get(d)
                if owners is None:
                    tables[k][d] = {others[k]}
                else:
                    owners.add(others[k])
            for pending in (tables, others, mine, theirs):
                pending.clear()

        for node_id, table in out.items():
            for lid in self._owner_leaves.get(node_id, ()):
                i = row[lid]
                for adj_lid in self._adj[lid]:
                    owner = leaves[adj_lid].owner
                    if owner != node_id:
                        tables.append(table)
                        others.append(owner)
                        mine.append(i)
                        theirs.append(row[adj_lid])
                if len(mine) >= _DIRECTION_PAIRS:
                    flush()
        if mine:
            flush()
        return out

    def locate_leaf(self, point: Sequence[float]) -> Leaf:
        if self.tree is None:
            raise OverlayError("overlay is empty")
        return self.tree.locate(tuple(point))

    def locate_owner(self, point: Sequence[float]) -> int:
        return self.locate_leaf(point).owner

    def is_alive(self, node_id: int) -> bool:
        member = self.members.get(node_id)
        return member is not None and member.alive

    def dead_ids(self) -> Set[int]:
        """Members still holding zones but no longer alive."""
        return {m.node_id for m in self.members.values() if not m.alive}

    def takeover_targets(
        self, node_id: int, dead: Optional[Set[int]] = None
    ) -> Set[int]:
        """Who would claim this node's zones if it vanished right now.

        This is what each node can compute locally from its split history;
        compact heartbeats send full state only to these nodes.  Callers
        sweeping many nodes pass :meth:`dead_ids` once via ``dead`` instead
        of paying the member scan per call.
        """
        assert self.tree is not None
        dead_now = self.dead_ids() if dead is None else dead
        excluded = dead_now | {node_id}
        targets: Set[int] = set()
        for leaf in self.leaves_of(node_id):
            claimant = self.tree.takeover_leaf(leaf, excluded)
            if claimant is not None:
                targets.add(claimant.owner)
        return targets

    # ------------------------------------------------------------------ mutation --
    def add_node(self, node_id: int, coord: Sequence[float]) -> JoinResult:
        """Bootstrap (first member) or join by splitting the containing leaf."""
        coord = tuple(float(c) for c in coord)
        if len(coord) != self.space.dims:
            raise OverlayError(
                f"coordinate has {len(coord)} dims, space has {self.space.dims}"
            )
        if node_id in self.members:
            raise OverlayError(f"node {node_id} already present")
        if self.tree is None:
            self.tree = SplitTree(self.space.full_zone(), node_id)
            root_leaf = next(self.tree.iter_leaves())
            self.members[node_id] = Member(node_id, coord)
            self._owner_leaves[node_id] = {root_leaf.leaf_id}
            self._adj[root_leaf.leaf_id] = set()
            self.topology_version += 1
            self._touch_nodes((node_id,))
            return JoinResult(node_id, None, root_leaf.leaf_id, None, None)

        target = self.tree.locate(coord)
        owner_id = target.owner
        owner = self._member(owner_id)
        if not owner.alive:
            raise OverlayError(
                f"join target leaf owned by dead node {owner_id}; "
                "retry after the zone is claimed"
            )
        owner_coord = owner.coord if target.zone.contains(owner.coord) else None
        dim, at, new_high = self._choose_split(target.zone, coord, owner_coord)
        low_owner, high_owner = (
            (owner_id, node_id) if new_high else (node_id, owner_id)
        )
        low, high = self.tree.split_leaf(target, dim, at, low_owner, high_owner)
        self._split_adjacency(target.leaf_id, owner_id, low, high, dim)
        self._owner_leaves[owner_id].discard(target.leaf_id)
        owner_leaf = low if new_high else high
        self._owner_leaves[owner_id].add(owner_leaf.leaf_id)
        self.members[node_id] = Member(node_id, coord)
        new_leaf = high if new_high else low
        self._owner_leaves[node_id] = {new_leaf.leaf_id}
        self.topology_version += 1
        return JoinResult(node_id, owner_id, new_leaf.leaf_id, dim, at)

    def graceful_leave(self, node_id: int) -> List[Transfer]:
        """Voluntary departure: zones hand off to the take-over nodes at once."""
        member = self._member(node_id)
        if not member.alive:
            raise OverlayError(f"node {node_id} already failed")
        transfers = self._transfer_all(node_id)
        del self.members[node_id]
        self._forget_member(node_id)
        return transfers

    def fail(self, node_id: int) -> None:
        """Silent crash: zones stay registered to the ghost until claimed."""
        member = self._member(node_id)
        if not member.alive:
            raise OverlayError(f"node {node_id} already failed")
        member.alive = False
        self.topology_version += 1
        # liveness is part of what neighbors cache about their neighborhood
        self._touch_nodes({node_id} | self.neighbors(node_id))

    def claim_zones(self, dead_id: int) -> List[Transfer]:
        """Execute the predetermined take-over for a detected failure."""
        member = self._member(dead_id)
        if member.alive:
            raise OverlayError(f"node {dead_id} has not failed")
        transfers = self._transfer_all(dead_id)
        del self.members[dead_id]
        self._forget_member(dead_id)
        return transfers

    def _forget_member(self, node_id: int) -> None:
        """Drop per-node cache state of a departed member (ids never recur)."""
        self._nbr_stamp.pop(node_id, None)
        self._nbr_counts.pop(node_id, None)

    def _pair_inc(self, a: int, b: int) -> None:
        """One more adjacent leaf pair owned by (a, b)."""
        if a == b:
            return
        counts = self._nbr_counts
        row = counts.setdefault(a, {})
        row[b] = row.get(b, 0) + 1
        row = counts.setdefault(b, {})
        row[a] = row.get(a, 0) + 1

    def _pair_dec(self, a: int, b: int) -> None:
        """One fewer adjacent leaf pair owned by (a, b)."""
        if a == b:
            return
        counts = self._nbr_counts
        for x, y in ((a, b), (b, a)):
            row = counts[x]
            remaining = row[y] - 1
            if remaining:
                row[y] = remaining
            else:
                del row[y]

    # ------------------------------------------------------------------ internals --
    def _transfer_all(self, node_id: int) -> List[Transfer]:
        assert self.tree is not None
        dead_now = {m.node_id for m in self.members.values() if not m.alive}
        excluded = dead_now | {node_id}
        transfers: List[Transfer] = []
        for lid in list(self._owner_leaves.get(node_id, ())):
            leaf = self.tree.leaves.get(lid)
            if leaf is None or leaf.owner != node_id:
                continue  # already merged away by an earlier transfer
            claimant = self.tree.takeover_leaf(leaf, excluded)
            if claimant is None:
                # Last member standing: the zone simply disappears with it.
                self._drop_leaf(lid)
                continue
            new_owner = claimant.owner
            transfers.append(Transfer(lid, leaf.zone, node_id, new_owner))
            adj_owners = [self.tree.leaves[a].owner for a in self._adj[lid]]
            for adj_owner in adj_owners:
                if adj_owner != node_id:
                    self._pair_dec(node_id, adj_owner)
            self.tree.transfer(leaf, new_owner)
            for adj_owner in adj_owners:
                if adj_owner != new_owner:
                    self._pair_inc(new_owner, adj_owner)
            self._owner_leaves[node_id].discard(lid)
            self._owner_leaves.setdefault(new_owner, set()).add(lid)
            self._touch_nodes(
                {self.tree.leaves[a].owner for a in self._adj[lid]}
                | {node_id, new_owner}
            )
            self._cascade_merges(leaf)
        self._owner_leaves.pop(node_id, None)
        self.topology_version += 1
        return transfers

    def _cascade_merges(self, leaf: Leaf) -> None:
        """Fuse sibling leaves with one owner, repeatedly."""
        assert self.tree is not None
        current = leaf
        while True:
            merged = self.tree.try_merge(current)
            if merged is None:
                return
            removed_a, removed_b, new_leaf = merged
            self._merge_adjacency(removed_a, removed_b, new_leaf)
            owner_set = self._owner_leaves[new_leaf.owner]
            owner_set.discard(removed_a.leaf_id)
            owner_set.discard(removed_b.leaf_id)
            owner_set.add(new_leaf.leaf_id)
            current = new_leaf

    def _drop_leaf(self, leaf_id: int) -> None:
        assert self.tree is not None
        adj = self._adj.pop(leaf_id, set())
        self._touch_nodes({self.tree.leaves[a].owner for a in adj})
        owner = self.tree.leaves[leaf_id].owner
        for a in adj:
            self._adj[a].discard(leaf_id)
            self._pair_dec(owner, self.tree.leaves[a].owner)
        self.tree.leaves.pop(leaf_id, None)

    def _split_adjacency(
        self, old_id: int, old_owner: int, low: Leaf, high: Leaf, dim: int
    ) -> None:
        """Rewire adjacency after the leaf ``old_id`` split along ``dim``.

        The halves equal the old zone on every axis but ``dim``, so an old
        neighbour's relation to each half can differ from its relation to
        the old zone along ``dim`` only — one axis decides, with the
        ``_EPS`` convention of :meth:`Zone.abuts`.  A neighbour touching the
        old zone's low (high) face along ``dim`` keeps touching that half
        alone; any other neighbour touches along another axis and abuts a
        half iff its ``dim`` extent overlaps that half's with positive
        measure.  (Exact while every extent exceeds ``2 * _EPS``.)

        One half keeps the old owner, so only the net change reaches the
        pair counters: the old owner loses neighbours that abut the
        newcomer's half alone, the newcomer gains those that abut its half.
        Those updates are :meth:`_pair_dec` / :meth:`_pair_inc` written
        out, in the same order, so every counter row (created lazily, the
        newcomer's first) keeps the same keys in the same order.
        """
        assert self.tree is not None
        leaves = self.tree.leaves
        adj = self._adj
        counts = self._nbr_counts
        new_row: Optional[Dict[int, int]] = None
        low_id, high_id = low.leaf_id, high.leaf_id
        zlo = low.zone.lo[dim]
        at = low.zone.hi[dim]
        zhi = high.zone.hi[dim]
        old_keeps_low = low.owner == old_owner
        newcomer = high.owner if old_keeps_low else low.owner
        old_adj = adj.pop(old_id)
        low_adj: Set[int] = set()
        high_adj: Set[int] = set()
        touched = {low.owner, high.owner}
        for other_id in old_adj:
            other = leaves[other_id]
            ozone = other.zone
            olo = ozone.lo[dim]
            ohi = ozone.hi[dim]
            if -_EPS <= ohi - zlo <= _EPS:
                in_low, in_high = True, False
            elif -_EPS <= zhi - olo <= _EPS:
                in_low, in_high = False, True
            else:
                # min(ohi, at) - max(olo, zlo) > _EPS per half, without the
                # builtin calls: with them match_paper's setup reads about
                # 15 % longer (EXPERIMENTS.md, "A join in one pass")
                in_low = (
                    (ohi if ohi < at else at) - (olo if olo > zlo else zlo) > _EPS
                )
                in_high = (
                    (ohi if ohi < zhi else zhi) - (olo if olo > at else at) > _EPS
                )
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
            in_kept, in_new = (
                (in_low, in_high) if old_keeps_low else (in_high, in_low)
            )
            if not in_kept and other_owner != old_owner:
                row = counts[old_owner]
                remaining = row[other_owner] - 1
                if remaining:
                    row[other_owner] = remaining
                else:
                    del row[other_owner]
                row = counts[other_owner]
                remaining = row[old_owner] - 1
                if remaining:
                    row[old_owner] = remaining
                else:
                    del row[old_owner]
            if in_new:
                # the newcomer owns no other leaf, so never ``other_owner``
                if new_row is None:
                    new_row = counts.setdefault(newcomer, {})
                new_row[other_owner] = new_row.get(other_owner, 0) + 1
                row = counts.setdefault(other_owner, {})
                row[newcomer] = row.get(newcomer, 0) + 1
        low_adj.add(high_id)
        high_adj.add(low_id)
        self._pair_inc(low.owner, high.owner)
        adj[low_id] = low_adj
        adj[high_id] = high_adj
        self._touch_nodes(touched)

    def _merge_adjacency(self, a: Leaf, b: Leaf, merged: Leaf) -> None:
        assert self.tree is not None
        leaves = self.tree.leaves
        adj_a = self._adj.pop(a.leaf_id)
        adj_b = self._adj.pop(b.leaf_id)
        for other_id in adj_a:
            if other_id != b.leaf_id:
                self._pair_dec(a.owner, leaves[other_id].owner)
        for other_id in adj_b:
            if other_id != a.leaf_id:
                self._pair_dec(b.owner, leaves[other_id].owner)
        adj = (adj_a | adj_b) - {a.leaf_id, b.leaf_id}
        for other_id in adj:
            self._adj[other_id].discard(a.leaf_id)
            self._adj[other_id].discard(b.leaf_id)
            self._adj[other_id].add(merged.leaf_id)
            self._pair_inc(merged.owner, leaves[other_id].owner)
        self._adj[merged.leaf_id] = adj
        self._touch_nodes(
            {leaves[oid].owner for oid in adj} | {merged.owner}
        )

    @staticmethod
    def _choose_split(
        zone: Zone,
        new_coord: Tuple[float, ...],
        owner_coord: Optional[Tuple[float, ...]],
    ) -> Tuple[int, float, bool]:
        """Pick (dim, position, newcomer-takes-high-half) for a join split.

        When the zone contains the current owner's coordinate (the usual
        case) the split must separate the two coordinates; the virtual
        dimension guarantees some separating dimension exists.  When the
        zone is a secondary zone (owner's coordinate elsewhere) any split
        works; we halve the longest axis.
        """
        if owner_coord is not None:
            separable = [
                d
                for d in range(zone.dims)
                if owner_coord[d] != new_coord[d]
            ]
            if not separable:
                raise OverlayError(
                    "cannot split: joining node's coordinate equals the "
                    "owner's in every dimension (resample the virtual "
                    "coordinate)"
                )
            dim = max(separable, key=zone.extent)
            lo_c = min(owner_coord[dim], new_coord[dim])
            hi_c = max(owner_coord[dim], new_coord[dim])
            mid = (zone.lo[dim] + zone.hi[dim]) / 2.0
            at = mid if lo_c < mid <= hi_c else (lo_c + hi_c) / 2.0
            new_high = new_coord[dim] >= at
            return dim, at, new_high

        dim = max(range(zone.dims), key=zone.extent)
        at = (zone.lo[dim] + zone.hi[dim]) / 2.0
        if new_coord[dim] == at:
            at = (zone.lo[dim] + at) / 2.0
        return dim, at, new_coord[dim] >= at

    def _member(self, node_id: int) -> Member:
        member = self.members.get(node_id)
        if member is None:
            raise OverlayError(f"unknown node {node_id}")
        return member

    # ------------------------------------------------------------------ invariants --
    def check_invariants(self) -> None:
        """Partitioning + adjacency symmetry + ownership consistency.

        Used by tests, property-based checks and every churn run; the
        abutment audit is one array expression over all adjacent pairs.
        """
        if self.tree is None:
            return
        self.tree.check_partition()
        for lid, adj in self._adj.items():
            for other_id in adj:
                if lid not in self._adj[other_id]:
                    raise AssertionError(f"asymmetric adjacency {lid}->{other_id}")
        self._check_adjacent_leaves_abut()
        for node_id, lids in self._owner_leaves.items():
            for lid in lids:
                if self.tree.leaves[lid].owner != node_id:
                    raise AssertionError(
                        f"owner map desync: leaf {lid} not owned by {node_id}"
                    )
        owned = {lid for lids in self._owner_leaves.values() for lid in lids}
        if owned != set(self.tree.leaves):
            raise AssertionError("owner map does not cover all leaves")
        expect: Dict[int, Dict[int, int]] = {}
        for lid, adj in self._adj.items():
            owner = self.tree.leaves[lid].owner
            for other_id in adj:
                other_owner = self.tree.leaves[other_id].owner
                if other_owner != owner:
                    row = expect.setdefault(owner, {})
                    row[other_owner] = row.get(other_owner, 0) + 1
        counts = {k: v for k, v in self._nbr_counts.items() if v}
        if counts != expect:
            raise AssertionError("neighbor-pair counters desynced from adjacency")

    def _check_adjacent_leaves_abut(self) -> None:
        """Every pair the adjacency graph lists shares a (d-1)-face.

        The oracle for the incremental adjacency updates, so it stays the
        full definition — all d axes of both boxes, exactly one touching,
        positive overlap on the rest — evaluated for all pairs at once on
        stacked bounds; it shares nothing with the one-axis rule
        :meth:`_split_adjacency` applies.
        """
        assert self.tree is not None
        leaves = self.tree.leaves
        index = {lid: i for i, lid in enumerate(leaves)}
        lo = np.array([leaf.zone.lo for leaf in leaves.values()])
        hi = np.array([leaf.zone.hi for leaf in leaves.values()])
        pairs = np.array(
            [
                (index[lid], index[other_id])
                for lid, adj in self._adj.items()
                for other_id in adj
                if lid < other_id
            ],
            dtype=np.intp,
        ).reshape(-1, 2)
        for start in range(0, len(pairs), _AUDIT_PAIRS):
            a, b = pairs[start : start + _AUDIT_PAIRS].T
            touching = (np.abs(hi[a] - lo[b]) <= _EPS) | (
                np.abs(hi[b] - lo[a]) <= _EPS
            )
            overlapping = (
                np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]) > _EPS
            )
            abut = (touching.sum(axis=1) == 1) & (touching | overlapping).all(
                axis=1
            )
            if not abut.all():
                ids = list(leaves)
                bad = int(np.flatnonzero(~abut)[0])
                raise AssertionError(
                    "adjacency lists non-abutting leaves "
                    f"{ids[a[bad]]},{ids[b[bad]]}"
                )
