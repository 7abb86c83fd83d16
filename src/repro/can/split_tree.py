"""The CAN's distributed-KD-tree split structure.

Because node coordinates are pinned by real resource values, zones cannot be
re-partitioned freely: the CAN partitioning behaves like a distributed
KD-tree, and each node's *split history* — the path of splits that carved
out its zone — predetermines its take-over node (paper, Section IV-B,
Figure 3).  This module keeps that tree.

In the real system each node stores only its own history; the simulator
keeps the global tree and answers the same questions a node would answer
locally (who is my take-over node; who claims this vacated leaf).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Set, Tuple

from .geometry import Zone

__all__ = ["Leaf", "Internal", "SplitTree"]


class Leaf:
    """A leaf of the split tree: one zone with one owner."""

    __slots__ = ("leaf_id", "zone", "owner", "parent", "seq")

    def __init__(self, leaf_id: int, zone: Zone, owner: int, seq: int):
        self.leaf_id = leaf_id
        self.zone = zone
        self.owner = owner
        self.parent: Optional["Internal"] = None
        #: sequence number of the split that created this leaf (recency)
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Leaf {self.leaf_id} owner={self.owner}>"


class Internal:
    """An internal tree node: a past split of a region."""

    __slots__ = ("zone", "dim", "position", "low", "high", "parent", "seq", "max_seq")

    def __init__(
        self,
        zone: Zone,
        dim: int,
        position: float,
        low: "TreeNode",
        high: "TreeNode",
        seq: int,
    ):
        self.zone = zone
        self.dim = dim
        self.position = position
        self.low = low
        self.high = high
        self.parent: Optional["Internal"] = None
        self.seq = seq
        #: most recent split sequence anywhere in this subtree
        self.max_seq = seq


TreeNode = object  # Leaf | Internal


class SplitTree:
    """Global split tree with ownership, splits, merges, and take-over search."""

    def __init__(self, zone: Zone, owner: int):
        self._leaf_ids = itertools.count()
        self._seq = itertools.count(1)
        root = Leaf(next(self._leaf_ids), zone, owner, 0)
        self.root: TreeNode = root
        self.leaves: Dict[int, Leaf] = {root.leaf_id: root}

    # -- queries -----------------------------------------------------------------
    def locate(self, point: Tuple[float, ...]) -> Leaf:
        """Leaf whose zone contains ``point`` (closed on the outer boundary)."""
        node = self.root
        while isinstance(node, Internal):
            node = node.low if point[node.dim] < node.position else node.high
        assert isinstance(node, Leaf)
        return node

    def iter_leaves(self) -> Iterator[Leaf]:
        return iter(self.leaves.values())

    # -- mutation ----------------------------------------------------------------
    def split_leaf(
        self,
        leaf: Leaf,
        dim: int,
        position: float,
        low_owner: int,
        high_owner: int,
    ) -> Tuple[Leaf, Leaf]:
        """Replace ``leaf`` with an internal split and two child leaves."""
        if leaf.leaf_id not in self.leaves:
            raise KeyError(f"leaf {leaf.leaf_id} not in tree")
        low_zone, high_zone = leaf.zone.split(dim, position)
        seq = next(self._seq)
        low = Leaf(next(self._leaf_ids), low_zone, low_owner, seq)
        high = Leaf(next(self._leaf_ids), high_zone, high_owner, seq)
        internal = Internal(leaf.zone, dim, position, low, high, seq)
        low.parent = internal
        high.parent = internal
        self._replace(leaf, internal)
        del self.leaves[leaf.leaf_id]
        self.leaves[low.leaf_id] = low
        self.leaves[high.leaf_id] = high
        self._bump_max_seq(internal, seq)
        return low, high

    def transfer(self, leaf: Leaf, new_owner: int) -> None:
        """Hand a leaf to another owner (take-over of a vacated zone)."""
        if leaf.leaf_id not in self.leaves:
            raise KeyError(f"leaf {leaf.leaf_id} not in tree")
        leaf.owner = new_owner

    def try_merge(self, leaf: Leaf) -> Optional[Tuple[Leaf, Leaf, Leaf]]:
        """Merge ``leaf`` with its sibling when both are leaves of one owner.

        Returns ``(removed_a, removed_b, merged)`` or ``None`` when no merge
        applies.  Callers should re-invoke on the merged leaf to cascade.
        """
        parent = leaf.parent
        if parent is None:
            return None
        sibling = parent.high if parent.low is leaf else parent.low
        if not isinstance(sibling, Leaf) or sibling.owner != leaf.owner:
            return None
        merged = Leaf(
            next(self._leaf_ids), parent.zone, leaf.owner, min(leaf.seq, sibling.seq)
        )
        self._replace(parent, merged)
        del self.leaves[leaf.leaf_id]
        del self.leaves[sibling.leaf_id]
        self.leaves[merged.leaf_id] = merged
        return leaf, sibling, merged

    # -- take-over ----------------------------------------------------------------
    def takeover_leaf(
        self, leaf: Leaf, excluded_owners: Set[int]
    ) -> Optional[Leaf]:
        """The leaf whose owner is designated to claim ``leaf`` when vacated.

        The designated claimant is found in the sibling subtree of the
        vacated leaf's most recent split, descending into the most recently
        split region (the "deepest" partner, mirroring the original CAN's
        depth-first hand-off).  Owners in ``excluded_owners`` (e.g. also
        failed) are skipped; when the whole sibling subtree is excluded the
        search climbs to the next enclosing split.
        """
        current: TreeNode = leaf
        while True:
            parent = getattr(current, "parent")
            if parent is None:
                return None  # lone node in the system
            sibling = parent.high if parent.low is current else parent.low
            for candidate in self._descend(sibling):
                if candidate.owner not in excluded_owners and candidate is not leaf:
                    return candidate
            current = parent

    def _descend(self, node: TreeNode) -> Iterator[Leaf]:
        """Yield leaves of a subtree, preferring the most recent splits."""
        if isinstance(node, Leaf):
            yield node
            return
        assert isinstance(node, Internal)
        children = [node.low, node.high]
        children.sort(key=self._recency, reverse=True)
        for child in children:
            yield from self._descend(child)

    @staticmethod
    def _recency(node: TreeNode) -> int:
        if isinstance(node, Internal):
            return node.max_seq
        return node.seq  # type: ignore[union-attr]

    # -- invariants (used by tests) --------------------------------------------------
    def check_partition(self) -> None:
        """Assert leaves tile the root zone exactly (volume bookkeeping)."""
        root_zone = (
            self.root.zone if isinstance(self.root, (Leaf, Internal)) else None
        )
        assert root_zone is not None
        total = sum(leaf.zone.volume() for leaf in self.leaves.values())
        if abs(total - root_zone.volume()) > 1e-9 * max(1.0, root_zone.volume()):
            raise AssertionError(
                f"leaves volume {total} != root volume {root_zone.volume()}"
            )

    # -- plumbing ---------------------------------------------------------------------
    def _replace(self, old: TreeNode, new: TreeNode) -> None:
        parent = getattr(old, "parent")
        new.parent = parent  # type: ignore[attr-defined]
        if parent is None:
            self.root = new
        elif parent.low is old:
            parent.low = new
        else:
            parent.high = new

    def _bump_max_seq(self, node: Optional[Internal], seq: int) -> None:
        while node is not None:
            if node.max_seq >= seq:
                break
            node.max_seq = seq
            node = node.parent
