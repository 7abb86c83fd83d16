"""Unit tests for the KD split tree and take-over designation."""

import pytest

from repro.can.geometry import Zone
from repro.can.split_tree import Internal, Leaf, SplitTree


def unit_tree(owner=0, d=2):
    return SplitTree(Zone([0.0] * d, [1.0] * d), owner)


class TestSplitAndLocate:
    def test_bootstrap(self):
        tree = unit_tree(owner=7)
        leaf = tree.locate((0.5, 0.5))
        assert leaf.owner == 7
        assert len(tree.leaves) == 1

    def test_split_creates_two_leaves(self):
        tree = unit_tree()
        root = tree.locate((0.5, 0.5))
        low, high = tree.split_leaf(root, 0, 0.5, low_owner=0, high_owner=1)
        assert len(tree.leaves) == 2
        assert tree.locate((0.25, 0.5)) is low
        assert tree.locate((0.75, 0.5)) is high
        assert low.owner == 0 and high.owner == 1

    def test_locate_boundary_goes_high(self):
        tree = unit_tree()
        root = tree.locate((0.5, 0.5))
        low, high = tree.split_leaf(root, 0, 0.5, 0, 1)
        assert tree.locate((0.5, 0.1)) is high

    def test_partition_invariant_after_many_splits(self):
        tree = unit_tree()
        import random

        rnd = random.Random(3)
        for owner in range(1, 40):
            point = (rnd.random(), rnd.random())
            leaf = tree.locate(point)
            dim = rnd.randrange(2)
            lo, hi = leaf.zone.lo[dim], leaf.zone.hi[dim]
            at = (lo + hi) / 2
            tree.split_leaf(leaf, dim, at, leaf.owner, owner)
            tree.check_partition()
        assert len(tree.leaves) == 40

    def test_split_stale_leaf_rejected(self):
        tree = unit_tree()
        root = tree.locate((0.5, 0.5))
        tree.split_leaf(root, 0, 0.5, 0, 1)
        with pytest.raises(KeyError):
            tree.split_leaf(root, 1, 0.5, 0, 2)


class TestTakeover:
    def test_figure3_scenario(self):
        """Paper Figure 3: vertical split then two horizontal splits —
        A and C take over each other; B and D take over each other."""
        tree = unit_tree(owner=0)  # A owns everything
        root = tree.locate((0.1, 0.1))
        left, right = tree.split_leaf(root, 0, 0.5, 0, 1)  # A | B
        a_leaf, c_leaf = tree.split_leaf(left, 1, 0.5, 0, 2)  # A under C
        b_leaf, d_leaf = tree.split_leaf(right, 1, 0.5, 1, 3)  # B under D
        assert tree.takeover_leaf(a_leaf, {0}).owner == 2  # A <-> C
        assert tree.takeover_leaf(c_leaf, {2}).owner == 0
        assert tree.takeover_leaf(b_leaf, {1}).owner == 3  # B <-> D
        assert tree.takeover_leaf(d_leaf, {3}).owner == 1

    def test_takeover_skips_excluded_owners(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.1, 0.1))
        left, right = tree.split_leaf(root, 0, 0.5, 0, 1)
        a_leaf, c_leaf = tree.split_leaf(left, 1, 0.5, 0, 2)
        # C (owner 2) is also dead: the search climbs to B's subtree
        claimant = tree.takeover_leaf(a_leaf, {0, 2})
        assert claimant.owner == 1

    def test_takeover_of_lone_node_is_none(self):
        tree = unit_tree(owner=0)
        leaf = tree.locate((0.5, 0.5))
        assert tree.takeover_leaf(leaf, {0}) is None

    def test_takeover_descends_into_most_recent_split(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.1, 0.1))
        left, right = tree.split_leaf(root, 0, 0.5, 0, 1)
        # owner 1's side splits further: the deepest (most recent) partner
        # inherits the take-over duty for owner 0's leaf
        b_leaf, e_leaf = tree.split_leaf(right, 1, 0.5, 1, 4)
        claimant = tree.takeover_leaf(left, {0})
        assert claimant.owner in (1, 4)
        assert claimant.seq >= b_leaf.seq


class TestMergeAndTransfer:
    def test_transfer_changes_owner(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.5, 0.5))
        low, high = tree.split_leaf(root, 0, 0.5, 0, 1)
        tree.transfer(high, 0)
        assert high.owner == 0

    def test_merge_same_owner_siblings(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.5, 0.5))
        low, high = tree.split_leaf(root, 0, 0.5, 0, 1)
        tree.transfer(high, 0)
        merged = tree.try_merge(high)
        assert merged is not None
        _, _, new_leaf = merged
        assert new_leaf.zone == Zone([0, 0], [1, 1])
        assert len(tree.leaves) == 1
        tree.check_partition()

    def test_merge_refuses_different_owners(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.5, 0.5))
        low, high = tree.split_leaf(root, 0, 0.5, 0, 1)
        assert tree.try_merge(high) is None

    def test_merge_refuses_internal_sibling(self):
        tree = unit_tree(owner=0)
        root = tree.locate((0.1, 0.1))
        left, right = tree.split_leaf(root, 0, 0.5, 0, 1)
        tree.split_leaf(right, 1, 0.5, 1, 2)
        assert tree.try_merge(left) is None
