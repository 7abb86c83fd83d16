"""Morton keyspace: quantisation, interleave locality, key layout."""

import random

import pytest

from repro.chord.keyspace import (
    COORD_BITS,
    RING_BITS,
    RING_SIZE,
    TIEBREAK_BITS,
    ChordKeyspace,
)


def cell_key_range(ks: ChordKeyspace, cells) -> tuple[int, int]:
    """Inclusive ring-key interval covered by one coordinate cell."""
    lo = ks.interleave(cells) << TIEBREAK_BITS
    return lo, lo | ((1 << TIEBREAK_BITS) - 1)


def test_bit_budget_partitions_coord_bits():
    for dims in (1, 2, 3, 4, 11, 17, 48):
        ks = ChordKeyspace(dims)
        assert sum(ks.bits) == COORD_BITS
        # round-robin spare bits: early dims get at most one extra bit
        assert max(ks.bits) - min(ks.bits) <= 1
        assert list(ks.bits) == sorted(ks.bits, reverse=True)
        assert len(ks.schedule) == COORD_BITS


def test_dims_validation():
    with pytest.raises(ValueError):
        ChordKeyspace(0)
    with pytest.raises(ValueError):
        ChordKeyspace(COORD_BITS + 1)
    with pytest.raises(ValueError):
        ChordKeyspace(3).quantize((0.1, 0.2))


def test_quantize_clamps_out_of_range():
    ks = ChordKeyspace(2)
    lo = ks.quantize((-5.0, -0.001))
    hi = ks.quantize((1.0, 7.3))
    assert lo == (0, 0)
    assert hi == tuple((1 << b) - 1 for b in ks.bits)


def test_interleave_monotone_per_dimension():
    """Fixing all other dims, the z-code grows with each coordinate."""
    rng = random.Random(7)
    for dims in (1, 2, 4, 11):
        ks = ChordKeyspace(dims)
        for _ in range(50):
            cells = [rng.randrange(1 << b) for b in ks.bits]
            d = rng.randrange(dims)
            codes = []
            for v in sorted({0, cells[d], (1 << ks.bits[d]) - 1}):
                c = list(cells)
                c[d] = v
                codes.append(ks.interleave(c))
            assert codes == sorted(codes)


def test_point_key_layout():
    ks = ChordKeyspace(4)
    key = ks.point_key((0.3, 0.7, 0.1, 0.9))
    # tiebreak bits are zero: the smallest key of the coordinate cell
    assert key & ((1 << TIEBREAK_BITS) - 1) == 0
    assert 0 <= key < RING_SIZE
    assert key >> TIEBREAK_BITS == ks.interleave(ks.quantize((0.3, 0.7, 0.1, 0.9)))


def test_node_key_tiebreak_distinguishes_colocated_nodes():
    ks = ChordKeyspace(4)
    coord = (0.5, 0.5, 0.5, 0.5)
    keys = {ks.node_key(nid, coord) for nid in range(100)}
    assert len(keys) == 100  # splitmix64 tiebreak separates identical coords
    lo, hi = cell_key_range(ks, ks.quantize(coord))
    for k in keys:
        assert lo <= k <= hi
    # the point key is the cell floor, so every co-located node succeeds it
    assert ks.point_key(coord) == lo


def test_cell_key_range_tiles_the_ring():
    """Adjacent cells produce adjacent, disjoint key intervals."""
    ks = ChordKeyspace(1)
    prev_hi = -1
    for cell in range(256):  # consecutive cells -> consecutive intervals
        lo, hi = cell_key_range(ks, (cell,))
        assert prev_hi == -1 or lo == prev_hi + 1
        assert hi - lo + 1 == 1 << TIEBREAK_BITS
        prev_hi = hi


def test_ring_constants_consistent():
    assert RING_BITS == COORD_BITS + TIEBREAK_BITS
    assert RING_SIZE == 1 << RING_BITS
