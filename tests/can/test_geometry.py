"""Unit + property tests for zone geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.geometry import _EPS, Zone
from tests.can.oracle import zones_overlap


def touch_dimension(zone: Zone, other: Zone) -> int:
    """Axis along which two abutting zones touch (oracle for ``abuts``).

    Verifies abutment and finds the touch axis in one pass over the axes;
    raises ``ValueError`` when the zones do not abut.
    """
    touch_dim = -1
    for d, (l1, h1, l2, h2) in enumerate(zip(zone.lo, zone.hi, other.lo, other.hi)):
        if abs(h1 - l2) <= _EPS or abs(h2 - l1) <= _EPS:
            if touch_dim >= 0:
                raise ValueError("zones do not abut")
            touch_dim = d
        elif min(h1, h2) - max(l1, l2) <= _EPS:
            raise ValueError("zones do not abut")
    if touch_dim < 0:
        raise ValueError("zones do not abut")
    return touch_dim


def direction_of(zone: Zone, other: Zone, dim: int) -> int:
    """+1 when ``other`` lies on the high side of ``zone`` along ``dim``."""
    if abs(zone.hi[dim] - other.lo[dim]) <= _EPS:
        return +1
    if abs(other.hi[dim] - zone.lo[dim]) <= _EPS:
        return -1
    raise ValueError(f"zones do not touch along dim {dim}")


def unit_zone(d=2):
    return Zone([0.0] * d, [1.0] * d)


class TestZoneBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Zone([0, 0], [1])
        with pytest.raises(ValueError):
            Zone([], [])
        with pytest.raises(ValueError):
            Zone([0, 1], [1, 1])  # empty extent

    def test_contains_half_open(self):
        z = unit_zone()
        assert z.contains((0.0, 0.0))
        assert z.contains((0.5, 0.999))
        assert not z.contains((1.0, 0.5))
        assert z.contains_closed((1.0, 1.0))

    def test_volume_and_extent(self):
        z = Zone([0, 0], [2, 3])
        assert z.volume() == 6.0
        assert z.extent(0) == 2.0
        assert z.extent(1) == 3.0

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            unit_zone(2).contains((0.5,))
        with pytest.raises(ValueError):
            unit_zone(2).abuts(unit_zone(3))


class TestAbutment:
    def test_face_sharing(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 0], [2, 1])
        assert a.abuts(b)
        assert b.abuts(a)
        assert touch_dimension(a, b) == 0
        assert direction_of(a, b, 0) == +1
        assert direction_of(b, a, 0) == -1

    def test_partial_face_overlap_counts(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 0.5], [2, 2])
        assert a.abuts(b)

    def test_corner_contact_does_not_count(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 1], [2, 2])
        assert not a.abuts(b)

    def test_separated_zones(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([2, 0], [3, 1])
        assert not a.abuts(b)

    def test_overlapping_zones_do_not_abut(self):
        a = Zone([0, 0], [2, 2])
        b = Zone([1, 0], [3, 2])
        assert not a.abuts(b)
        assert zones_overlap(a, b)

    def test_touch_dimension_requires_abutment(self):
        a = Zone([0, 0], [1, 1])
        with pytest.raises(ValueError):
            touch_dimension(a, Zone([5, 5], [6, 6]))


class TestSplitMerge:
    def test_split_tiles_zone(self):
        z = Zone([0, 0], [2, 2])
        lo, hi = z.split(0, 0.5)
        assert lo == Zone([0, 0], [0.5, 2])
        assert hi == Zone([0.5, 0], [2, 2])
        assert lo.volume() + hi.volume() == pytest.approx(z.volume())
        assert lo.abuts(hi)

    def test_split_position_validation(self):
        z = unit_zone()
        with pytest.raises(ValueError):
            z.split(0, 0.0)
        with pytest.raises(ValueError):
            z.split(0, 1.0)
        with pytest.raises(ValueError):
            z.split(5, 0.5)

    def test_merge_restores_split(self):
        z = Zone([0, 1], [4, 3])
        lo, hi = z.split(1, 2.0)
        assert lo.merge(hi) == z
        assert hi.merge(lo) == z

    def test_merge_rejects_non_adjacent(self):
        a = Zone([0, 0], [1, 1])
        with pytest.raises(ValueError):
            a.merge(Zone([2, 0], [3, 1]))
        with pytest.raises(ValueError):
            a.merge(Zone([1, 1], [2, 2]))  # differs along two axes
        with pytest.raises(ValueError):
            a.merge(Zone([0, 0], [1, 1]))  # identical

    def test_hash_eq(self):
        assert unit_zone() == unit_zone()
        assert hash(unit_zone()) == hash(unit_zone())
        assert unit_zone() != Zone([0, 0], [1, 2])


# -- property-based -----------------------------------------------------------------

coords = st.floats(0.001, 0.999)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(0, 3),
    at=coords,
    point=st.tuples(coords, coords, coords, coords),
)
def test_split_preserves_containment(dim, at, point):
    """Any point of the parent lands in exactly one half."""
    z = Zone([0.0] * 4, [1.0] * 4)
    lo, hi = z.split(dim, at)
    assert lo.contains(point) != hi.contains(point)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(0, 2),
    at=coords,
)
def test_split_merge_roundtrip(dim, at):
    z = Zone([0.0] * 3, [1.0] * 3)
    lo, hi = z.split(dim, at)
    assert lo.merge(hi) == z
    assert lo.abuts(hi)
    assert touch_dimension(lo, hi) == dim


@settings(max_examples=100, deadline=None)
@given(
    a_lo=st.tuples(coords, coords),
    b_lo=st.tuples(coords, coords),
    ext=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
)
def test_abuts_is_symmetric(a_lo, b_lo, ext):
    a = Zone(a_lo, [x + e for x, e in zip(a_lo, ext)])
    b = Zone(b_lo, [x + e for x, e in zip(b_lo, ext)])
    assert a.abuts(b) == b.abuts(a)
