"""Unit tests for the message size model (Figure 8(b)'s foundation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.messages import MessageType, SizeModel


# -- the per-record sums the totals-based sizes stand for ----------------------------


def table_bytes(model: SizeModel, dims: int, zone_counts) -> int:
    """A bare table payload, record by record."""
    size = model.header_bytes
    for zc in zone_counts:
        size += model.record_bytes(dims, max(zc, 1))
    return size


def full_heartbeat_bytes(
    model: SizeModel, dims: int, own_zones: int, zone_counts
) -> int:
    """A compact heartbeat plus every listed record, record by record."""
    size = model.heartbeat_bytes(dims, own_zones)
    for zc in zone_counts:
        size += model.record_bytes(dims, max(zc, 1))
    return size


class TestSizeModel:
    def setup_method(self):
        self.model = SizeModel()

    def test_record_grows_linearly_with_dims(self):
        sizes = [self.model.record_bytes(d) for d in (5, 8, 11, 14)]
        diffs = np.diff(sizes)
        assert np.allclose(diffs, diffs[0])  # exactly linear

    def test_record_grows_with_zone_count(self):
        assert self.model.record_bytes(11, zones=2) > self.model.record_bytes(11, 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            self.model.record_bytes(0)
        with pytest.raises(ValueError):
            self.model.record_bytes(5, zones=0)

    def test_compact_heartbeat_is_linear_in_d(self):
        sizes = [
            self.model.heartbeat_bytes(d, 1) for d in (5, 8, 11, 14)
        ]
        diffs = np.diff(sizes)
        assert np.allclose(diffs, diffs[0])

    def test_full_heartbeat_is_quadratic_in_d(self):
        """Neighbors scale with d, each record with d -> O(d^2) volume.

        Fit: size(d) with k=2d neighbor records must grow superlinearly.
        """
        sizes = [
            self.model.heartbeat_bytes_from_totals(d, 1, 2 * d, 2 * d)
            for d in (5, 8, 11, 14)
        ]
        growth = np.diff(sizes)
        assert (np.diff(growth) > 0).all()  # increasing increments
        # quadratic fit should dominate the linear term
        coeffs = np.polyfit((5, 8, 11, 14), sizes, 2)
        assert coeffs[0] > 0

    def test_full_beats_compact(self):
        assert self.model.heartbeat_bytes_from_totals(11, 1, 20, 20) > (
            self.model.heartbeat_bytes(11, 1)
        )

    def test_table_bytes_counts_records(self):
        empty = self.model.table_bytes_from_totals(11, 0, 0)
        three = self.model.table_bytes_from_totals(11, 3, 4)
        assert empty == self.model.header_bytes
        assert three == empty + 2 * self.model.record_bytes(11, 1) + (
            self.model.record_bytes(11, 2)
        )

    def test_request_is_header_only(self):
        assert self.model.request_bytes() == self.model.header_bytes

    def test_notify_size(self):
        assert self.model.notify_bytes(11) == (
            self.model.header_bytes + 2 * self.model.record_bytes(11)
        )

    def test_message_types_enumerated(self):
        assert len(MessageType) == 8
        assert MessageType.HEARTBEAT.value == "heartbeat"


class TestFromTotals:
    """The O(1) totals-based sizes equal the per-record sums exactly."""

    def setup_method(self):
        self.model = SizeModel()

    @staticmethod
    def _totals(zone_counts):
        return len(zone_counts), sum(max(zc, 1) for zc in zone_counts)

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.integers(1, 16),
        zone_counts=st.lists(st.integers(0, 5), max_size=30),
    )
    def test_table_bytes_equivalence(self, dims, zone_counts):
        records, total_zones = self._totals(zone_counts)
        assert self.model.table_bytes_from_totals(
            dims, records, total_zones
        ) == table_bytes(self.model, dims, zone_counts)

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.integers(1, 16),
        own_zones=st.integers(1, 4),
        zone_counts=st.lists(st.integers(0, 5), max_size=30),
    )
    def test_heartbeat_bytes_equivalence(self, dims, own_zones, zone_counts):
        records, total_zones = self._totals(zone_counts)
        assert self.model.heartbeat_bytes_from_totals(
            dims, own_zones, records, total_zones
        ) == full_heartbeat_bytes(self.model, dims, own_zones, zone_counts)

    def test_record_base_is_single_zone_record_minus_box(self):
        dims = 11
        assert self.model.record_base_bytes(dims) == (
            self.model.record_bytes(dims, 1)
            - 2 * dims * self.model.float_bytes
        )

    def test_invalid_totals(self):
        with pytest.raises(ValueError):
            self.model.table_records_bytes(11, 3, 2)  # total < records
        with pytest.raises(ValueError):
            self.model.record_base_bytes(0)
