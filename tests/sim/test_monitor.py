"""Unit tests for measurement helpers."""

import numpy as np
import pytest

from repro.sim.monitor import Counter, TimeSeries, TimeWeighted


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("msgs")
        c.add("msgs", 2)
        assert c.get("msgs") == 3
        assert c.get("other") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_total(self):
        c = Counter()
        c.add("a", 1)
        c.add("b", 2)
        assert c.total() == 3


class TestTimeSeries:
    def test_record_and_export(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert np.array_equal(ts.times, [0.0, 1.0])
        assert np.array_equal(ts.values, [1.0, 2.0])
        assert ts.rows() == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_out_of_order_rejected(self):
        ts = TimeSeries("x")
        ts.record(5.0, 0.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 0.0)

    def test_last(self):
        ts = TimeSeries("x")
        with pytest.raises(IndexError):
            ts.last()
        ts.record(1.0, 9.0)
        assert ts.last() == (1.0, 9.0)


class TestTimeWeighted:
    def test_piecewise_mean(self):
        tw = TimeWeighted()
        tw.update(10.0, 4.0)  # value 0 for 10s
        tw.update(20.0, 0.0)  # value 4 for 10s
        assert tw.mean(20.0) == pytest.approx(2.0)

    def test_mean_extends_current_value(self):
        tw = TimeWeighted()
        tw.update(0.0, 2.0)
        assert tw.mean(10.0) == pytest.approx(2.0)

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 0.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 1.0)
        with pytest.raises(ValueError):
            tw.mean(0.0)

    def test_current(self):
        tw = TimeWeighted()
        assert tw.current == 0.0
        tw.update(0.0, 1.5)
        assert tw.current == 1.5
        tw.update(1.0, 2.5)
        assert tw.current == 2.5
