"""Property-based tests for the measurement primitives' edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import Counter, TimeSeries, TimeWeighted

finite_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestTimeWeightedProperties:
    def test_empty_mean_is_current_value(self):
        """With no elapsed time the mean degenerates to the current value."""
        tw = TimeWeighted()
        assert tw.mean(0.0) == 0.0
        tw = TimeWeighted(time=5.0, value=3.0)
        assert tw.mean(5.0) == 3.0

    @given(value=finite_values, start=finite_times)
    def test_zero_span_mean_never_divides_by_zero(self, value, start):
        tw = TimeWeighted(time=start, value=value)
        assert tw.mean(start) == value

    @given(
        start=finite_times,
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                finite_values,
            ),
            min_size=1,
            max_size=20,
        ),
        tail=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_mean_bounded_by_observed_values(self, start, steps, tail):
        """A time-weighted mean never escapes [min, max] of the signal."""
        tw = TimeWeighted(time=start, value=steps[0][1])
        seen = [steps[0][1]]
        t = start
        for gap, value in steps:
            t += gap
            tw.update(t, value)
            seen.append(value)
        mean = tw.mean(t + tail)
        tol = 1e-6 * max(1.0, max(abs(v) for v in seen))
        assert min(seen) - tol <= mean <= max(seen) + tol

    @given(t=finite_times, earlier=st.floats(min_value=1e-3, max_value=1e3))
    def test_time_going_backwards_rejected(self, t, earlier):
        tw = TimeWeighted(time=t, value=1.0)
        with pytest.raises(ValueError):
            tw.update(t - earlier, 2.0)
        with pytest.raises(ValueError):
            tw.mean(t - earlier)

    def test_constant_signal_mean_is_that_constant(self):
        tw = TimeWeighted(time=0.0, value=4.0)
        tw.update(10.0, 4.0)
        tw.update(25.0, 4.0)
        assert tw.mean(100.0) == pytest.approx(4.0)


class TestTimeSeriesProperties:
    def test_empty_series_edges(self):
        ts = TimeSeries("x")
        assert len(ts) == 0
        with pytest.raises(IndexError):
            ts.last()
        assert ts.rows() == []

    @given(
        times=st.lists(finite_times, min_size=2, max_size=20, unique=True),
    )
    def test_out_of_order_records_rejected(self, times):
        """Any non-sorted arrival order must raise, leaving order intact."""
        times = sorted(times)
        ts = TimeSeries("x")
        for t in times:
            ts.record(t, 0.0)
        with pytest.raises(ValueError):
            ts.record(times[-1] - (times[-1] - times[0]) / 2 - 1e-9, 0.0)
        assert list(ts.times) == times  # the bad sample was not appended

    @given(
        samples=st.lists(
            st.tuples(finite_times, finite_values), min_size=1, max_size=30
        )
    )
    @settings(max_examples=60)
    def test_sorted_ingest_round_trips(self, samples):
        samples = sorted(samples, key=lambda p: p[0])
        ts = TimeSeries("x")
        for t, v in samples:
            ts.record(t, v)
        assert len(ts) == len(samples)
        assert ts.last() == (samples[-1][0], samples[-1][1])
        assert np.all(np.diff(ts.times) >= 0)

    def test_equal_timestamps_allowed(self):
        ts = TimeSeries("x")
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert ts.rows() == [(1.0, 1.0), (1.0, 2.0)]


class TestCounterProperties:
    @given(
        adds=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            ),
            max_size=30,
        )
    )
    def test_total_equals_sum_of_adds(self, adds):
        c = Counter()
        for key, amount in adds:
            c.add(key, amount)
        assert c.total() == pytest.approx(sum(a for _, a in adds))

    def test_negative_add_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add("x", -1.0)
