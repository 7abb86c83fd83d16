"""Unit tests for experiment metrics."""

import numpy as np
import pytest

from repro.gridsim.metrics import cdf_at, empirical_cdf, wait_time_table


def jains_fairness(loads) -> float:
    """Jain's fairness index of a load vector (1.0 = perfectly balanced)."""
    x = np.asarray(loads, dtype=float)
    if x.size == 0:
        return 1.0
    denom = x.size * float((x * x).sum())
    if denom == 0:
        return 1.0
    return float(x.sum()) ** 2 / denom


class TestCdf:
    def test_empirical_cdf(self):
        values, fractions = empirical_cdf([3, 1, 2])
        assert list(values) == [1, 2, 3]
        assert list(fractions) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        values, fractions = empirical_cdf([])
        assert values.size == 0 and fractions.size == 0
        assert list(cdf_at([], [1, 2])) == [0.0, 0.0]

    def test_cdf_at_thresholds(self):
        fractions = cdf_at([0, 10, 20, 30], [5, 10, 100])
        assert list(fractions) == pytest.approx([0.25, 0.5, 1.0])

    def test_cdf_at_inclusive(self):
        assert cdf_at([10.0], [10.0])[0] == 1.0

    def test_wait_time_table_rows(self):
        rows = wait_time_table([0, 0, 1000, 60000], grid=(0, 1000, 50000))
        assert rows == [
            (0.0, pytest.approx(50.0)),
            (1000.0, pytest.approx(75.0)),
            (50000.0, pytest.approx(75.0)),
        ]


class TestFairness:
    def test_perfectly_balanced(self):
        assert jains_fairness([5, 5, 5]) == pytest.approx(1.0)

    def test_single_hotspot(self):
        assert jains_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_degenerate(self):
        assert jains_fairness([]) == 1.0
        assert jains_fairness([0, 0]) == 1.0
