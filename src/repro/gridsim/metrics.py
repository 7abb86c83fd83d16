"""Metric helpers shared by experiments: wait-time CDFs and the figures' table."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "empirical_cdf",
    "cdf_at",
    "wait_time_table",
]


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted values and cumulative fractions (both length n)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return v, v
    fractions = np.arange(1, v.size + 1, dtype=float) / v.size
    return v, fractions


def cdf_at(values: Sequence[float], thresholds: Sequence[float]) -> np.ndarray:
    """Fraction of values <= each threshold (the paper's CDF y-values)."""
    v = np.sort(np.asarray(values, dtype=float))
    t = np.asarray(thresholds, dtype=float)
    if v.size == 0:
        return np.zeros_like(t)
    return np.searchsorted(v, t, side="right") / v.size


#: the thresholds (s) of :func:`wait_time_table`: the x axis of the
#: paper's Figures 5 and 6, up to 50,000 s
TABLE_GRID: Tuple[float, ...] = (0, 1000, 5000, 10000, 20000, 30000, 40000, 50000)


def wait_time_table(wait_times: Sequence[float]) -> List[Tuple[float, float]]:
    """(threshold seconds, % of jobs waiting at most that long) rows, one
    per ``TABLE_GRID`` threshold (the paper plots y from 80%)."""
    fracs = cdf_at(wait_times, TABLE_GRID)
    return [(float(g), float(f) * 100.0) for g, f in zip(TABLE_GRID, fracs)]


