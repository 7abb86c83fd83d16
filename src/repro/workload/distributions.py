"""Sampling primitives for synthetic grid workloads.

The paper's workload is summarised qualitatively: "a high percentage of the
nodes and jobs have relatively low resource capabilities and requirements,
and a low percentage ... have high resource capabilities and requirements,
which is a common node capability distribution in grid environments"
(Section V-A).  :class:`Tiered` encodes exactly that: weighted tiers, each a
uniform range, with the weights front-loaded on the low tiers.

A weighted pick is ``bisect_right(cdf, rng.random())`` over a cumulative
table built once per distribution.  The table is what
``Generator.choice(n, p=w / w.sum())`` builds on every call (``cumsum`` of
``p``, divided by its last entry), and ``choice`` with ``size=None`` draws
exactly one ``rng.random()`` and takes ``searchsorted(side="right")`` of it,
which is ``bisect_right``: the same index from the same stream, at a
fraction of the cost (DESIGN.md, "Weighted picks").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Tiered", "WeightedChoice"]


def cumulative(weights: Sequence[float]) -> Tuple[float, ...]:
    """The cumulative table ``Generator.choice`` builds for these weights."""
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


@dataclass(frozen=True)
class Tiered:
    """Mixture of uniform ranges: pick a tier by weight, then a value."""

    tiers: Tuple[Tuple[float, float, float], ...]  # (weight, low, high)
    _cdf: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier required")
        for w, lo, hi in self.tiers:
            if w <= 0:
                raise ValueError("tier weights must be positive")
            if hi < lo:
                raise ValueError(f"tier range inverted: [{lo}, {hi}]")
        object.__setattr__(self, "_cdf", cumulative([t[0] for t in self.tiers]))

    def sample(self, rng: np.random.Generator) -> float:
        _, lo, hi = self.tiers[bisect_right(self._cdf, rng.random())]
        return float(rng.uniform(lo, hi)) if hi > lo else lo


@dataclass(frozen=True)
class WeightedChoice:
    """Discrete weighted choice over explicit values (core counts etc.)."""

    values: Tuple[float, ...]
    weights: Tuple[float, ...]
    _cdf: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights must align")
        if not self.values:
            raise ValueError("empty choice set")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "_cdf", cumulative(self.weights))

    def sample(self, rng: np.random.Generator) -> float:
        return self.values[bisect_right(self._cdf, rng.random())]

