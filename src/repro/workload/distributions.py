"""Sampling primitives for synthetic grid workloads.

The paper's workload is summarised qualitatively: "a high percentage of the
nodes and jobs have relatively low resource capabilities and requirements,
and a low percentage ... have high resource capabilities and requirements,
which is a common node capability distribution in grid environments"
(Section V-A).  :class:`Tiered` encodes exactly that: weighted tiers, each a
uniform range, with the weights front-loaded on the low tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Tiered", "WeightedChoice"]


@dataclass(frozen=True)
class Tiered:
    """Mixture of uniform ranges: pick a tier by weight, then a value."""

    tiers: Tuple[Tuple[float, float, float], ...]  # (weight, low, high)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier required")
        for w, lo, hi in self.tiers:
            if w <= 0:
                raise ValueError("tier weights must be positive")
            if hi < lo:
                raise ValueError(f"tier range inverted: [{lo}, {hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        weights = np.array([t[0] for t in self.tiers])
        idx = rng.choice(len(self.tiers), p=weights / weights.sum())
        _, lo, hi = self.tiers[idx]
        return float(rng.uniform(lo, hi)) if hi > lo else lo


@dataclass(frozen=True)
class WeightedChoice:
    """Discrete weighted choice over explicit values (core counts etc.)."""

    values: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights must align")
        if not self.values:
            raise ValueError("empty choice set")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        w = np.asarray(self.weights, dtype=float)
        idx = rng.choice(len(self.values), p=w / w.sum())
        return self.values[idx]

