"""Unit tests for workload sampling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import Tiered, WeightedChoice


class TestTiered:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tiered(tiers=())
        with pytest.raises(ValueError):
            Tiered(tiers=((0.0, 1, 2),))
        with pytest.raises(ValueError):
            Tiered(tiers=((1.0, 2, 1),))

    def test_samples_within_bounds(self, rng):
        dist = Tiered(tiers=((0.7, 1.0, 2.0), (0.3, 5.0, 9.0)))
        samples = [dist.sample(rng) for _ in range(500)]
        for s in samples:
            assert (1.0 <= s <= 2.0) or (5.0 <= s <= 9.0)

    def test_weights_respected(self, rng):
        dist = Tiered(tiers=((0.9, 0.0, 1.0), (0.1, 10.0, 11.0)))
        samples = np.array([dist.sample(rng) for _ in range(2000)])
        low_fraction = (samples < 5).mean()
        assert 0.85 < low_fraction < 0.95

    def test_degenerate_tier(self, rng):
        dist = Tiered(tiers=((1.0, 3.0, 3.0),))
        assert dist.sample(rng) == 3.0


class TestWeightedChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedChoice(values=(), weights=())
        with pytest.raises(ValueError):
            WeightedChoice(values=(1, 2), weights=(1,))
        with pytest.raises(ValueError):
            WeightedChoice(values=(1,), weights=(0,))

    def test_samples_are_members(self, rng):
        choice = WeightedChoice(values=(1, 2, 4, 8), weights=(4, 3, 2, 1))
        for _ in range(200):
            assert choice.sample(rng) in (1, 2, 4, 8)

    def test_skew(self, rng):
        choice = WeightedChoice(values=(0, 1), weights=(9, 1))
        samples = np.array([choice.sample(rng) for _ in range(2000)])
        assert samples.mean() < 0.2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic_per_seed(self, seed):
        choice = WeightedChoice(values=(1, 2, 3), weights=(1, 1, 1))
        a = [choice.sample(np.random.default_rng(seed)) for _ in range(5)]
        b = [choice.sample(np.random.default_rng(seed)) for _ in range(5)]
        assert a == b
