"""Unit tests for named random streams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("jobs").random(10)
        b = RngRegistry(42).stream("jobs").random(10)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        reg = RngRegistry(42)
        a = reg.stream("jobs").random(10)
        b = reg.stream("nodes").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("jobs").random(10)
        b = RngRegistry(2).stream("jobs").random(10)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_stream_independence_from_draw_order(self):
        # drawing from one stream must not shift another
        r1 = RngRegistry(7)
        r1.stream("a").random(1000)
        b1 = r1.stream("b").random(5)
        r2 = RngRegistry(7)
        b2 = r2.stream("b").random(5)
        assert np.array_equal(b1, b2)

    def test_validation(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")
        with pytest.raises(ValueError):
            RngRegistry(0).stream("")

    def test_iter_lists_created_streams(self):
        reg = RngRegistry(0)
        reg.stream("one")
        reg.stream("two")
        assert sorted(reg) == ["one", "two"]
