"""Unit tests for the deterministic network model (repro.net)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    IDENTITY,
    FlapSpec,
    LatencySpec,
    NetworkModel,
    NetworkSpec,
)


class TestSpecValidation:
    def test_loss_closed_interval(self):
        assert NetworkSpec(loss=0.0).identity
        assert NetworkSpec(loss=1.0).loss == 1.0  # blackout is legal
        with pytest.raises(ValueError):
            NetworkSpec(loss=1.0001)
        with pytest.raises(ValueError):
            NetworkSpec(loss=-0.1)

    def test_latency_kinds(self):
        with pytest.raises(ValueError):
            LatencySpec(kind="pareto")
        with pytest.raises(ValueError):
            LatencySpec(kind="uniform", low=2.0, high=1.0)
        with pytest.raises(ValueError):
            LatencySpec(kind="constant", low=-1.0)
        with pytest.raises(ValueError):
            LatencySpec(kind="lognormal", sigma=-0.5)

    def test_flap_validation(self):
        with pytest.raises(ValueError):
            FlapSpec(down=0.0, up=10.0)
        with pytest.raises(ValueError):
            FlapSpec(down=10.0, up=10.0, fraction=0.0)
        with pytest.raises(ValueError):
            FlapSpec(down=10.0, up=10.0, start=5.0, end=1.0)

    def test_loss_needs_rng(self):
        with pytest.raises(ValueError):
            NetworkModel(NetworkSpec(loss=0.5))


class TestIdentity:
    def test_identity_bypass_no_accounting(self):
        for _ in range(5):
            assert IDENTITY.transmit(1, 2, 100.0) == 0.0
        assert IDENTITY.attempts == 0
        assert IDENTITY.delivered == 0
        assert IDENTITY.dropped == 0

    def test_non_identity_specs(self):
        assert not NetworkSpec(loss=0.1).identity
        assert not NetworkSpec(latency=LatencySpec(low=1.0)).identity
        assert not NetworkSpec(flaps=(FlapSpec(down=1.0, up=1.0),)).identity


class TestLoss:
    def test_draw_pattern_matches_inline_sites(self):
        """One rng.random() per send, in send order — the historical
        behaviour of the inline ``loss_rng.random() < rate`` sites."""
        rate = 0.37
        model = NetworkSpec(loss=rate).build(np.random.default_rng(7))
        verdicts = [model.transmit(i, i + 1, 0.0) for i in range(500)]
        replay = np.random.default_rng(7)
        expected = [replay.random() < rate for _ in range(500)]
        assert [v is None for v in verdicts] == expected

    def test_blackout_drops_everything(self):
        model = NetworkSpec(loss=1.0).build(np.random.default_rng(0))
        assert all(model.transmit(0, 1, 0.0) is None for _ in range(50))
        assert model.delivered == 0
        assert model.drops["loss"] == model.attempts == 50


class TestFlaps:
    SPEC = NetworkSpec(flaps=(FlapSpec(down=240.0, up=120.0, fraction=0.5),))

    def test_deterministic_and_order_independent(self):
        a, b = self.SPEC.build(np.random.default_rng(0)), self.SPEC.build(np.random.default_rng(0))
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        times = [0.0, 90.0, 250.0, 359.0, 400.0]
        forward = [a.transmit(s, d, t) for t in times for (s, d) in pairs]
        backward = [
            b.transmit(s, d, t) for t in reversed(times) for (s, d) in reversed(pairs)
        ]
        assert forward == list(reversed(backward))

    def test_undirected_pair_shares_schedule(self):
        model = self.SPEC.build(np.random.default_rng(0))
        for t in (0.0, 100.0, 200.0, 300.0):
            assert (model.transmit(3, 4, t) is None) == (
                model.transmit(4, 3, t) is None
            )

    def test_square_wave_cycles(self):
        """A flapped link is down for ``down`` then up for ``up``, repeating."""
        flap = FlapSpec(down=240.0, up=120.0)  # fraction=1: every link flaps
        down_at = [flap.link_down(0, 1, t) for t in np.arange(0, 1440, 1.0)]
        # half-open down windows of integer length: exactly 240 ticks per cycle
        assert sum(down_at) == 4 * 240
        # state changes only at schedule edges: 2 per cycle (the final pair
        # of samples may straddle the window end and miss one transition)
        flips = sum(x != y for x, y in zip(down_at, down_at[1:]))
        assert flips in (7, 8)

    def test_fraction_spares_some_links(self):
        model = self.SPEC.build(np.random.default_rng(0))
        verdicts = {
            (s, d): model.transmit(s, d, 10.0) for s in range(20) for d in range(20)
            if s < d
        }
        downs = sum(v is None for v in verdicts.values())
        assert 0 < downs < len(verdicts)  # some flap, some sat it out

    def test_window_bounds_the_storm(self):
        spec = NetworkSpec(
            flaps=(FlapSpec(down=240.0, up=0.0, start=100.0, end=500.0),)
        )
        model = spec.build(np.random.default_rng(0))
        assert model.transmit(0, 1, 99.0) == 0.0
        assert model.transmit(0, 1, 100.0) is None  # up=0: always down inside
        assert model.transmit(0, 1, 500.0) == 0.0


class TestLatency:
    def test_cached_per_directed_pair(self):
        spec = NetworkSpec(latency=LatencySpec(kind="uniform", low=1.0, high=9.0))
        model = spec.build(np.random.default_rng(0))
        first = model.transmit(1, 2, 0.0)
        assert 1.0 <= first < 9.0
        assert all(model.transmit(1, 2, t) == first for t in (50.0, 999.0))
        # directed: the reverse path draws its own latency
        lats = {model.transmit(s, d, 0.0) for s in range(9) for d in range(9) if s != d}
        assert len(lats) > 1

    def test_lognormal_positive_and_stable(self):
        spec = NetworkSpec(latency=LatencySpec(kind="lognormal", mu=-2.0, sigma=1.0))
        a, b = spec.build(np.random.default_rng(0)), spec.build(np.random.default_rng(0))
        for s in range(10):
            lat = a.transmit(s, s + 1, 0.0)
            assert lat > 0.0
            assert b.transmit(s, s + 1, 0.0) == lat  # hash-seeded, not RNG

    def test_constant(self):
        spec = NetworkSpec(latency=LatencySpec(kind="constant", low=3.5))
        assert spec.build(np.random.default_rng(0)).transmit(0, 1, 0.0) == 3.5


class TestAccounting:
    def test_attempts_partition_delivered_and_dropped(self):
        spec = NetworkSpec(
            loss=0.2,
            flaps=(FlapSpec(down=100.0, up=100.0, fraction=0.4),),
        )
        model = spec.build(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(2000):
            s, d = int(rng.integers(12)), int(rng.integers(12))
            model.transmit(s, d, float(rng.integers(1000)))
        assert model.attempts == 2000
        assert model.attempts == model.delivered + model.dropped
        assert all(v >= 0 for v in model.drops.values())
        counters = model.counters()
        assert counters["attempts"] == 2000
        assert set(counters) == {
            "attempts",
            "delivered",
            "dropped_loss",
            "dropped_link_down",
        }


# ---------------------------------------------------- transmit_many ≡ loop --
_LATENCIES = st.sampled_from(
    [
        None,
        LatencySpec(kind="constant", low=3.5),
        LatencySpec(kind="uniform", low=1.0, high=90.0),
        LatencySpec(kind="lognormal", mu=math.log(20.0), sigma=1.0),
    ]
)
_IDS = st.integers(0, 11)
_FLAPS = st.lists(
    st.builds(
        FlapSpec,
        down=st.sampled_from([30.0, 200.0]),
        up=st.sampled_from([0.0, 45.0]),
        fraction=st.sampled_from([0.3, 0.6, 1.0]),
        start=st.sampled_from([0.0, 60.0]),
    ),
    max_size=2,
).map(tuple)
_SPECS = st.builds(
    NetworkSpec,
    loss=st.sampled_from([0.0, 0.05, 1.0]),
    latency=_LATENCIES,
    flaps=_FLAPS,
)
#: a run of sender turns: (src, dsts, now), empty and 1-element fan-outs too
_TURNS = st.lists(
    st.tuples(
        _IDS,
        st.lists(_IDS, max_size=9),
        st.sampled_from([0.0, 59.0, 120.0, 149.0, 150.0, 700.0]),
    ),
    min_size=1,
    max_size=8,
)


class TestTransmitMany:
    @settings(max_examples=150, deadline=None)
    @given(spec=_SPECS, turns=_TURNS, rng_seed=st.integers(0, 5))
    def test_a_batch_is_the_loop_of_scalar_sends(self, spec, turns, rng_seed):
        """Verdicts, counters, the loss stream's state and the latency cache
        after ``transmit_many`` are those of ``transmit`` per destination."""
        batch = spec.build(np.random.default_rng(rng_seed))
        twin = spec.build(np.random.default_rng(rng_seed))
        for src, dsts, now in turns:
            expected = [twin.transmit(src, dst, now) for dst in dsts]
            assert batch.transmit_many(src, dsts, now) == expected
            # at every instant a checker can look
            assert batch.attempts == batch.delivered + batch.dropped
            assert batch.counters() == twin.counters()
            assert batch._latency_cache == twin._latency_cache
            assert (
                batch._rng.bit_generator.state == twin._rng.bit_generator.state
            )

    def test_survivors_alone_draw(self):
        """A send a flap cut consumes nothing of the loss stream: the k
        survivors draw k uniforms, in their order."""
        spec = NetworkSpec(
            loss=0.5,
            flaps=(FlapSpec(down=50.0, up=50.0, fraction=0.5),),
        )
        model = spec.build(np.random.default_rng(11))
        reference = np.random.default_rng(11)
        dsts = list(range(1, 12))
        verdicts = model.transmit_many(0, dsts, 10.0)
        cut = model.drops["link_down"]
        assert 0 < cut < len(dsts)
        draws = reference.random(len(dsts) - cut)
        assert reference.bit_generator.state == model._rng.bit_generator.state
        survivors = [
            dst
            for dst in dsts
            if not spec.flaps[0].link_down(0, dst, 10.0)
        ]
        assert [v is None for v in (verdicts[d - 1] for d in survivors)] == [
            bool(u < 0.5) for u in draws
        ]

    def test_identity_batch_bypasses_accounting(self):
        assert IDENTITY.transmit_many(1, [2, 3, 4], 100.0) == [0.0, 0.0, 0.0]
        assert IDENTITY.transmit_many(1, [], 100.0) == []
        assert IDENTITY.attempts == 0

    def test_identity_is_decided_once(self):
        assert IDENTITY.is_identity
        assert not NetworkSpec(latency=LatencySpec(low=1.0)).build(np.random.default_rng(0)).is_identity
