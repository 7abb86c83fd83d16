"""Unit tests for workload sampling primitives."""

import dataclasses
import hashlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import PAPER_LOAD, generate_jobs, generate_node_specs
from repro.workload.distributions import Tiered, WeightedChoice
from repro.workload.jobs import JobDistribution, _slot_tables
from repro.workload.nodes import NodeDistribution


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


# -- the draw oracle ---------------------------------------------------------
# ``Generator.choice(n, p=w / w.sum())`` is the reference a weighted pick
# reproduces: the same value from the same stream, leaving the generator in
# the same state.


def _choice_sample(dist, rng):
    if isinstance(dist, WeightedChoice):
        w = np.asarray(dist.weights, dtype=float)
        return dist.values[rng.choice(len(dist.values), p=w / w.sum())]
    weights = np.array([t[0] for t in dist.tiers])
    _, lo, hi = dist.tiers[rng.choice(len(dist.tiers), p=weights / weights.sum())]
    return float(rng.uniform(lo, hi)) if hi > lo else lo


def _assert_draw_for_draw(dist, seed, draws):
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert dist.sample(ours) == _choice_sample(dist, ref)
    assert ours.bit_generator.state == ref.bit_generator.state


class _Fixed:
    """A stand-in generator: every ``random()`` is ``u``; ranges give ``lo``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def uniform(self, lo, hi):
        return lo


_DEFAULTS = [
    (f"{type(owner).__name__}.{f.name}", getattr(owner, f.name))
    for owner in (NodeDistribution(), JobDistribution())
    for f in dataclasses.fields(owner)
    if isinstance(getattr(owner, f.name), (Tiered, WeightedChoice))
]
every_default = pytest.mark.parametrize(
    "dist", [d for _, d in _DEFAULTS], ids=[name for name, _ in _DEFAULTS]
)


class TestDrawOracle:
    @every_default
    def test_default_distributions(self, dist):
        _assert_draw_for_draw(dist, seed=20110926, draws=2000)

    @every_default
    def test_a_draw_on_a_table_entry_goes_right(self, dist):
        # Random draws almost never land on an entry, so the oracle above
        # cannot see which way a tie breaks, nor an unnormalised last entry
        cdf = dist._cdf
        assert cdf[-1] == 1.0
        for u in cdf[:-1]:
            idx = int(np.searchsorted(np.array(cdf), u, side="right"))
            expected = (
                dist.tiers[idx][1] if isinstance(dist, Tiered) else dist.values[idx]
            )
            assert dist.sample(_Fixed(u)) == expected

    @pytest.mark.parametrize("gpu_slots", [1, 2, 3])
    def test_gpu_slot_picks(self, gpu_slots):
        weights = JobDistribution().gpu_slot_weights
        first, seconds = _slot_tables(weights, gpu_slots)
        w = np.asarray(weights[:gpu_slots], dtype=float)
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2000):
            slot = bisect_right(first, ours.random())
            assert slot == int(ref.choice(gpu_slots, p=w / w.sum()))
            if gpu_slots > 1:
                others, cdf = seconds[slot]
                w2 = np.asarray([weights[g] for g in others], dtype=float)
                assert others[bisect_right(cdf, ours.random())] == others[
                    int(ref.choice(len(others), p=w2 / w2.sum()))
                ]
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_too_few_slot_weights(self):
        with pytest.raises(ValueError):
            _slot_tables((0.6, 0.4), 3)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8
        ).filter(lambda w: sum(w) != 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arbitrary_positive_weights(self, weights, seed):
        values = tuple(range(len(weights)))
        _assert_draw_for_draw(
            WeightedChoice(values=values, weights=tuple(weights)), seed, 200
        )
        tiers = tuple((w, float(i), i + 0.5) for i, w in enumerate(weights))
        _assert_draw_for_draw(Tiered(tiers=tiers), seed, 200)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestDrawStreamPin:
    """The generators' output streams, pinned directly.

    Both digests were computed with the ``Generator.choice`` draws of
    commit 760de75, before the cumulative tables replaced them: a table
    that picked another index, or consumed the stream differently, moves
    them.  Job ids come from a process-wide counter, so the job digest
    leaves them out.
    """

    def test_node_specs(self):
        specs = generate_node_specs(1000, 2, np.random.default_rng(20110926))
        assert _sha(repr(specs)) == (
            "d64062e461aadbcb3f11b32375ec2bba8f0017b11a9647f501a1255327ed594b"
        )

    def test_paper_load_job_stream(self):
        rng = np.random.default_rng(PAPER_LOAD.seed)
        nodes = generate_node_specs(PAPER_LOAD.nodes, PAPER_LOAD.gpu_slots, rng)
        jobs = generate_jobs(
            2000,
            nodes,
            PAPER_LOAD.gpu_slots,
            PAPER_LOAD.mean_interarrival,
            rng,
            JobDistribution().with_constraint_ratio(PAPER_LOAD.constraint_ratio),
        )
        stream = [
            (j.submit_time, j.base_duration, sorted(j.requirements.items()))
            for j in jobs
        ]
        assert _sha(repr(stream)) == (
            "1b8a1e90f32d9099eab6d95ad208e2a0bb86c77534f65b3b927fb45756f82e49"
        )
        assert rng.bit_generator.state["state"] == {
            "state": 237263573050900537781310291397982020382,
            "inc": 225858100755015806164932800139327825793,
        }
