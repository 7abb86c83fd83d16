"""The paper's claims, as shapes: Figures 5-8 at reduced scale.

Each test regenerates one evaluation figure at a reduced-but-structurally-
identical scale and asserts the qualitative shape the paper reports.
Full-scale regeneration is ``python -m repro.experiments <figure>``.
The simulations are deterministic, so every configuration runs once per
module (the fixtures memoise) however many tests read it.
"""

from functools import cache

import numpy as np
import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    GridSimulation,
    MatchmakingConfig,
    cdf_at,
)
from repro.workload import WorkloadPreset

# Same load ratio as the paper's 1000-node / 2-4 s setup.
FIG5_PRESET = WorkloadPreset(
    name="bench-fig5",
    nodes=120,
    jobs=1200,
    gpu_slots=2,
    mean_interarrival=25.0,  # heavy load at this node count
    constraint_ratio=0.6,
)

FIG6_PRESET = WorkloadPreset(
    name="bench-fig6",
    nodes=120,
    jobs=1200,
    gpu_slots=2,
    mean_interarrival=25.0,
    constraint_ratio=0.6,
)

FIG7 = dict(
    initial_nodes=100,
    gpu_slots=2,  # the paper's 11-dimensional CAN
    heartbeat_period=60.0,
    event_gap_mean=15.0,  # several events per heartbeat period: high churn
    leave_mode="fail",
    duration=5_000.0,
)

GPU_SLOT_SWEEP = (0, 1, 2, 3)  # 5, 8, 11, 14 dims


def _run_fig5(scheme, interarrival):
    cfg = MatchmakingConfig(
        FIG5_PRESET.with_interarrival(interarrival), scheme=scheme
    )
    return GridSimulation(cfg).run()


def _run_fig6(scheme, ratio):
    cfg = MatchmakingConfig(
        FIG6_PRESET.with_constraint_ratio(ratio), scheme=scheme
    )
    return GridSimulation(cfg).run()


def _run_fig7(scheme):
    return ChurnSimulation(ChurnConfig(scheme=scheme, **FIG7)).run()


def _run_fig8(scheme, nodes=80, gpu_slots=2, duration=1200.0):
    cfg = ChurnConfig(
        initial_nodes=nodes,
        gpu_slots=gpu_slots,
        scheme=scheme,
        heartbeat_period=60.0,
        event_gap_mean=120.0,  # slow churn: the cost-measurement regime
        leave_mode="fail",
        duration=duration,
    )
    return ChurnSimulation(cfg).run()


@pytest.fixture(scope="module")
def fig5():
    return cache(_run_fig5)


@pytest.fixture(scope="module")
def fig6():
    return cache(_run_fig6)


@pytest.fixture(scope="module")
def fig7():
    return cache(_run_fig7)


@pytest.fixture(scope="module")
def fig8():
    return cache(_run_fig8)


@pytest.fixture(scope="module")
def fig8_sweep(fig8):
    """(messages, KB) per node-minute across the dimension sweep."""

    @cache
    def sweep(scheme):
        counts, volumes = [], []
        for g in GPU_SLOT_SWEEP:
            r = fig8(scheme, gpu_slots=g)
            counts.append(r.rates.messages_per_node_minute)
            volumes.append(r.rates.kbytes_per_node_minute)
        return np.array(counts), np.array(volumes)

    return sweep


def test_fig5_shape_can_het_tracks_central(fig5):
    """Fig. 5, the headline: decentralized can-het ≈ central on the wait
    CDF (within 0.08 at every grid point under heavy load) while can-hom
    falls behind can-het by more than 0.03 somewhere on the tail."""
    het = fig5("can-het", 25.0)
    hom = fig5("can-hom", 25.0)
    central = fig5("central", 25.0)
    grid = (0.0, 1000.0, 5000.0, 10000.0)
    het_cdf = cdf_at(het.wait_times, grid)
    hom_cdf = cdf_at(hom.wait_times, grid)
    central_cdf = cdf_at(central.wait_times, grid)
    # can-het within a few points of central everywhere above the 80th pct
    assert np.all(het_cdf >= central_cdf - 0.08)
    # can-hom visibly worse somewhere on the tail
    assert np.any(hom_cdf < het_cdf - 0.03)


def test_fig5_shape_gap_grows_with_load(fig5):
    """Fig. 5 across panels: lighter load -> the schemes converge; heavier
    -> can-hom degrades, so the can-hom − can-het mean-wait gap is larger
    at 25 s inter-arrival than at 60 s."""

    def mean_gap(interarrival):
        het = fig5("can-het", interarrival).wait_times.mean()
        hom = fig5("can-hom", interarrival).wait_times.mean()
        return hom - het

    heavy_gap = mean_gap(25.0)
    light_gap = mean_gap(60.0)
    assert heavy_gap > light_gap


def test_fig6_shape_low_ratio_converges(fig6):
    """Fig. 6 at a 40 % constraint ratio: the matchmaking problem is easy
    for everyone — can-het and can-hom wait CDFs differ by < 0.15."""
    het = fig6("can-het", 0.4)
    hom = fig6("can-hom", 0.4)
    grid = (0.0, 2000.0, 10000.0)
    gap = np.abs(
        cdf_at(het.wait_times, grid) - cdf_at(hom.wait_times, grid)
    ).max()
    assert gap < 0.15


def test_fig6_shape_high_ratio_separates(fig6):
    """Fig. 6 at an 80 % constraint ratio: can-hom misdirects jobs, so
    can-het's mean wait beats can-hom's while its CDF stays within 0.10
    of central's."""
    het = fig6("can-het", 0.8)
    hom = fig6("can-hom", 0.8)
    central = fig6("central", 0.8)
    assert het.wait_times.mean() < hom.wait_times.mean()
    grid = (0.0, 1000.0, 5000.0, 10000.0)
    het_cdf = cdf_at(het.wait_times, grid)
    central_cdf = cdf_at(central.wait_times, grid)
    assert np.all(het_cdf >= central_cdf - 0.10)


def test_fig7_shape_resilience_ordering(fig7):
    """Fig. 7, steady-state broken links under high churn: compact is
    clearly the least resilient (> 1.5x vanilla, >= 1.5x adaptive) and
    adaptive ≈ vanilla (<= 2x vanilla + 5 links)."""
    results = {s: fig7(s) for s in HeartbeatScheme}
    vanilla = results[HeartbeatScheme.VANILLA].steady_state_broken_links()
    compact = results[HeartbeatScheme.COMPACT].steady_state_broken_links()
    adaptive = results[HeartbeatScheme.ADAPTIVE].steady_state_broken_links()
    # the paper's ordering: compact clearly worst, adaptive ~ vanilla
    assert compact > 1.5 * max(vanilla, 1e-9)
    assert adaptive <= compact / 1.5
    assert adaptive <= 2.0 * vanilla + 5.0


def test_fig7_shape_compact_accumulates_then_levels(fig7):
    """Fig. 7, the compact curve: broken links accumulate (last third of
    the run above the first) and then level out (last third vs middle
    third differ by less than last vs first)."""
    res = fig7(HeartbeatScheme.COMPACT)
    v = res.broken_links_values
    third = len(v) // 3
    early, late = v[:third].mean(), v[-third:].mean()
    assert late > early  # accumulation
    # leveling: the last two thirds differ much less than early-vs-late
    mid = v[third : 2 * third].mean()
    assert abs(late - mid) < (late - early) + 1e-9


def test_fig8a_shape_counts_similar_and_growing(fig8_sweep):
    """Fig. 8(a): heartbeat message *count* per node-minute grows with
    the CAN dimensionality (5 -> 14 dims) for every scheme, and compact /
    adaptive stay within 35 % of vanilla at every dimension."""
    counts = {s: fig8_sweep(s)[0] for s in HeartbeatScheme}
    for s, c in counts.items():
        assert c[-1] > c[0], f"{s}: count must grow with dimensions"
    vanilla = counts[HeartbeatScheme.VANILLA]
    for s, c in counts.items():
        assert np.all(np.abs(c - vanilla) / vanilla < 0.35), (
            f"{s}: message count diverged from vanilla"
        )


def test_fig8b_shape_vanilla_superlinear_compact_linear(fig8_sweep):
    """Fig. 8(b): heartbeat *volume* is O(d²) for vanilla and O(d) for
    compact — vanilla grows faster over the sweep, the absolute gap widens
    at every step, and at 14 dims vanilla is > 4x compact."""
    _, vanilla_vol = fig8_sweep(HeartbeatScheme.VANILLA)
    _, compact_vol = fig8_sweep(HeartbeatScheme.COMPACT)
    # vanilla grows much faster than compact across the dimension sweep
    vanilla_growth = vanilla_vol[-1] / vanilla_vol[0]
    compact_growth = compact_vol[-1] / compact_vol[0]
    assert vanilla_growth > compact_growth
    # and the absolute gap widens with dimensions
    gap = vanilla_vol - compact_vol
    assert np.all(np.diff(gap) > 0)
    # vanilla is far above compact at the paper's 11-/14-d configurations
    assert vanilla_vol[-1] > 4 * compact_vol[-1]


def test_fig8_insensitive_to_node_count(fig8):
    """Fig. 8, the N axis: per-node heartbeat volume is insensitive to the
    node count — doubling 400 -> 800 nodes moves compact's KB per
    node-minute by < 35 %."""
    # Per-node cost tracks the CAN degree, which grows like log2(n) until
    # n reaches 2^d — so strict insensitivity only appears between large
    # sizes.  Doubling from 400 to 800 must move per-node volume by well
    # under the 2x that per-system scaling would produce.
    small = fig8(HeartbeatScheme.COMPACT, nodes=400)
    large = fig8(HeartbeatScheme.COMPACT, nodes=800)
    a = small.rates.kbytes_per_node_minute
    b = large.rates.kbytes_per_node_minute
    assert abs(a - b) / max(a, b) < 0.35
