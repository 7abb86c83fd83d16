"""Unit tests for configs, presets, and result containers."""

import numpy as np
import pytest

from repro.can.stats import RateSummary
from repro.gridsim.config import MatchmakingConfig
from repro.gridsim.results import ChurnResult, MatchmakingResult
from repro.sched.base import MatchmakingStats
from repro.workload import PAPER_LOAD, SMALL_LOAD, TINY_LOAD, WorkloadPreset


class TestWorkloadPreset:
    def test_paper_preset_matches_section_v(self):
        assert PAPER_LOAD.nodes == 1000
        assert PAPER_LOAD.jobs == 20_000
        assert PAPER_LOAD.gpu_slots == 2  # 11-dimensional CAN

    def test_with_methods_return_new_presets(self):
        p = SMALL_LOAD.with_interarrival(9.0)
        assert p.mean_interarrival == 9.0
        assert SMALL_LOAD.mean_interarrival != 9.0
        q = SMALL_LOAD.with_constraint_ratio(0.9)
        assert q.constraint_ratio == 0.9
        r = SMALL_LOAD.with_seed(123)
        assert r.seed == 123

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadPreset("x", nodes=0, jobs=1, gpu_slots=0,
                           mean_interarrival=1, constraint_ratio=0.5)
        with pytest.raises(ValueError):
            WorkloadPreset("x", nodes=1, jobs=1, gpu_slots=0,
                           mean_interarrival=0, constraint_ratio=0.5)
        with pytest.raises(ValueError):
            WorkloadPreset("x", nodes=1, jobs=1, gpu_slots=0,
                           mean_interarrival=1, constraint_ratio=1.5)


class TestMatchmakingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatchmakingConfig(TINY_LOAD, stopping_factor=-1.0)


def _mk_result(waits):
    return MatchmakingResult(
        scheme="can-het",
        preset_name="t",
        mean_interarrival=3.0,
        constraint_ratio=0.6,
        wait_times=np.asarray(waits, dtype=float),
        turnarounds=np.asarray(waits, dtype=float) + 100,
        unplaced_jobs=0,
        lost_jobs=0,
        matchmaking=MatchmakingStats(placed=len(waits)),
        sim_end_time=1000.0,
        jobs_submitted=len(waits),
    )


class TestMatchmakingResult:
    def test_summary_percentiles(self):
        s = _mk_result([0, 0, 100, 1000]).summary()
        assert s["jobs"] == 4
        assert s["zero_wait_fraction"] == pytest.approx(0.5)
        assert s["max_wait"] == 1000.0

    def test_empty_summary(self):
        assert _mk_result([]).summary() == {"jobs": 0.0}


class TestChurnResult:
    def _mk(self, values):
        return ChurnResult(
            scheme="vanilla",
            nodes=100,
            dims=11,
            broken_links_times=np.arange(len(values), dtype=float),
            broken_links_values=np.asarray(values, dtype=float),
            rates=RateSummary(1.0, 2.0, 60.0, 100.0, {}),
            events={},
            final_population=100,
        )

    def test_steady_state_tail_mean(self):
        res = self._mk([0] * 75 + [40] * 25)
        assert res.steady_state_broken_links() == pytest.approx(40.0)

    def test_final(self):
        assert self._mk([1, 2, 3]).final_broken_links == 3.0
        assert self._mk([]).final_broken_links == 0.0
        assert self._mk([]).steady_state_broken_links() == 0.0


class TestMatchmakingStats:
    def test_mean_push_hops(self):
        stats = MatchmakingStats(placed=4, total_push_hops=8)
        assert stats.mean_push_hops == 2.0
        assert MatchmakingStats().mean_push_hops == 0.0
