"""Tests for the retry backoff, recovery tracker, and resubmission path."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridsim import (
    CrashBurst,
    FaultPlan,
    FaultyGridConfig,
    FaultyGridSimulation,
    MatchmakingConfig,
    RecoveryTracker,
    check_matchmaking_accounting,
)
from repro.gridsim import recovery
from repro.gridsim.recovery import retry_delay
from repro.model.job import CERequirement, Job
from repro.workload import TINY_LOAD


def set_backoff(monkeypatch, **constants):
    """Turn the recovery loop's backoff constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(recovery, name, value)


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self, monkeypatch):
        set_backoff(monkeypatch, BASE_DELAY=100.0, MAX_DELAY=500.0, JITTER=0.0)
        rng = np.random.default_rng(0)
        assert retry_delay(1, rng) == 100.0
        assert retry_delay(2, rng) == 200.0
        assert retry_delay(3, rng) == 400.0
        assert retry_delay(4, rng) == 500.0  # capped
        assert retry_delay(10, rng) == 500.0

    def test_jitter_bounds_and_determinism(self):
        draws_a = [retry_delay(1, np.random.default_rng(7)) for _ in range(5)]
        draws_b = [retry_delay(1, np.random.default_rng(7)) for _ in range(5)]
        assert draws_a == draws_b  # seeded -> reproducible
        for d in draws_a:
            assert 108.0 <= d <= 132.0  # 120 s +/- 10 %

    def test_exhaustion(self):
        """Unturned, a lost job gets ``MAX_ATTEMPTS`` (5) placements and
        is abandoned."""
        assert recovery.MAX_ATTEMPTS == 5
        _sim, res, attempt_times = run_with_unplaceable_retries()
        assert res.jobs_abandoned == res.jobs_lost > 0
        assert all(len(times) == 5 for times in attempt_times.values())


def _job(job_id):
    return Job(
        requirements={"ce0": CERequirement()},
        base_duration=1.0,
        job_id=job_id,
    )


class TestRecoveryTracker:
    def test_lifecycle_and_latencies(self):
        t = RecoveryTracker()
        t.node_crashed(7, now=100.0)
        t.job_lost(_job(1), 7, now=100.0)
        t.job_lost(_job(2), 7, now=100.0)
        assert [r.awaiting_detection for r in t.pending.values()] == [True, True]
        latency, released = t.node_detected(7, now=350.0)
        assert latency == 250.0
        assert [j.job_id for j in released] == [1, 2]
        assert not any(r.awaiting_detection for r in t.pending.values())
        assert t.begin_attempt(1) == 1
        t.job_resubmitted(1, now=400.0)
        assert t.resubmission_latencies == [300.0]
        assert t.begin_attempt(2) == 1
        assert t.begin_attempt(2) == 2
        t.job_abandoned(2)
        assert not t.has_pending()
        assert t.balances()
        assert t.losses == 2 and t.resubmissions == 1 and t.abandonments == 1

    def test_detection_is_idempotent(self):
        t = RecoveryTracker()
        t.node_crashed(3, now=0.0)
        lat, _ = t.node_detected(3, now=10.0)
        assert lat == 10.0
        lat2, released = t.node_detected(3, now=20.0)
        assert lat2 is None and released == []
        assert t.detection_latencies == [10.0]

    def test_unknown_node_detection_is_noop(self):
        t = RecoveryTracker()
        assert t.node_detected(99, now=5.0) == (None, [])

    def test_balance_reflects_pending(self):
        t = RecoveryTracker()
        t.node_crashed(1, 0.0)
        t.job_lost(_job(1), 1, 0.0)
        assert t.balances()  # 1 lost == 0 + 0 + 1 pending
        t.losses += 1  # simulate a leak
        assert not t.balances()


def _quiet_config():
    """A faulty-grid config with background churn effectively disabled."""
    return FaultyGridConfig(
        MatchmakingConfig(replace(TINY_LOAD, jobs=40)),
        mean_time_between_failures=1e9,
        mean_time_between_joins=1e9,
    )


def run_with_unplaceable_retries():
    """Crash the first busy node at t=400 with every later placement
    missing; returns the sim, its result and each lost job's attempt times."""
    sim = FaultyGridSimulation(_quiet_config())
    attempt_times = {}  # job_id -> times place() was asked post-crash
    real_place = sim.matchmaker.place
    state = {"broken": False}

    def place(job):
        if state["broken"]:
            if job.job_id in sim.tracker.pending:  # a recovery retry
                attempt_times.setdefault(job.job_id, []).append(
                    sim.env.now
                )
            return None  # fresh arrivals simply go unplaced
        return real_place(job)

    sim.matchmaker.place = place

    def crash_first_busy_node():
        state["broken"] = True
        for nid in sorted(sim.grid_nodes):
            if not sim.grid_nodes[nid].is_free():
                sim.crash_node(nid)
                return
        raise AssertionError("no busy node to crash")

    sim.env.schedule_callback(400.0, crash_first_busy_node)
    return sim, sim.run(), attempt_times


class TestResubmissionTransitions:
    """Seeded transition tests: backoff gaps and the abandon budget."""

    def test_backoff_gaps_then_abandon(self, monkeypatch):
        set_backoff(
            monkeypatch,
            BASE_DELAY=100.0,
            MAX_DELAY=10_000.0,
            JITTER=0.0,
            MAX_ATTEMPTS=3,
        )
        sim, res, attempt_times = run_with_unplaceable_retries()
        assert res.jobs_lost > 0
        # every lost job burned its full budget and was abandoned
        assert res.jobs_abandoned == res.jobs_lost
        assert res.jobs_resubmitted == 0
        for times in attempt_times.values():
            assert len(times) == 3  # MAX_ATTEMPTS placement tries
            gaps = np.diff(times)
            assert list(gaps) == [100.0, 200.0]  # exponential, jitter-free
        # the first attempt is the crash's detection instant, which the
        # heartbeat timeouts decide
        (latency,) = sim.tracker.detection_latencies
        assert latency > 0
        first_attempt = min(t for ts in attempt_times.values() for t in ts)
        assert first_attempt == pytest.approx(400.0 + latency)
        assert res.base.summary() is not None
        check_matchmaking_accounting(res.base)

    def test_abandoned_jobs_enter_the_result_buckets(self, monkeypatch):
        set_backoff(monkeypatch, JITTER=0.0, MAX_ATTEMPTS=2)
        sim, res, _ = run_with_unplaceable_retries()
        base = res.base
        assert base.abandoned_jobs == res.jobs_abandoned > 0
        assert (
            base.wait_times.size
            + base.unplaced_jobs
            + base.lost_jobs
            + base.abandoned_jobs
            == base.jobs_submitted
        )


class TestLedgerProperty:
    """Hypothesis: the churn ledger balances under random crash schedules."""

    @given(
        bursts=st.lists(
            st.tuples(
                st.floats(min_value=100.0, max_value=3000.0),
                st.integers(min_value=1, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_ledger_balances_under_random_crashes(self, bursts):
        plan = FaultPlan(
            bursts=tuple(
                CrashBurst(at=t, count=c, correlated=corr)
                for t, c, corr in bursts
            )
        )
        preset = replace(TINY_LOAD, nodes=24, jobs=60, mean_interarrival=40.0)
        cfg = FaultyGridConfig(
            MatchmakingConfig(preset),
            mean_time_between_failures=500.0,
            mean_time_between_joins=500.0,
            faults=plan,
            invariant_check_every=3,  # audits mid-run and post-run
        )
        res = FaultyGridSimulation(cfg).run()
        assert res.jobs_lost == res.jobs_resubmitted + res.jobs_abandoned
        check_matchmaking_accounting(res.base)
