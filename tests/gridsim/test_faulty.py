"""Tests for matchmaking under churn (the faulty-grid extension)."""

import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.gridsim.faulty as faulty_module
from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    CrashBurst,
    DiurnalChurn,
    FaultPlan,
    FaultyGridConfig,
    FaultyGridSimulation,
    InvariantViolation,
    JoinBurst,
    MatchmakingConfig,
    check_matchmaking_accounting,
)
from repro.gridsim.churn import WARMUP_ROUNDS
from repro.gridsim.recovery import PendingRecovery
from repro.net import NetworkSpec
from repro.obs.events import Tracer
from repro.overlay.base import FAILURE_TIMEOUT_PERIODS
from repro.workload import TINY_LOAD


def config(scheme="can-het", mtbf=600.0, mtbj=600.0, **kwargs):
    return FaultyGridConfig(
        MatchmakingConfig(TINY_LOAD, scheme=scheme),
        mean_time_between_failures=mtbf,
        mean_time_between_joins=mtbj,
        **kwargs,
    )


@pytest.fixture(scope="module")
def finished():
    """One finished run of ``config()``, for the tests that only read it."""
    sim = FaultyGridSimulation(config())
    return sim, sim.run()


class TestFaultyGrid:
    @pytest.mark.parametrize("scheme", ["can-het", "can-hom", "central"])
    def test_smoke_all_schemes(self, scheme, finished):
        if scheme == "can-het":  # config()'s own: the shared run
            _, res = finished
        else:
            res = FaultyGridSimulation(config(scheme)).run()
        assert res.failures > 0
        assert res.base.wait_times.size > 0

    def test_lost_jobs_are_resubmitted(self, finished):
        _, res = finished
        assert res.jobs_lost > 0
        assert res.jobs_resubmitted + res.jobs_abandoned == res.jobs_lost

    def test_resubmitted_jobs_complete(self, finished):
        sim, _ = finished
        incomplete = [
            j
            for j in sim.jobs
            if j.finish_time is None and j.run_node_id is not None
        ]
        assert not incomplete  # everything placed eventually finished

    def test_population_floor_respected(self):
        cfg = config(mtbf=50.0, mtbj=5000.0)
        sim = FaultyGridSimulation(cfg)
        res = sim.run()
        assert sim.population_floor() == TINY_LOAD.nodes // 2
        assert res.final_population >= TINY_LOAD.nodes // 2

    def test_overlay_invariants_after_churny_run(self):
        sim = FaultyGridSimulation(config(mtbf=300.0, mtbj=300.0))
        sim.run()
        sim.overlay.check_invariants()

    def test_joins_extend_population(self):
        cfg = config(mtbf=5000.0, mtbj=150.0)
        res = FaultyGridSimulation(cfg).run()
        assert res.joins > 0
        assert res.final_population > TINY_LOAD.nodes

    def test_churn_counts_equal_the_trace(self):
        """The result's churn and loss counts, read off the protocol's and
        the recovery tracker's ledgers, equal what the run emitted: one
        ``grid.crash`` per failure (background and burst), one
        ``grid.join`` per arrival (background and flash crowd)."""
        events = []
        tracer = Tracer()
        tracer.subscribe(events.append)
        plan = FaultPlan(
            bursts=(CrashBurst(at=900.0, count=4),),
            joins=(JoinBurst(at=1500.0, count=5),),
        )
        res = FaultyGridSimulation(
            config(mtbf=400.0, mtbj=400.0, faults=plan), tracer=tracer
        ).run()
        crashes = [e for e in events if e.etype == "grid.crash"]
        joins = [e for e in events if e.etype == "grid.join"]
        assert any(e.etype == "fault.burst" for e in events)
        assert any(e.etype == "fault.flash_crowd" for e in events)
        assert len(crashes) >= 4 and len(joins) >= 5
        assert res.failures == len(crashes)
        assert res.joins == len(joins)
        assert res.jobs_lost == sum(e.fields["jobs_lost"] for e in crashes)
        assert res.jobs_lost > 0

    def test_summary_merges_ledger(self, finished):
        s = finished[1].summary()
        assert "jobs_lost" in s and "mean_wait" in s
        assert "detection_latency_mean" in s

    def test_deterministic(self, finished):
        a, b = finished[1], FaultyGridSimulation(config()).run()
        assert a.summary() == b.summary()
        assert np.array_equal(a.detection_latencies, b.detection_latencies)
        assert np.array_equal(
            a.resubmission_latencies, b.resubmission_latencies
        )

    @pytest.mark.parametrize("host", ["faulty", "churn"])
    def test_diurnal_plan_scales_the_background_churn_gaps(self, host):
        # the background chain starts at t=0 on the faulty grid, after the
        # warm-up rounds on the churn simulation
        start = 0.0 if host == "faulty" else 60.0 * (WARMUP_ROUNDS + 1)

        def schedule(plan):
            if host == "faulty":
                sim = FaultyGridSimulation(config(faults=plan))
            else:
                sim = ChurnSimulation(
                    ChurnConfig(
                        initial_nodes=20,
                        gpu_slots=1,
                        heartbeat_period=60.0,
                        event_gap_mean=120.0,
                        duration=2_400.0,
                        plan=plan,
                    )
                )
            events = []
            crash, join = sim.crash_node, sim.join_node

            def crashing(victim_id):
                events.append((sim.env.now, "crash", victim_id))
                crash(victim_id)

            def joining():
                events.append((sim.env.now, "join"))
                join()

            sim.crash_node, sim.join_node = crashing, joining
            sim.run()
            return events

        plain = schedule(FaultPlan())
        flat = schedule(
            FaultPlan(diurnal=DiurnalChurn(period=3600.0, amplitude=0.0))
        )
        curve = FaultPlan(diurnal=DiurnalChurn(period=3600.0, amplitude=0.7))
        curved = schedule(curve)
        # no curve, or a flat one: the gap is the draw, byte for byte
        assert flat == plain
        # the curve scales the gap, never the draw: the first gap is the
        # same draw stretched or squeezed by where in the day it starts,
        # and so is every later one
        first = start + (plain[0][0] - start) * curve.gap_multiplier(start)
        assert curved[0][0] == pytest.approx(first)
        assert curved[0][1:] == plain[0][1:]
        assert [e[0] for e in curved[1:4]] != [e[0] for e in plain[1:4]]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(mtbf=0.0)
        with pytest.raises(ValueError):
            config(invariant_check_every=-1)


class TestProtocolDetection:
    """Detection emerges from heartbeat timeouts."""

    def test_detection_latency_emerges_from_timeouts(self):
        cfg = config(mtbf=300.0, mtbj=300.0)
        sim = FaultyGridSimulation(cfg)
        res = sim.run()
        timeout = TINY_LOAD.heartbeat_period * FAILURE_TIMEOUT_PERIODS
        d = res.detection_latencies
        assert d.size > 0
        # no magic constant: latencies spread over real timeout dynamics,
        # bounded by timeout + one round (believers' evidence is at most
        # one period old when the crash happens)
        assert np.all(d > 0)
        assert np.all(d <= timeout + TINY_LOAD.heartbeat_period + 1e-6)
        assert np.unique(d).size > 1

    def test_schemes_detect_at_different_latencies_under_loss(self):
        means = {}
        for scheme in HeartbeatScheme:
            cfg = config(
                mtbf=300.0,
                mtbj=300.0,
                heartbeat_scheme=scheme,
                faults=FaultPlan(network=NetworkSpec(loss=0.2)),
            )
            res = FaultyGridSimulation(cfg).run()
            assert res.detection_latencies.size > 0
            means[scheme.value] = float(res.detection_latencies.mean())
        assert len(set(means.values())) > 1, means
        # Vanilla's full-table gossip forwards third-party freshness
        # evidence, so under loss it times a genuinely-dead neighbor out
        # *later* than compact, whose heartbeats carry no such evidence.
        assert means["vanilla"] > means["compact"]

    def test_accounting_identity_holds(self):
        res = FaultyGridSimulation(config(mtbf=200.0)).run()
        check_matchmaking_accounting(res.base)

    def test_invariant_checks_during_and_after_run(self):
        # tier-1 smoke: the checker audits every few heartbeat rounds and
        # once post-run on a short seeded faulty-grid run — the protocol
        # ledger included, on CAN over an ideal channel and on Chord under
        # 20% heartbeat loss
        preset = replace(TINY_LOAD, jobs=80)
        for substrate, faults in (
            ("can", FaultPlan()),
            ("chord", FaultPlan(network=NetworkSpec(loss=0.2))),
        ):
            cfg = FaultyGridConfig(
                MatchmakingConfig(preset, substrate=substrate),
                mean_time_between_failures=250.0,
                mean_time_between_joins=250.0,
                faults=faults,
                invariant_check_every=2,
            )
            sim = FaultyGridSimulation(cfg)
            res = sim.run()
            assert res.failures > 0 and res.joins > 0, substrate
            assert sim.protocol.events["claims"] > 0, substrate
            assert sim.protocol.net.dropped > 0 or substrate == "can"

    def test_mid_run_violation_fails_the_run(self, monkeypatch):
        """The oracle can fail a run: what the mid-run check raises inside
        the heartbeat process leaves run(), at the round it was raised on.

        A kernel that swallowed it would leave the heartbeat process dead,
        crashes undetected and ``_work_remaining()`` true forever — hence
        the worker thread and the wall-clock limit on joining it."""
        violation = InvariantViolation("seeded")
        period = TINY_LOAD.heartbeat_period
        calls = []

        def check(sim, final=False):
            calls.append(sim.env.now)
            if len(calls) == 3:
                raise violation

        monkeypatch.setattr(faulty_module, "check_faulty_invariants", check)
        sim = FaultyGridSimulation(config(invariant_check_every=1))
        raised = []

        def run():
            try:
                sim.run()
            except InvariantViolation as exc:
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        if worker.is_alive():
            sim._work_remaining = lambda: False  # let the dead run drain
            worker.join(timeout=60.0)
            pytest.fail("run() outlived a mid-run InvariantViolation")
        assert raised == [violation]
        assert calls == [period, 2 * period, 3 * period]
        assert sim.env.now == 3 * period

    def test_work_remaining_counts_jobs_awaiting_detection(self):
        # Regression: jobs lost but not yet *detected* (no attempts on
        # record) used to be invisible, letting aggregation/churn
        # processes stop early.
        sim = FaultyGridSimulation(config())
        sim.run()
        assert not sim._work_remaining()
        job = sim.jobs[0]
        sim.tracker.pending[job.job_id] = PendingRecovery(
            job, node_id=-1, lost_at=0.0, attempts=0
        )
        assert sim._work_remaining()
        del sim.tracker.pending[job.job_id]
        assert not sim._work_remaining()
