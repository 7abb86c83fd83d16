"""GridService under the DES clock: placement, retries, crashes, restarts."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.gridsim.invariants import check_service_accounting
from repro.gridsim import recovery
from repro.service.core import CancelError, GridService, ServiceConfig
from repro.service.ledger import JobStatus, open_ledger
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workload.jobs import JobDistribution, generate_jobs
from repro.workload.nodes import generate_node_specs
from repro.workload.presets import SMALL_LOAD, TINY_LOAD
from repro.workload.trace import job_to_dict

HORIZON = 500_000.0


def preset_specs(jobs=20):
    rngs = RngRegistry(TINY_LOAD.seed)
    specs = generate_node_specs(
        TINY_LOAD.nodes, TINY_LOAD.gpu_slots, rngs.stream("nodes")
    )
    stream = generate_jobs(
        jobs,
        specs,
        TINY_LOAD.gpu_slots,
        TINY_LOAD.mean_interarrival,
        rngs.stream("jobs"),
        JobDistribution().with_constraint_ratio(TINY_LOAD.constraint_ratio),
    )
    return [job_to_dict(job) for job in stream]


def build_service(ledger=None, **config_kwargs):
    env = Environment()
    clock = env
    if ledger is None:
        ledger = open_ledger(None)
    config = ServiceConfig(**{"preset": TINY_LOAD, **config_kwargs})
    service = GridService(config, ledger, clock)
    return env, service


IMPOSSIBLE = {
    "job_id": None,
    "submit_time": 0.0,
    "base_duration": 10.0,
    # no node has a 10 GHz CPU in any preset's population
    "requirements": {
        "cpu": {"cores": 1, "clock": 10_000.0, "memory": 0.0, "disk": 0.0}
    },
}


class TestHappyPath:
    def test_workload_drains_to_completed(self):
        env, service = build_service()
        service.start()
        ids = [service.submit(spec) for spec in preset_specs(25)]
        env.run(until=HORIZON)
        counts = service.ledger.counts()
        assert counts[JobStatus.COMPLETED] == 25
        assert not service.ledger.in_flight()
        check_service_accounting(service, final=True)
        # every id audit-trails exactly one completion
        for job_id in ids:
            assert service.ledger.completions(job_id) == 1

    def test_status_flow_is_ledgered(self):
        env, service = build_service()
        service.start()
        job_id = service.submit(preset_specs(1)[0])
        assert service.ledger.record(job_id).status in (
            JobStatus.MATCHED,
            JobStatus.RUNNING,
        )
        env.run(until=HORIZON)
        assert service.ledger.record(job_id).status is JobStatus.COMPLETED

    def test_health_snapshot(self):
        env, service = build_service()
        service.start()
        service.submit(preset_specs(1)[0])
        health = service.health()
        assert health["population"] == TINY_LOAD.nodes
        assert health["status"] == "ok"
        assert sum(health["jobs"].values()) == 1


class TestRetriesAndAbandonment:
    def test_impossible_job_is_abandoned_after_budget(self, monkeypatch):
        monkeypatch.setattr(recovery, "MAX_ATTEMPTS", 3)
        monkeypatch.setattr(recovery, "JITTER", 0.0)
        env, service = build_service()
        service.start()
        job_id = service.submit(dict(IMPOSSIBLE))
        assert service.ledger.record(job_id).status is JobStatus.RETRYING
        env.run(until=HORIZON)
        record = service.ledger.record(job_id)
        assert record.status is JobStatus.ABANDONED
        assert record.attempts == 3
        check_service_accounting(service, final=True)

    def test_cancel_retrying_job(self):
        env, service = build_service()
        service.start()
        job_id = service.submit(dict(IMPOSSIBLE))
        service.cancel(job_id)
        assert service.ledger.record(job_id).status is JobStatus.CANCELLED
        env.run(until=HORIZON)  # the cancelled retry timer must not fire
        assert service.ledger.record(job_id).status is JobStatus.CANCELLED
        check_service_accounting(service, final=True)

    def test_cancel_of_blocked_queue_head_starts_its_follower(self):
        # Regression: cancel() removed the job from its CE queue without
        # re-dispatching, so a follower the head had been blocking stayed
        # queued until some unrelated job on the node finished.
        one_node = replace(TINY_LOAD, nodes=1, gpu_slots=0, seed=2)
        env, service = build_service(preset=one_node)
        service.start()
        (node,) = service.grid_nodes.values()
        cores = node.ces["cpu"].spec.cores
        assert cores >= 2  # the scenario needs a partly occupied CPU

        def cpu_spec(need, duration):
            return {
                "job_id": None,
                "submit_time": 0.0,
                "base_duration": duration,
                "requirements": {"cpu": {"cores": need}},
            }

        runner = service.submit(cpu_spec(cores - 1, 10_000.0))
        head = service.submit(cpu_spec(cores, 10.0))  # blocked by runner
        follower = service.submit(cpu_spec(1, 10.0))  # fits, but behind head
        env.run(until=50.0)
        assert service.ledger.record(runner).status is JobStatus.RUNNING
        assert service.ledger.record(follower).status is JobStatus.MATCHED
        service.cancel(head)
        record = service.ledger.record(follower)
        assert record.status is JobStatus.RUNNING
        assert service._jobs[follower].start_time == 50.0
        env.run(until=HORIZON)
        assert service.ledger.record(follower).status is JobStatus.COMPLETED
        check_service_accounting(service, final=True)

    def test_cancel_running_job_refused(self):
        env, service = build_service()
        service.start()
        job_id = service.submit(preset_specs(1)[0])
        env.run(until=env.now + 1.0)
        assert service.ledger.record(job_id).status is JobStatus.RUNNING
        with pytest.raises(CancelError):
            service.cancel(job_id)

    def test_cancel_completed_job_refused(self):
        env, service = build_service()
        service.start()
        job_id = service.submit(preset_specs(1)[0])
        env.run(until=HORIZON)
        with pytest.raises(CancelError):
            service.cancel(job_id)


class TestNodeCrash:
    def test_lost_jobs_recover_through_heartbeat_detection(self):
        env, service = build_service()
        service.start()
        ids = [service.submit(spec) for spec in preset_specs(30)]
        env.run(until=env.now + 1.0)
        # crash the node carrying the most live jobs
        busiest = max(
            service.grid_nodes.values(),
            key=lambda n: n.queued_jobs() + n.running_jobs(),
        )
        lost = service.fail_node(busiest.node_id)
        assert lost, "expected in-flight jobs on the busiest node"
        for job_id in lost:
            assert service.ledger.record(job_id).status is JobStatus.FAILED
        env.run(until=HORIZON)
        # every job resolved terminally: re-placed and completed, or
        # abandoned if the crashed node was its only capable host
        counts = service.ledger.counts()
        completed = counts.get(JobStatus.COMPLETED, 0)
        abandoned = counts.get(JobStatus.ABANDONED, 0)
        assert completed + abandoned == len(ids)
        assert completed >= len(ids) - len(lost)
        assert service.tracker.balances()
        assert service.tracker.resubmissions + service.tracker.abandonments >= len(lost)
        for job_id in ids:
            assert service.ledger.completions(job_id) <= 1
        check_service_accounting(service, final=True)

    def test_total_loss_abandons_instead_of_raising(self):
        """Fail closed: crash every node.  A grid with no node left has no
        candidate, so each lost job backs off and is abandoned on budget;
        nothing raises out of ``fail_node`` or out of a clock callback (the
        heartbeat tick would not be re-armed), and the rounds keep coming."""
        env, service = build_service()
        service.start()
        ids = [service.submit(spec) for spec in preset_specs(30)]
        env.run(until=env.now + 1.0)
        for node_id in sorted(service.grid_nodes):
            service.fail_node(node_id)
        assert service.health()["population"] == 0
        assert service.health()["status"] != "ok"
        rounds = service.protocol._round
        period = TINY_LOAD.heartbeat_period
        env.run(until=env.now + 8.5 * period)
        assert service.protocol._round == rounds + 8
        env.run(until=HORIZON)
        assert not service.ledger.in_flight()
        counts = service.ledger.counts()
        assert counts[JobStatus.ABANDONED] + counts[JobStatus.COMPLETED] == len(ids)
        assert counts[JobStatus.ABANDONED] > 0
        assert service.tracker.balances() and not service.tracker.has_pending()
        check_service_accounting(service, final=True)

    def test_recovery_metrics_are_the_simulators(self):
        """The shared loop records on the service what it records on the
        faulty grid: both latency sketches and the recovery event counter."""
        from repro.obs.registry import MetricsRegistry

        env = Environment()
        clock = env
        metrics = MetricsRegistry()
        service = GridService(
            ServiceConfig(preset=TINY_LOAD),
            open_ledger(None),
            clock,
            metrics=metrics,
        )
        service.start()
        [service.submit(spec) for spec in preset_specs(10)]
        env.run(until=env.now + 1.0)
        victim = max(
            service.grid_nodes.values(),
            key=lambda n: n.queued_jobs() + n.running_jobs(),
        )
        lost = service.fail_node(victim.node_id)
        assert lost
        # the detection attempt of one lost job misses: it backs off and its
        # retry, within the horizon, resubmits it
        real_place, missed = service.matchmaker.place, []

        def flaky_place(job):
            if job.job_id in lost and not missed:
                missed.append(job.job_id)
                return None
            return real_place(job)

        service.matchmaker.place = flaky_place
        env.run(until=env.now + 5 * TINY_LOAD.heartbeat_period)
        assert len(missed) == 1
        snapshot = metrics.snapshot(now=clock.now)
        assert snapshot["recovery.events"]["counts"] == {"detections": 1}
        assert snapshot["recovery.detection_latency"]["count"] == 1
        assert snapshot["recovery.resubmission_latency"]["count"] == len(lost)


class TestStop:
    def test_running_the_clock_after_stop_writes_no_transition(self):
        """``stop`` cancels the running jobs' completions with the other
        timers: a stopped service's ledger stays as it was, whatever the
        clock does next (the asyncio clock would otherwise fire a
        completion into a closed ledger)."""
        env, service = build_service()
        service.start()
        ids = [service.submit(spec) for spec in preset_specs(5)]
        service.stop()
        counts = service.ledger.counts()
        assert counts[JobStatus.RUNNING] > 0
        audit = {job_id: service.ledger.transitions(job_id) for job_id in ids}
        env.run(until=env.now + 1e7)
        assert service.ledger.counts() == counts
        assert {job_id: service.ledger.transitions(job_id) for job_id in ids} == audit


class TestRestartRecovery:
    def test_orphans_recovered_from_persistent_ledger(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")

        env1, service1 = build_service(open_ledger(path))
        service1.start()
        ids = [service1.submit(spec) for spec in preset_specs(20)]
        env1.run(until=env1.now + 300.0)  # mid-flight: jobs queued + running
        in_flight = service1.ledger.in_flight()
        assert in_flight, "kill landed too late to be interesting"
        service1.ledger.close()  # simulate an abrupt process death

        env2, service2 = build_service(open_ledger(path))
        service2.start()  # start() runs recover()
        orphans = [
            r.job_id
            for r in (service2.ledger.record(i) for i in ids)
            if r.status is not JobStatus.COMPLETED
        ]
        assert orphans, "restart should have found in-flight jobs"
        env2.run(until=HORIZON)

        counts = service2.ledger.counts()
        assert sum(counts.values()) == len(ids)
        terminal = (
            counts.get(JobStatus.COMPLETED, 0)
            + counts.get(JobStatus.ABANDONED, 0)
            + counts.get(JobStatus.CANCELLED, 0)
        )
        assert terminal == len(ids)
        # restart recovery must never duplicate an execution
        for job_id in ids:
            assert service2.ledger.completions(job_id) <= 1
        assert service2.tracker.balances()
        check_service_accounting(service2, final=True)

    def test_recover_counts_only_in_flight(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        env1, service1 = build_service(open_ledger(path))
        service1.start()
        ids = [service1.submit(spec) for spec in preset_specs(5)]
        env1.run(until=HORIZON)  # drain completely
        assert not service1.ledger.in_flight()
        service1.ledger.close()

        env2, service2 = build_service(open_ledger(path))
        assert service2.recover() == 0  # nothing in flight, nothing re-enters
        for job_id in ids:
            assert service2.ledger.completions(job_id) == 1


class TestHeartbeatClass:
    """The service's channel is the ideal one, so its vanilla heartbeat runs
    on the array class: quiet rounds settle, and a crash is taken over from
    the same stored copy the object class would have read."""

    def test_start_event_names_the_class(self):
        from repro.obs.events import Tracer

        seen = []
        tracer = Tracer()
        tracer.subscribe(seen.append)
        env = Environment()
        clock = env
        GridService(
            ServiceConfig(preset=TINY_LOAD), open_ledger(None), clock,
            tracer=tracer,
        ).start()
        (start,) = [e for e in seen if e.etype == "service.start"]
        assert start.fields["heartbeat_class"] == "ArrayHeartbeatProtocol"
        assert start.fields["scheme"] == "can-het"

    def test_quiet_vanilla_service_settles(self):
        env, service = build_service(preset=SMALL_LOAD)
        assert len(service.grid_nodes) == 200
        service.start()
        rounds = 20
        env.run(until=(rounds + 0.5) * SMALL_LOAD.heartbeat_period)
        assert service.protocol._round == rounds
        assert service.protocol.settled_rounds >= 0.9 * rounds

    def test_takeover_reads_the_same_stored_copy_on_both_classes(self):
        from tests.can.hb_golden import pinned_engine, stored_payload

        seen = {}
        for engine in ("object", "array"):
            with pinned_engine(engine):
                env, service = build_service(preset=SMALL_LOAD)
            proto = service.protocol
            period = SMALL_LOAD.heartbeat_period
            service.start()
            env.run(until=6.5 * period)
            victim = sorted(service.grid_nodes)[17]
            service.fail_node(victim)
            claimants = sorted(service.overlay.takeover_targets(victim))
            assert claimants
            copies = {
                c: stored_payload(proto, proto.nodes[c], victim) for c in claimants
            }
            env.run(until=12.5 * period)
            assert proto.events["claims"] == 1
            tables = {
                nid: {
                    r.node_id: (r.version, node.table.last_heard(r.node_id))
                    for r in node.table.records()
                }
                for nid, node in proto.nodes.items()
            }
            seen[engine] = (copies, tables, proto.stats.totals())
        assert type(proto).__name__ == "ArrayHeartbeatProtocol"
        assert seen["array"] == seen["object"]
