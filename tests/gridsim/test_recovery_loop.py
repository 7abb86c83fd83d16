"""The one crash-recovery loop: unit contract, cross-host contract, guard.

``RecoveryLoop`` is the only implementation of crash -> detect ->
place-with-retry; ``FaultyGridSimulation`` and ``GridService`` host it.
The unit half drives it against a fake host and a scripted matchmaker on
both clock backends; the contract half runs one scripted scenario on both
real hosts and requires the same ledger, events and random draws.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.can.space import ResourceSpace
from repro.gridsim import FaultyGridConfig, FaultyGridSimulation, MatchmakingConfig
from repro.gridsim.invariants import check_service_accounting
from repro.gridsim.recovery import RecoveryLoop, RetryPolicy
from repro.obs.events import Tracer
from repro.obs.registry import MetricsRegistry
from repro.service.core import GridService, ServiceConfig
from repro.service.ledger import JobStatus, open_ledger
from repro.sim.clock import Clock
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workload.presets import TINY_LOAD
from repro.workload.trace import job_from_dict

from ..conftest import build_overlay, cpu_job, make_cpu, make_grid_node
from ..service.test_core import preset_specs
from ..sim.test_clock import AsyncioDriver, SimDriver

#: the events the loop itself emits, on either host
LOOP_EVENTS = {
    "grid.crash",
    "grid.job_lost",
    "grid.job_resubmit",
    "grid.job_abandoned",
    "recovery.detected",
    "recovery.fallback",
}
SEED = 11


class RecordingClock(Clock):
    """The driver's clock, remembering every delay it was asked for."""

    def __init__(self, inner: Clock):
        self.inner = inner
        self.delays = []

    @property
    def now(self) -> float:
        return self.inner.now

    def schedule_callback(self, delay, fn):
        self.delays.append(delay)
        return self.inner.schedule_callback(delay, fn)


class ScriptedMatchmaker:
    """``place`` answers from a script; an exhausted script keeps missing."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.calls = []

    def place(self, job):
        self.calls.append(job.job_id)
        return self.answers.pop(0) if self.answers else None


class FakeHost:
    """Three CPU nodes on a real 5-dim CAN; everything else is a stand-in."""

    def __init__(self, clock, scheme="can-het", stale=False, nodes=3):
        self.rngs = RngRegistry(SEED)
        self.space = ResourceSpace(gpu_slots=0)
        self.grid_nodes = {
            i: make_grid_node(clock, i, cpu=make_cpu(clock=1.0 + i))
            for i in range(nodes)
        }
        self.overlay = build_overlay(
            [
                self.space.node_coordinate(node.spec, 0.1 + 0.3 * i)
                for i, node in self.grid_nodes.items()
            ]
        )
        self.protocol = None
        self.config = SimpleNamespace(scheme=scheme)
        self.stale = stale
        self.aggregation = SimpleNamespace(is_stale=lambda: self.stale)
        self.matchmaker = ScriptedMatchmaker()
        self.events = []
        self.tracer = Tracer()
        self.tracer.subscribe(self.events.append)
        self.placed, self.abandoned, self.retrying = [], [], []
        self.metrics = MetricsRegistry()

    def loop(self, clock, **policy) -> RecoveryLoop:
        policy.setdefault("base_delay", 40.0)
        policy.setdefault("jitter", 0.0)
        self.recovery = RecoveryLoop(
            self,
            RetryPolicy(**policy),
            clock,
            placed=lambda job, node: self.placed.append((job.job_id, node.node_id)),
            abandoned=lambda job, attempts: self.abandoned.append(
                (job.job_id, attempts)
            ),
            retrying=lambda job, attempt: self.retrying.append(
                (job.job_id, attempt)
            ),
            metrics=self.metrics,
        )
        return self.recovery

    def kinds(self):
        return [e.etype for e in self.events]


@pytest.fixture(params=[SimDriver, AsyncioDriver], ids=["sim", "asyncio"])
def driver(request):
    d = request.param()
    yield d
    d.close()


class TestLoopContract:
    """One loop, two clocks: the seam's contract test, applied to recovery."""

    def test_miss_then_backoff_then_place(self, driver):
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock)
        target = host.grid_nodes[1]
        host.matchmaker.answers = [None, target]
        job = cpu_job(job_id=5)
        loop.attempt(job)
        assert host.placed == [] and list(loop.timers) == [5]
        assert host.retrying == [(5, 1)]  # a never-placed job: after the miss
        assert loop.tracker.balances()
        driver.advance(20.0)
        assert host.matchmaker.calls == [5]
        driver.advance(60.0)
        assert host.matchmaker.calls == [5, 5]
        assert host.placed == [(5, 1)]
        assert loop.timers == {} and loop._unplaced == {}
        assert host.kinds() == []  # no crash: nothing of the loop's to report
        assert loop.tracker.balances() and loop.tracker.losses == 0

    @pytest.mark.parametrize("lost", [False, True], ids=["unplaced", "crash-lost"])
    def test_budget_exhaustion_abandons_after_max_attempts(self, driver, lost):
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock, max_attempts=3, base_delay=20.0)
        job = cpu_job(job_id=8)
        if lost:
            now = driver.clock.now
            loop.lose(2, [job], now)
            loop.detected(2, now)
        else:
            loop.attempt(job)
        assert loop.tracker.balances()
        driver.advance(20.0 + 40.0 + 80.0 + 40.0)
        # the budget is checked before an attempt: exactly max_attempts
        # placements were tried, and that is the number reported
        assert host.matchmaker.calls == [8, 8, 8]
        assert host.abandoned == [(8, 3)]
        assert host.placed == [] and loop.timers == {} and loop._unplaced == {}
        assert loop.tracker.balances() and not loop.tracker.has_pending()
        assert loop.tracker.abandonments == (1 if lost else 0)
        abandoned = [e for e in host.events if e.etype == "grid.job_abandoned"]
        assert [e.fields for e in abandoned] == [{"job": 8, "attempts": 3}]

    @pytest.mark.parametrize(
        "scheme,stale,falls_back",
        [
            ("can-het", True, True),
            ("can-het", False, False),
            ("can-hom", True, True),
            ("central", True, False),
        ],
    )
    def test_ring_fallback_needs_stale_aggregates_and_a_can(
        self, driver, scheme, stale, falls_back
    ):
        host = FakeHost(driver.clock, scheme=scheme, stale=stale)
        loop = host.loop(driver.clock)
        job = cpu_job(job_id=3, clock=2.5)  # only node 2 (3.0 GHz) can run it
        now = driver.clock.now
        loop.lose(0, [job], now)
        loop.detected(0, now)
        counts = host.metrics.snapshot()["recovery.events"]["counts"]
        if falls_back:
            assert host.placed == [(3, 2)]
            assert counts == {"detections": 1, "ring_fallbacks": 1}
            assert host.kinds() == [
                "grid.job_lost", "recovery.detected", "recovery.fallback",
                "grid.job_resubmit",
            ]
            assert loop.tracker.resubmissions == 1
        else:
            assert host.placed == [] and list(loop.timers) == [3]
            assert counts == {"detections": 1}
            assert "recovery.fallback" not in host.kinds()
        assert host.retrying == [(3, 1)]  # a crash retry: before its placement
        assert loop.tracker.balances()

    def test_coordinate_is_drawn_before_the_jitter(self, driver):
        """One degraded search that finds nobody, then one miss: the retry
        stream gives its first value to the coordinate, its second to the
        backoff's jitter."""
        clock = RecordingClock(driver.clock)
        host = FakeHost(clock, stale=True)
        loop = host.loop(clock, jitter=0.5)
        job = cpu_job(job_id=4, clock=99.0)  # nobody is capable: the ring is empty
        now = clock.now
        loop.lose(1, [job], now)
        loop.detected(1, now)
        reference = RngRegistry(SEED).stream("retry")
        reference.random()  # the coordinate
        assert clock.delays == [loop.policy.delay(1, reference)]
        assert (
            loop.rng.bit_generator.state == reference.bit_generator.state
        )

    def test_detection_is_idempotent(self, driver):
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock)
        victim = host.grid_nodes[0]
        job = cpu_job(job_id=6)
        victim.submit(job)
        host.matchmaker.answers = [host.grid_nodes[1]]
        assert loop.crash(0) == [job]  # no protocol, no delay: detected inline
        assert 0 not in host.grid_nodes and not host.overlay.is_alive(0)
        assert host.placed == [(6, 1)]
        before = (list(host.kinds()), list(host.matchmaker.calls))
        loop.detected(0, driver.clock.now)
        loop.detected(0, driver.clock.now + 5.0)
        assert (host.kinds(), host.matchmaker.calls) == before
        assert host.kinds() == [
            "grid.crash", "grid.job_lost", "recovery.detected", "grid.job_resubmit",
        ]
        assert loop.tracker.detection_latencies == [0.0]
        assert loop.tracker.balances()

    def test_detection_waits_for_the_configured_delay(self, driver):
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock)
        loop.detection_delay = 50.0
        job = cpu_job(job_id=2)
        host.grid_nodes[0].submit(job)
        host.matchmaker.answers = [host.grid_nodes[2]]
        loop.crash(0)
        assert loop.tracker.undetected_crashes() == [0]
        driver.advance(20.0)
        assert host.matchmaker.calls == []
        driver.advance(60.0)
        assert host.placed == [(2, 2)]
        assert loop.tracker.detection_latencies[0] >= 50.0
        assert loop.tracker.balances()

    @pytest.mark.parametrize("lost", [False, True], ids=["unplaced", "crash-lost"])
    def test_forget_cancels_the_backoff_timer(self, driver, lost):
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock)
        job = cpu_job(job_id=9)
        if lost:
            now = driver.clock.now
            loop.lose(1, [job], now)
            loop.detected(1, now)
        else:
            loop.attempt(job)
        handle = loop.timers[9]
        loop.forget(9)
        assert handle.cancelled and loop.timers == {} and loop._unplaced == {}
        assert loop.tracker.balances() and not loop.tracker.has_pending()
        assert loop.tracker.abandonments == (1 if lost else 0)
        driver.advance(100.0)
        assert host.matchmaker.calls == [9]  # the one miss; the timer never fired

    def test_empty_population_is_no_candidate(self, driver):
        """Fail closed: with no node left there is nothing to ask — the job
        backs off and is abandoned on budget like any unplaceable one."""
        host = FakeHost(driver.clock, stale=True, nodes=1)
        loop = host.loop(driver.clock, max_attempts=2, base_delay=20.0)
        job = cpu_job(job_id=1)
        host.grid_nodes[0].submit(job)
        loop.crash(0)
        assert host.grid_nodes == {} and list(loop.timers) == [1]
        driver.advance(20.0 + 40.0 + 30.0)
        assert host.matchmaker.calls == []  # place() was never asked
        assert host.abandoned == [(1, 2)]
        assert "recovery.fallback" not in host.kinds()
        assert loop.tracker.balances() and not loop.tracker.has_pending()


# -- one scenario, both hosts -----------------------------------------------------
def _scenario(host, submit, crash, advance, job_ids):
    """Three crashes: a plain one (each lost job is re-placed at once, or —
    when the victim was its only capable node — backs off into abandonment),
    one whose first retry misses on stale aggregates (the ring search rescues
    it), one that takes the only node capable of the picky job."""
    specs = preset_specs(14)
    # a job only the fastest CPU of the population can run
    fastest = max(host.grid_nodes.values(), key=lambda n: n.ces["cpu"].spec.clock)
    picky = {
        "job_id": None,
        "submit_time": 0.0,
        "base_duration": 50_000.0,
        "requirements": {
            "cpu": {"cores": 1, "clock": fastest.ces["cpu"].spec.clock}
        },
    }
    for spec in [*specs, picky]:
        job_ids.append(submit(spec))
    picky_id = job_ids[-1]
    advance(1.0)

    def busiest(exclude=()):
        return max(
            (n for n in host.grid_nodes.values() if n.node_id not in exclude),
            key=lambda n: (n.queued_jobs() + n.running_jobs(), -n.node_id),
        ).node_id

    # 1: a plain crash
    crash(busiest(exclude={fastest.node_id}))
    advance(200.0)
    # 2: the first placement after this crash misses while the aggregates
    # are stale, so the ring search runs for real
    real_place = host.matchmaker.place
    missed = []

    def flaky_place(job):
        if not missed:
            missed.append(job.job_id)
            return None
        return real_place(job)

    host.matchmaker.place = flaky_place  # the loop must look it up per call
    crash(busiest(exclude={fastest.node_id}))
    del host.matchmaker.place
    assert missed, "crash 2 lost no job"
    advance(200.0)
    # 3: the only capable node of the picky job dies with it
    crash(fastest.node_id)
    advance(5_000.0)
    return picky_id, missed[0]


def _loop_events(seen, job_ids):
    """The loop's events with job ids replaced by submission order."""
    order = {job_id: i for i, job_id in enumerate(job_ids)}
    out = []
    for e in seen:
        if e.etype in LOOP_EVENTS:
            fields = dict(e.fields)
            if "job" in fields:
                fields["job"] = order[fields["job"]]
            out.append((round(e.t, 6), e.etype, sorted(fields.items())))
    return out


def _draws(rng, limit=200):
    """How many values the ``retry`` stream has handed out."""
    reference = RngRegistry(TINY_LOAD.seed).stream("retry")
    for n in range(limit):
        if reference.bit_generator.state == rng.bit_generator.state:
            return n
        reference.random()
    raise AssertionError("retry stream is not a prefix of its seed's stream")


RETRY = RetryPolicy(max_attempts=3, base_delay=100.0)


def _run_on_sim():
    seen = []
    tracer = Tracer()
    tracer.subscribe(seen.append)
    sim = FaultyGridSimulation(
        FaultyGridConfig(
            MatchmakingConfig(replace(TINY_LOAD, jobs=1)),
            detection_mode="fixed",
            detection_delay=1.0,
            retry=RETRY,
        ),
        tracer=tracer,
    )
    sim.recovery.detection_delay = 0.0  # the config refuses 0; the loop does not
    sim.aggregation.run_rounds(sim.config.aggregation_warmup_rounds)
    sim.env.call_every(
        TINY_LOAD.heartbeat_period, sim.aggregation.step
    )
    job_ids = []

    def submit(spec):
        job = job_from_dict(spec, job_id=1000 + len(job_ids))
        sim._hand_over(sim.matchmaker.place(job), job)
        return job.job_id

    picky, missed = _scenario(
        sim,
        submit,
        sim.crash_node,
        lambda dt: sim.env.run(until=sim.env.now + dt),
        job_ids,
    )
    assert picky in sim.abandoned_ids
    assert (sim.jobs_lost, sim.jobs_resubmitted, sim.jobs_abandoned) == (
        sim.tracker.losses, sim.tracker.resubmissions, sim.tracker.abandonments,
    )
    return sim, seen, job_ids, missed


def _run_on_service():
    seen = []
    tracer = Tracer()
    tracer.subscribe(seen.append)
    env = Environment()
    clock = env
    service = GridService(
        ServiceConfig(preset=TINY_LOAD, heartbeat=False, retry=RETRY),
        open_ledger(None, clock=clock),
        clock,
        tracer=tracer,
    )
    service.start()
    job_ids = []
    picky, missed = _scenario(
        service,
        service.submit,
        service.fail_node,
        lambda dt: env.run(until=env.now + dt),
        job_ids,
    )
    assert service.ledger.record(picky).status is JobStatus.ABANDONED
    assert service.ledger.record(picky).attempts == RETRY.max_attempts
    check_service_accounting(service)
    return service, seen, job_ids, missed


def test_both_hosts_run_the_same_recovery():
    """Same scenario, same seed: the simulator and the service must ledger
    the same losses, emit the same loop events at the same model times and
    leave the ``retry`` stream in the same state."""
    sim, sim_seen, sim_ids, sim_missed = _run_on_sim()
    service, svc_seen, svc_ids, svc_missed = _run_on_service()
    assert sim_ids.index(sim_missed) == svc_ids.index(svc_missed)

    def counters(tracker):
        return (
            tracker.losses, tracker.resubmissions, tracker.abandonments,
            len(tracker.pending), tracker.detection_latencies,
            tracker.resubmission_latencies,
        )

    assert counters(sim.tracker) == counters(service.tracker)
    # the picky job at least; a preset job whose only capable node crashed too
    assert sim.tracker.losses >= 3 and sim.tracker.abandonments >= 1
    assert sim.tracker.balances() and not sim.tracker.has_pending()

    sim_events = _loop_events(sim_seen, sim_ids)
    assert sim_events == _loop_events(svc_seen, svc_ids)
    kinds = [etype for _t, etype, _f in sim_events]
    assert kinds.count("grid.crash") == 3
    assert kinds.count("recovery.fallback") == 1
    assert kinds.count("grid.job_abandoned") == sim.tracker.abandonments
    assert kinds.count("grid.job_resubmit") == sim.tracker.resubmissions >= 2
    assert kinds.count("grid.job_lost") == sim.tracker.losses

    # one coordinate for the ring search + one jitter per miss (the flaky
    # miss was rescued by the ring, the picky job missed max_attempts times)
    draws = _draws(sim.recovery.rng)
    assert draws == _draws(service.recovery.rng)
    assert draws >= 1 + RETRY.max_attempts


# -- structural guard ---------------------------------------------------------------
def test_hosts_contain_no_copy_of_the_loop():
    """In the style of ``test_protocol_modules_stay_asyncio_free``: the two
    hosts may call the shared object, never the steps it is made of."""
    import repro.gridsim.faulty
    import repro.service.core

    forbidden = {
        "ring_search", "begin_attempt", "exhausted", "delay",
        "job_lost", "job_resubmitted",
    }
    for module in (repro.gridsim.faulty, repro.service.core):
        tree = ast.parse(open(module.__file__).read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            assert name not in forbidden, (
                f"{module.__name__}:{node.lineno} calls {name}(); that step "
                "belongs to gridsim.recovery.RecoveryLoop"
            )
        defined = {
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
        }
        assert not defined & {"_resubmit", "_degraded_search", "_try_place"}
