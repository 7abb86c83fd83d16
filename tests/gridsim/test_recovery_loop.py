"""The one crash-recovery loop: unit contract, cross-host contract, guards.

``RecoveryLoop`` is the only implementation of crash -> detect ->
place-with-retry; ``FaultyGridSimulation`` and ``GridService`` host it, and
a crash is detected one way, by the maintenance protocol's heartbeat
timeouts.  The unit half drives the loop against a fake host (a real
protocol over a 3-node CAN) and a scripted matchmaker on both clock
backends; the contract half runs one scripted scenario on both real hosts,
heartbeats on, and requires the same ledger, events and random draws.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro
from repro.can.heartbeat import ProtocolConfig
from repro.can.soa import build_protocol
from repro.can.space import ResourceSpace
from repro.gridsim import FaultyGridConfig, FaultyGridSimulation, MatchmakingConfig
from repro.gridsim.invariants import check_service_accounting
from repro.gridsim.recovery import RecoveryLoop, RetryPolicy
from repro.gridsim.simulation import AGGREGATION_WARMUP_ROUNDS
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
#: the fake host's heartbeat period; a crash times out 2.5 periods after
#: the victim's last heartbeat
PERIOD = 60.0


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
    """Three CPU nodes on a real 5-dim CAN maintained by a real heartbeat
    protocol (rounds tick only where a test ticks them); everything else is
    a stand-in."""

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
        self.protocol = build_protocol(self.overlay, ProtocolConfig(period=PERIOD))
        self.protocol.adopt_overlay(clock.now)
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
        self.protocol.on_failure_detected = self.recovery.detected
        return self.recovery

    def tick_rounds(self, clock):
        clock.call_every(PERIOD, lambda: self.protocol.run_round(clock.now))

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
        assert loop.crash(0) == [job]
        assert 0 not in host.grid_nodes and not host.overlay.is_alive(0)
        assert host.placed == [] and loop.tracker.undetected_crashes() == [0]
        loop.detected(0, driver.clock.now)  # what a believer's timeout calls
        assert host.placed == [(6, 1)]
        before = (list(host.kinds()), list(host.matchmaker.calls))
        loop.detected(0, driver.clock.now)
        loop.detected(0, driver.clock.now + 5.0)
        # the protocol's own timeout of the victim, rounds later, is a no-op
        host.tick_rounds(driver.clock)
        driver.advance(4 * PERIOD)
        assert host.protocol.events["claims"] == 1
        assert (host.kinds(), host.matchmaker.calls) == before
        assert host.kinds() == [
            "grid.crash", "grid.job_lost", "recovery.detected", "grid.job_resubmit",
        ]
        assert len(loop.tracker.detection_latencies) == 1
        assert loop.tracker.balances()

    def test_detection_waits_for_the_configured_delay(self, driver):
        """The delay is the protocol's failure timeout: the survivors last
        heard the victim at adoption, so the round at 3 periods (2.5 past
        it) is the first to time it out, and the loop hears of it then."""
        host = FakeHost(driver.clock)
        loop = host.loop(driver.clock)
        host.tick_rounds(driver.clock)
        job = cpu_job(job_id=2)
        host.grid_nodes[0].submit(job)
        host.matchmaker.answers = [host.grid_nodes[2]]
        loop.crash(0)
        assert loop.tracker.undetected_crashes() == [0]
        driver.advance(2 * PERIOD + 10.0)
        assert host.matchmaker.calls == [] and host.kinds()[-1] == "grid.job_lost"
        driver.advance(2 * PERIOD)
        assert host.placed == [(2, 2)]
        (latency,) = loop.tracker.detection_latencies
        assert latency >= host.protocol.config.failure_timeout
        assert host.protocol.events["claims"] == 1
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
    """Four crashes: a plain one (each lost job is re-placed when the crash
    is detected, or — when the victim was its only capable node — backs off
    into abandonment), one whose lost job misses at detection and again at
    its first retry (the ring search rescues it), one that takes the only
    node capable of the picky job, and one that leaves the aggregates stale
    for that retry."""
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
    # 2: a job lost here misses twice.  Heartbeat timeouts fire after the
    # aggregation step that follows a crash, so the detection attempt misses
    # on fresh aggregates and backs off; crash 4, 1 s later, leaves them
    # stale when the retry fires (before the next step), so the second miss
    # runs the ring search for real
    victim = busiest(exclude={fastest.node_id})
    crash(victim)
    lost = {jid for jid, rec in host.tracker.pending.items() if rec.node_id == victim}
    assert lost, "crash 2 lost no job"
    clock, real_place, missed = host.recovery.clock, host.matchmaker.place, []

    def flaky_place(job):
        if job.job_id in lost and missed in ([], [job.job_id]):
            if not missed:
                clock.schedule_callback(
                    1.0, lambda: crash(busiest(exclude={fastest.node_id}))
                )
            missed.append(job.job_id)
            return None
        return real_place(job)

    host.matchmaker.place = flaky_place  # the loop must look it up per call
    advance(200.0)
    # 3: the only capable node of the picky job dies with it
    crash(fastest.node_id)
    advance(5_000.0)
    del host.matchmaker.place
    assert len(missed) == 2
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
        FaultyGridConfig(MatchmakingConfig(replace(TINY_LOAD, jobs=1)), retry=RETRY),
        tracer=tracer,
    )
    # GridService.start()'s order: warm-up, then the aggregation step and
    # the heartbeat round on the same period, the step first
    sim.aggregation.run_rounds(AGGREGATION_WARMUP_ROUNDS)
    period = TINY_LOAD.heartbeat_period
    sim.env.call_every(period, sim.aggregation.step)
    sim.env.call_every(period, lambda: sim.protocol.run_round(sim.env.now))
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
    return sim, seen, job_ids, missed


def _run_on_service():
    seen = []
    tracer = Tracer()
    tracer.subscribe(seen.append)
    env = Environment()
    clock = env
    service = GridService(
        ServiceConfig(preset=TINY_LOAD, retry=RETRY),
        open_ledger(None),
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
    """Same scenario, same seed, heartbeats on both hosts: the simulator and
    the service must ledger the same losses and detection latencies, emit
    the same loop events at the same model times and leave the ``retry``
    stream in the same state."""
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
    assert kinds.count("grid.crash") == 4
    assert kinds.count("recovery.fallback") == 1
    assert kinds.count("grid.job_abandoned") == sim.tracker.abandonments
    assert kinds.count("grid.job_resubmit") == sim.tracker.resubmissions >= 2
    assert kinds.count("grid.job_lost") == sim.tracker.losses

    # one coordinate for the ring search + one jitter per miss (the flaky
    # miss was rescued by the ring, the picky job missed max_attempts times)
    draws = _draws(sim.recovery.rng)
    assert draws == _draws(service.recovery.rng)
    assert draws >= 1 + RETRY.max_attempts


# -- structural guards --------------------------------------------------------------
def _callee(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _modules(*packages):
    """``(path relative to src/repro, parsed tree)`` of every module under
    ``packages`` (all of ``repro`` when none is named)."""
    root = pathlib.Path(repro.__file__).parent
    for package in packages or (".",):
        for path in sorted((root / package).rglob("*.py")):
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _calls_to(tree, name, scope=()):
    """``Class.method`` (or function) enclosing each call to ``name``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_to(child, name, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and _callee(child) == name:
            yield ".".join(scope)
        yield from _calls_to(child, name, scope)


def test_a_crash_is_detected_one_way():
    """Zones change hands only where heartbeat timeouts decide a take-over,
    and no host keeps a protocol-less branch: the maintenance protocol's
    ``_claim_timed_out_zones`` is the one caller of ``claim_zones`` in the
    package, and nothing under ``gridsim/`` or ``service/`` compares a
    ``protocol`` with None."""
    claims = [
        (path, where)
        for path, tree in _modules()
        for where in _calls_to(tree, "claim_zones")
    ]
    assert claims == [
        ("overlay/base.py", "MaintenanceProtocol._claim_timed_out_zones")
    ]

    def names_protocol(node):
        return (isinstance(node, ast.Attribute) and node.attr == "protocol") or (
            isinstance(node, ast.Name) and node.id == "protocol"
        )

    for path, tree in _modules("gridsim", "service"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            is_none = [isinstance(o, ast.Constant) and o.value is None for o in operands]
            assert not (any(is_none) and any(map(names_protocol, operands))), (
                f"{path}:{node.lineno} tests a protocol against None; every "
                "host runs one, and a crash is detected only through it"
            )


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
            name = _callee(node)
            assert name not in forbidden, (
                f"{module.__name__}:{node.lineno} calls {name}(); that step "
                "belongs to gridsim.recovery.RecoveryLoop"
            )
        defined = {
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
        }
        assert not defined & {"_resubmit", "_degraded_search", "_try_place"}
