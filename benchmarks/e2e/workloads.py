"""The five workloads: what each builds, runs, checks and counts.

Every workload drives public entry points only (``GridSimulation``,
``ChurnSimulation``, ``python -m repro.service serve``, ``ServiceClient``,
the ``repro.workload`` generators and trace files).  The seed goes into the
generated inputs/configs and nowhere else; the size of a run is
``--seconds`` times a fixed nominal rate, so one (seed, seconds) pair is
one exact input on any machine.

Each class offers ``run(tracer)`` -- set up, do the measured work, check
the outputs -- and ``measure(setups)``, the untraced measurement built on
it.  With a :class:`~benchmarks.e2e.trace.Tracer` the run wraps the calls
into each layer; without one nothing is wrapped except the churn bootstrap,
which ``ChurnSimulation.run()`` drives itself and has to be timed apart.

The box this runs on is a shared VM whose speed changes by a third from one
stretch to the next, so no timing here is a plain wall-clock difference:

* every timed stretch has a reference unit run next to it and is reported
  in *reference seconds* (:mod:`benchmarks.e2e.reference`);
* a simulator is timed in CPU seconds of its one thread, which leave out
  what the hypervisor stole; the service runs on the wall clock across two
  processes, so there the stolen seconds are read from ``/proc/stat`` and
  subtracted (:class:`Mark`);
* the cost of a simulator run follows the seed's topology, so ``measure``
  runs it on three seeds derived from ``--seed``, a third of ``--seconds``
  each, and reports the three together (:class:`_Simulator`); the set-up
  time is the median of the three set-ups.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import http.client
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any

import repro
import repro.gridsim.simulation as simulation_module
import repro.service.core as service_core_module
from repro.can.heartbeat import HeartbeatScheme
from repro.can.overlay import CanOverlay
from repro.gridsim.churn import ChurnSimulation
from repro.gridsim.config import ChurnConfig, MatchmakingConfig
from repro.gridsim.faults import CrashBurst, FaultPlan, JoinBurst
from repro.gridsim.invariants import (
    check_matchmaking_accounting,
    check_service_accounting,
)
from repro.gridsim.simulation import GridSimulation
from repro.model.node import GridNode
from repro.net import LatencySpec, NetworkModel, NetworkSpec
from repro.obs import MetricsRegistry
from repro.service.aclock import AsyncioClock
from repro.service.client import ServiceClient, ServiceError
from repro.service.core import GridService, ServiceConfig
from repro.service.gateway import Gateway
from repro.service.ledger import JobStatus, open_ledger
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workload.jobs import JobDistribution, generate_jobs
from repro.workload.nodes import generate_node_specs
from repro.workload.presets import PAPER_LOAD, SMALL_LOAD
from repro.workload.trace import dump_jobs, load_jobs

from . import reference
from .reference import clock, reference_seconds
from .trace import Tracer, median, quantile

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: believed-state lookups issued after every churn run
ROUTE_PROBES = 500
#: a job not COMPLETED this long after the last submit counts as failed
TERMINAL_DEADLINE_S = 60.0
_CLIENT_ERRORS = (ServiceError, OSError, http.client.HTTPException)


@dataclass
class Outcome:
    """What one run of a workload measured."""

    #: reference seconds (:mod:`benchmarks.e2e.reference`)
    setup_s: float
    #: jobs, heartbeat rounds or accepted submits the measured phase did
    units: int
    #: reference seconds the measured phase took
    work_s: float
    #: median reference ms of one unit operation (simulated period; submit())
    op_p50_ms: float
    attempted: int
    failed: int
    #: wall seconds from before set-up to after the last check's work
    wall_s: float
    #: how much of ``wall_s`` the hypervisor kept from this process's CPU
    stolen_s: float = 0.0
    correct: bool = True
    #: simulators: reference seconds of each whole simulated period timed
    periods: list[float] = field(default_factory=list)
    #: simulated statistics, exact for a (seed, seconds); {} for the service
    digest: dict[str, Any] = field(default_factory=dict)
    #: per-layer values read from the program's own public counters
    layer: dict[str, float] = field(default_factory=dict)
    #: reported, not gated
    info: dict[str, float] = field(default_factory=dict)

    def digest_sha256(self) -> str:
        blob = json.dumps(self.digest, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest() if self.digest else ""


def make_config(cls, **kwargs):
    """Build a config dataclass, dropping keys it no longer has.

    Lets ``src/`` delete a field (``ChurnConfig.engine`` is the first
    candidate) without an edit under the benchmark's paths.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in kwargs.items() if k in known})


#: whole runs (simulators) or gateway start-ups (service) per untraced
#: measurement; a simulator replay is sized for ``seconds / SETUPS``
SETUPS = 3
#: CPU seconds of reference units run before and again after a set-up
SETUP_SAMPLE_S = 0.05
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts, to its last CPU.

    Every workload needs one CPU at a time (the service's client and gateway
    take turns: one request in flight).  Pinned, the reference unit runs on
    the CPU the program runs on, and the stolen-time count of that CPU is
    the process's own.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def stolen_seconds() -> float:
    """Seconds the hypervisor has so far kept from this process's CPU.

    The ``steal`` column of ``/proc/stat``: time the virtual CPU was ready
    to run and the host ran someone else.  0 where the kernel reports none.
    """
    (cpu,) = os.sched_getaffinity(0)
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                name, *fields = line.split()
                if name == f"cpu{cpu}":
                    return int(fields[7]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class Mark:
    """A point in time: the wall clock and the stolen seconds so far."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.stolen = stolen_seconds()

    def since(self, earlier: Mark) -> float:
        """Wall seconds between the two marks minus the stolen ones.

        The counter ticks in 1/100 s, so use it on stretches of a second.
        """
        return (self.wall - earlier.wall) - (self.stolen - earlier.stolen)


class PeriodTicker:
    """The host time of every simulated heartbeat period.

    A DES process that cuts the run into stretches, one per period: the
    per-operation latency of a simulator, observed through ``env.process``,
    ``env.timeout`` and ``env.peek`` alone.  Half a period out of phase with
    the program's own timers, so no event ties change.  Stops at ``until``
    or when nothing else is scheduled, so a run that ends when its queue
    drains still ends.  At every cut it samples the box's speed.
    """

    #: CPU time spent on reference units, as a share of the stretch before
    SHARE = 0.1
    #: a stretch's slowdown is read from the samples this many cuts around it
    WIDTH = 3

    def __init__(self, env, period: float, until: float):
        self.env = env
        #: per stretch: its CPU seconds, the simulated time it ended at, the
        #: reference sample taken right after it
        self.cpu_s: list[float] = []
        self.ended_at: list[float] = []
        self.unit_s: list[float] = []
        self._last = 0.0
        env.process(self._ticks(env, period, until))

    def _ticks(self, env, period: float, until: float):
        yield env.timeout(period / 2.0)
        while env.now < until and env.peek() != math.inf:
            self.cut()
            yield env.timeout(period)

    def start(self) -> None:
        self._last = clock()

    def cut(self) -> None:
        """End the current stretch, sample the box's speed, start the next."""
        elapsed = clock() - self._last
        self.cpu_s.append(elapsed)
        self.ended_at.append(self.env.now)
        self.unit_s.append(reference.sample(self.SHARE * elapsed))
        self._last = clock()

    def segments(self) -> list[float]:
        """Reference seconds of each stretch, from ``start`` to the last cut."""
        return reference_seconds(self.cpu_s, self.unit_s, self.WIDTH)

    def info(self) -> dict[str, float]:
        return {
            "run_cpu_s": sum(self.cpu_s),
            "slowdown": statistics.mean(self.unit_s) / reference.UNIT_S,
        }


class _Simulator:
    """A DES run, replayed on ``SETUPS`` seeds derived from ``--seed``.

    The cost of a run follows the seed's topology: over ten seeds the
    number of Python calls a run makes has a quartile spread of 6% (match,
    chord) to 10% (the CAN churn workloads).  Three seeds in one
    measurement bring that to 3-6%, for the time one seed replayed three
    times would take.
    """

    rss_who = resource.RUSAGE_SELF
    #: replay ``k`` runs on seed ``--seed + k * SEED_STRIDE``
    SEED_STRIDE = 1_000_003

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def run(self, tracer: Tracer | None) -> Outcome:
        """One whole run on this seed: set up, work, checks."""
        raise NotImplementedError

    def measure(self, setups: int) -> Outcome:
        runs = [
            type(self)(
                self.seed + k * self.SEED_STRIDE, self.seconds, self.workdir
            ).run(None)
            for k in range(setups)
        ]
        periods = [t for r in runs for t in r.periods]
        # wall, stolen, layer and info numbers stay those of the first
        # replay: the one the traced pass repeats
        return replace(
            runs[0],
            setup_s=statistics.median(r.setup_s for r in runs),
            units=sum(r.units for r in runs),
            work_s=sum(r.work_s for r in runs),
            op_p50_ms=1e3 * median(periods),
            attempted=sum(r.attempted for r in runs),
            failed=sum(r.failed for r in runs),
            correct=all(r.correct for r in runs),
            periods=periods,
            digest={f"replay{k}": r.digest for k, r in enumerate(runs)},
        )


def _sched_layer(stats) -> dict[str, float]:
    """Per-layer ratios from the matchmaker's own public counters."""
    return {
        "sched.push_hops_mean": stats.mean_push_hops,
        "sched.placed_fraction": stats.placed
        / max(1, stats.placed + stats.unplaced),
    }


def kernel_events_per_s(events: int = 200_000) -> float:
    """Probe: bare ``env.timeout`` events through ``Environment.run()``."""
    env = Environment()
    for i in range(events):
        env.timeout(float(i))
    start = time.perf_counter()
    env.run()
    return events / (time.perf_counter() - start)


# ----------------------------------------------------------------- match --
class MatchPaper(_Simulator):
    """Fig. 5: can-het matchmaking at the paper's population.

    The measured phase is the one in which jobs arrive: from the start of
    ``run()`` to the last period tick before the last arrival.  After it the
    run only waits for the longest job to finish, one aggregation step per
    period; at the paper's 20 000 jobs that tail is a sixth of the run, at
    the size a benchmark run affords it would be half of it, and its
    length follows the one longest job the seed drew.  It still runs (the
    accounting check needs the whole run) and is not timed.
    """

    name = "match_paper"
    JOBS_PER_SECOND = 600

    def __init__(self, seed: int, seconds: float, workdir: str):
        super().__init__(seed, seconds, workdir)
        preset = replace(
            PAPER_LOAD,
            jobs=max(200, round(self.JOBS_PER_SECOND * seconds / SETUPS)),
            seed=seed,
        )
        self.config = make_config(
            MatchmakingConfig, preset=preset, scheme="can-het"
        )

    def run(self, tracer: Tracer | None) -> Outcome:
        if tracer is not None:
            for fn in ("generate_node_specs", "generate_jobs"):
                tracer.wrap(simulation_module, fn, "workload.generate")
            tracer.wrap(CanOverlay, "add_node", "overlay.add_node")
            tracer.wrap(GridNode, "submit", "model.node_submit", spans=False)
            tracer.wrap(reference, "sample", "bench.reference")
        began = Mark()
        before = reference.sample(SETUP_SAMPLE_S)
        start = clock()
        sim = GridSimulation(self.config)
        setup_cpu_s = clock() - start
        after = reference.sample(SETUP_SAMPLE_S)
        if tracer is not None:
            tracer.wrap(sim.matchmaker, "place", "sched.place")
            tracer.wrap(sim.aggregation, "step", "agg.step")
        period = self.config.preset.heartbeat_period
        ticker = PeriodTicker(sim.env, period, math.inf)
        ticker.start()
        result = sim.run()
        ticker.cut()
        done = Mark()

        check_matchmaking_accounting(result)
        summary = result.summary()
        stats = result.matchmaking
        last_arrival = sim.jobs[-1].submit_time
        ticks = sum(at <= last_arrival for at in ticker.ended_at)
        segments = ticker.segments()[:ticks]
        periods = segments[1:]  # the first stretch is half a period
        measured_until = ticker.ended_at[ticks - 1]
        return Outcome(
            setup_s=reference.at_reference_speed(setup_cpu_s, before, after),
            units=sum(job.submit_time <= measured_until for job in sim.jobs),
            work_s=sum(segments),
            op_p50_ms=1e3 * median(periods),
            attempted=result.jobs_submitted,
            # a job no node could take is the matchmaker's answer, not a
            # failed operation: it is digested and reported per layer
            failed=result.lost_jobs + result.abandoned_jobs,
            wall_s=done.wall - began.wall,
            stolen_s=done.stolen - began.stolen,
            info={"setup_cpu_s": setup_cpu_s, **ticker.info()},
            periods=periods,
            digest={
                "submitted": result.jobs_submitted,
                "started": result.started,
                "unplaced": result.unplaced_jobs,
                "lost": result.lost_jobs,
                "abandoned": result.abandoned_jobs,
                "wait_p50": summary.get("p50_wait"),
                "wait_p95": summary.get("p95_wait"),
                "mean_push_hops": stats.mean_push_hops,
                "sim_end_time": result.sim_end_time,
            },
            layer=_sched_layer(stats),
        )


# ----------------------------------------------------------------- churn --
class _Churn(_Simulator):
    """A ``ChurnSimulation`` run: bootstrap, rounds under churn, probes.

    Churn is scripted, not drawn: one event every ``GAP`` simulated seconds
    from the end of the warm-up on, alternately a join and a silent crash.
    The seed still picks who joins where and who crashes, but not how many:
    with the background process's exponential gaps the number of crashes in
    a run this short swung 5-12 between seeds and ``work_per_s`` with it
    (24% quartile spread on ``churn_steady_1k``).
    """

    ROUNDS_PER_SECOND = 1.0
    PERIOD = 60.0
    #: the churn process's own warm-up: period * (warmup_rounds + 1)
    WARMUP = 240.0
    GAP = 60.0
    NODES = 1000
    NETWORK: NetworkSpec | None = None
    EXTRA: dict[str, Any] = {}

    def __init__(self, seed: int, seconds: float, workdir: str):
        super().__init__(seed, seconds, workdir)
        self.rounds = max(
            8, round(self.ROUNDS_PER_SECOND * seconds / SETUPS)
        )
        duration = self.PERIOD * self.rounds
        events = int((duration - self.WARMUP) // self.GAP)
        times = [self.WARMUP + self.GAP * (i + 0.5) for i in range(events)]
        self.config = make_config(
            ChurnConfig,
            initial_nodes=self.NODES,
            scheme=HeartbeatScheme.ADAPTIVE,
            heartbeat_period=self.PERIOD,
            duration=duration,
            leave_mode="fail",
            seed=seed,
            # background churn off: its first gap never elapses
            event_gap_mean=1e12,
            plan=FaultPlan(
                joins=tuple(JoinBurst(at=t) for t in times[0::2]),
                bursts=tuple(CrashBurst(at=t) for t in times[1::2]),
                network=self.NETWORK,
            ),
            **self.EXTRA,
        )

    def run(self, tracer: Tracer | None) -> Outcome:
        cfg = self.config
        net = {"calls": 0, "delivered": 0, "deferred": 0}
        if tracer is not None:

            def on_transmit(latency):
                net["calls"] += 1
                if latency is not None:
                    net["delivered"] += 1
                    net["deferred"] += latency > cfg.heartbeat_period

            # NetworkModel has __slots__: wrap the class, not the instance
            tracer.wrap(
                NetworkModel, "transmit", "net.transmit",
                spans=False, on_result=on_transmit,
            )
            tracer.wrap(reference, "sample", "bench.reference")
        began = Mark()
        before = reference.sample(SETUP_SAMPLE_S)
        start = clock()
        sim = ChurnSimulation(cfg)
        ticker = PeriodTicker(sim.env, cfg.heartbeat_period, cfg.duration)
        if tracer is not None:
            tracer.wrap(sim, "bootstrap_population", "hb.bootstrap")
            tracer.wrap(sim.overlay, "add_node", "overlay.add_node")
            tracer.wrap(sim.protocol, "join", "hb.join")
            tracer.wrap(sim.protocol, "fail", "hb.fail")
            tracer.wrap(sim.protocol, "run_round", "hb.round")
            # the substrate descriptor is frozen: swap in a timed copy
            sim.substrate = replace(
                sim.substrate,
                route_on_beliefs=tracer.timed(
                    sim.substrate.route_on_beliefs, "route.probe"
                ),
            )
        # run() drives the bootstrap itself; this one wrapper marks its end
        # so set-up and rounds can be reported apart, traced or not
        setup: list[float] = []
        bootstrap = sim.bootstrap_population

        def marked_bootstrap() -> None:
            bootstrap()
            setup.append(clock() - start)
            setup.append(reference.sample(SETUP_SAMPLE_S))
            ticker.start()

        sim.bootstrap_population = marked_bootstrap
        result = sim.run()
        ticker.cut()
        delivered = sim.routing_success_rate(ROUTE_PROBES)
        done = Mark()
        sim.check_invariants()

        setup_cpu_s, after = setup
        segments = ticker.segments()
        periods = segments[1:-1]  # the first and last stretch are halves
        msgs, volume = sim.protocol.stats.totals()
        digest = {
            "heartbeat_msgs": msgs,
            "heartbeat_bytes": volume,
            "final_population": result.final_population,
            "events": result.events,
            "final_broken_links": result.final_broken_links,
            "route_delivered": round(delivered * ROUTE_PROBES),
        }
        return Outcome(
            setup_s=reference.at_reference_speed(setup_cpu_s, before, after),
            units=self.rounds,
            work_s=sum(segments),
            op_p50_ms=1e3 * median(periods),
            # an undelivered probe is an outcome of churn (a broken link),
            # not a failed operation: it is digested and reported per layer
            attempted=self.rounds + ROUTE_PROBES,
            failed=0,
            wall_s=done.wall - began.wall,
            stolen_s=done.stolen - began.stolen,
            info={"setup_cpu_s": setup_cpu_s, **ticker.info()},
            periods=periods,
            digest=digest,
            layer={
                "hb.msgs": msgs,
                "hb.kbytes": volume / 1024.0,
                "hb.takeovers": result.events.get("claims", 0),
                "hb.broken_links_final": result.final_broken_links,
                "route.delivered_fraction": delivered,
                "net.delivered_fraction": net["delivered"] / net["calls"]
                if net["calls"]
                else 0.0,
                "net.deferred": net["deferred"],
            },
        )


class ChurnSteady1k(_Churn):
    """Fig. 8 regime: sparse churn, settled round kernels dominate."""

    name = "churn_steady_1k"
    ROUNDS_PER_SECOND = 36
    GAP = 600.0
    EXTRA = {"engine": "array"}


class ChurnStormLossy(_Churn):
    """Dense churn over a lossy, slow channel: the repair path."""

    name = "churn_storm_lossy"
    ROUNDS_PER_SECOND = 3
    GAP = 15.0  # four events inside every 60 s period
    # A CPU-only grid: 5 CAN dimensions.  At 11 dimensions a population
    # small enough for the lossy channel's cost (300 nodes) has a cost per
    # round that follows the seed's zone layout (16% quartile spread in
    # function calls over eight seeds; 9% here).
    EXTRA = {"gpu_slots": 0}
    NETWORK = NetworkSpec(
        loss=0.05,
        latency=LatencySpec("lognormal", mu=math.log(20.0), sigma=1.0),
    )


class ChordChurn1k(_Churn):
    """The Chord substrate's maintenance protocol under moderate churn."""

    name = "chord_churn_1k"
    ROUNDS_PER_SECOND = 8
    GAP = 120.0
    EXTRA = {"substrate": "chord"}


# --------------------------------------------------------------- service --
def _replay(client: ServiceClient, jobs: list) -> dict[str, Any]:
    """Closed loop, one request in flight: submit all, then poll to terminal."""
    errors = 0
    job_ids: list[int] = []
    submit_s: list[float] = []
    unit_s: list[float] = []
    status_ms: list[float] = []
    phase = Mark()
    for job in jobs:
        start = time.perf_counter()
        try:
            job_ids.append(client.submit(job))
        except _CLIENT_ERRORS:
            errors += 1
        submit_s.append(time.perf_counter() - start)
        # think time: one reference unit, no request in flight
        unit_s.append(reference.sample())
    submitted = Mark()

    pending = set(job_ids)
    requests = len(jobs)
    give_up = time.perf_counter() + TERMINAL_DEADLINE_S
    while pending and time.perf_counter() < give_up:
        for job_id in sorted(pending):
            requests += 1
            start = time.perf_counter()
            try:
                view = client.status(job_id)
            except _CLIENT_ERRORS:
                errors += 1
                continue
            status_ms.append((time.perf_counter() - start) * 1e3)
            if view.terminal:
                pending.discard(job_id)
        if pending:
            time.sleep(0.05)
    poll_s = time.perf_counter() - submitted.wall

    census = client.jobs()
    completed = sum(v.status is JobStatus.COMPLETED for v in census)
    server = client.metrics()["monitors"]["service.request_latency"]
    return {
        "accepted": len(job_ids),
        "submit_phase": (phase, submitted),
        "poll_s": poll_s,
        "submit_s": submit_s,
        "unit_s": unit_s,
        "status_ms": status_ms,
        "requests": requests,
        "failed": errors + (len(job_ids) - completed),
        "census_ok": len(census) == len(job_ids) == completed == len(jobs),
        "server_p50_ms": server["p50"] * 1e3,
    }


class ServiceReplay:
    """A recorded trace through the live gateway, over real sockets.

    Client and gateway share one CPU (the child inherits the pin): a closed
    loop with one request in flight needs one CPU at a time, and pinned
    apart every request pays a cross-CPU wake-up (4.6 ms against 1.8).
    """

    name = "service_replay"
    rss_who = resource.RUSAGE_CHILDREN
    #: two thirds of a run submit (~225 accepted/s), the rest polls
    JOBS_PER_SECOND = 150
    #: a submit's slowdown is read from the units this many submits around it
    WIDTH = 25
    SERVE = ["--preset", "small", "--scheme", "can-het", "--dilation", "3600"]

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.workdir = workdir
        self.preset = replace(
            SMALL_LOAD,
            jobs=max(100, round(self.JOBS_PER_SECOND * seconds)),
            seed=seed,
        )
        self._spawned = 0

    # -- the server as a child process (untraced) ---------------------------
    def _spawn(self):
        """Start ``python -m repro.service serve``; returns (proc, client)."""
        self._spawned += 1
        db = os.path.join(self.workdir, f"ledger{self._spawned}.db")
        paths = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(paths),
            PYTHONUNBUFFERED="1",
            REPRO_QUIET="1",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             *self.SERVE, "--db", db],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            match = re.search(r"http://[\w.]+:\d+", proc.stdout.readline())
            if match is None:
                raise RuntimeError("gateway printed no address")
            client = ServiceClient(match.group(0))
            deadline = time.perf_counter() + 60.0
            while True:
                try:
                    client.health()
                    return proc, client
                except OSError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self._stop(proc)
            raise

    @staticmethod
    def _stop(proc) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def _timed_spawn(self):
        """``_spawn`` and its reference seconds: (proc, client, setup_s)."""
        before = reference.sample(SETUP_SAMPLE_S)
        start = Mark()
        proc, client = self._spawn()
        elapsed = Mark().since(start)
        after = reference.sample(SETUP_SAMPLE_S)
        return proc, client, reference.at_reference_speed(elapsed, before, after)

    def measure(self, setups: int) -> Outcome:
        rehearsed = []
        for _ in range(setups - 1):
            proc, _, setup_s = self._timed_spawn()
            self._stop(proc)
            rehearsed.append(setup_s)
        outcome = self.run(None)
        outcome.setup_s = statistics.median([*rehearsed, outcome.setup_s])
        return outcome

    def _jobs(self) -> list:
        """The seed's job stream, recorded to a trace file and read back.

        ``record_trace`` with one change: jobs are drawn satisfiable against
        the population the gateway really hosts (``--preset small`` always
        builds the preset's own seed), not one rebuilt from ``--seed`` --
        else a few jobs per run fit no node and end ABANDONED.  On the
        default seed the two are the same trace.
        """
        preset = self.preset
        specs = generate_node_specs(
            preset.nodes,
            preset.gpu_slots,
            RngRegistry(SMALL_LOAD.seed).stream("nodes"),
        )
        jobs = generate_jobs(
            preset.jobs,
            specs,
            preset.gpu_slots,
            preset.mean_interarrival,
            RngRegistry(preset.seed).stream("jobs"),
            JobDistribution().with_constraint_ratio(preset.constraint_ratio),
        )
        path = os.path.join(self.workdir, "workload.jsonl")
        dump_jobs(jobs, path)
        return load_jobs(path)

    def run(self, tracer: Tracer | None) -> Outcome:
        if tracer is not None:
            return asyncio.run(self._run_hosted(tracer))
        began = Mark()
        jobs = self._jobs()
        proc, client, setup_s = self._timed_spawn()
        try:
            replay = _replay(client, jobs)
        finally:
            self._stop(proc)
        return self._outcome(replay, setup_s, began)

    # -- the same stack in this process (traced) ----------------------------
    async def _run_hosted(self, tracer: Tracer) -> Outcome:
        """Host ledger + service + gateway here so the wrappers reach them.

        What ``python -m repro.service replay`` does; the client runs in a
        worker thread because it blocks and must not share the loop.
        """
        began = Mark()
        tracer.wrap(service_core_module, "generate_node_specs", "workload.generate")
        tracer.wrap(CanOverlay, "add_node", "overlay.add_node")
        tracer.wrap(GridNode, "submit", "model.node_submit", spans=False)
        jobs = tracer.timed(self._jobs, "workload.generate")()
        before = reference.sample(SETUP_SAMPLE_S)
        start = Mark()
        loop = asyncio.get_running_loop()
        ledger = open_ledger(os.path.join(self.workdir, "ledger.db"))
        aclock = AsyncioClock(loop=loop, dilation=3600.0)
        ledger.clock = aclock
        metrics = MetricsRegistry()
        service = GridService(
            ServiceConfig(preset=SMALL_LOAD, scheme="can-het"),
            ledger, aclock, metrics=metrics,
        )
        gateway = Gateway(service, port=0, metrics=metrics)
        tracer.wrap(service, "submit", "core.submit")
        tracer.wrap(ledger, "submit", "ledger.submit")
        tracer.wrap(ledger, "transition", "ledger.transition")
        tracer.wrap(service.matchmaker, "place", "sched.place")
        # start() hands aggregation.step to the clock, so wrap before it
        tracer.wrap(service.aggregation, "step", "agg.step")
        tracer.wrap(service.protocol, "run_round", "hb.round")
        await gateway.start()
        setup_s = reference.at_reference_speed(
            Mark().since(start), before, reference.sample(SETUP_SAMPLE_S)
        )
        try:
            replay = await asyncio.to_thread(
                _replay, ServiceClient(gateway.url), jobs
            )
            check_service_accounting(service, final=True)
        finally:
            await gateway.stop()
            ledger.close()
        outcome = self._outcome(replay, setup_s, began)
        outcome.layer.update(_sched_layer(service.matchmaker.stats))
        return outcome

    def _outcome(
        self, replay: dict[str, Any], setup_s: float, began: Mark
    ) -> Outcome:
        done = Mark()
        raw_ms = [1e3 * t for t in replay["submit_s"]]
        # Closed loop: the submit phase lasts the sum of the latencies (the
        # think time between them is the reference unit's).  The wall clock
        # counts stolen seconds, which a unit's CPU time cannot show: they
        # are scaled out of the sum, and reach too few submits to move the
        # median.
        latency_s = reference_seconds(
            replay["submit_s"], replay["unit_s"], self.WIDTH
        )
        phase, submitted = replay["submit_phase"]
        ran = submitted.since(phase) / (submitted.wall - phase.wall)
        return Outcome(
            setup_s=setup_s,
            units=replay["accepted"],
            work_s=ran * sum(latency_s),
            op_p50_ms=1e3 * median(latency_s),
            attempted=replay["requests"] + len(raw_ms),
            failed=replay["failed"],
            wall_s=done.wall - began.wall,
            stolen_s=done.stolen - began.stolen,
            correct=replay["census_ok"],
            layer={
                "gateway.submit_p99_ms": quantile(raw_ms, 0.99),
                "gateway.status_p50_ms": median(replay["status_ms"]),
                "gateway.server_request_p50_ms": replay["server_p50_ms"],
                "gateway.transport_ms_p50": median(raw_ms)
                - replay["server_p50_ms"],
            },
            info={
                "submits_per_wall_s": replay["accepted"]
                / (submitted.wall - phase.wall),
                "submit_phase_ran_fraction": ran,
                "slowdown": statistics.mean(replay["unit_s"]) / reference.UNIT_S,
                "submit_wall_p50_ms": median(raw_ms),
                "submit_wall_p99_ms": quantile(raw_ms, 0.99),
                "submit_n": len(raw_ms),
                "status_p50_ms": median(replay["status_ms"]),
                "status_n": len(replay["status_ms"]),
                "poll_s": replay["poll_s"],
            },
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        MatchPaper, ChurnSteady1k, ChurnStormLossy, ChordChurn1k, ServiceReplay
    )
}
