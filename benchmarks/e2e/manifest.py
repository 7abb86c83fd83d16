"""Names, units and bounds of the benchmark: the source of ``BENCHMARK.json``.

Every later issue names the metric it claims to move by one of these
names, so they change only in a PR that changes nothing else.
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: nominal seconds one run spends measuring (a simulator: three replays of
#: a third each); every workload's size is a fixed multiple of
#: ``--seconds``, never of the machine's speed, so a seed and a
#: ``--seconds`` value name one exact input
RUN_SECONDS = 10
DEFAULT_SEED = 20110926

#: (name, why) -- one line each, at most 200 characters
WORKLOADS = [
    (
        "match_paper",
        "Fig. 5 shape: 1000 nodes, 11-dim CAN, can-het, 3 s arrivals. "
        "sched, can.aggregation, model and the sim kernel only; a heartbeat "
        "or gateway change must not move it.",
    ),
    (
        "churn_steady_1k",
        "Fig. 8 regime: 1000-node 11-dim CAN, adaptive heartbeat, array "
        "engine, one join or crash per 600 s. Settled round kernels dominate; "
        "repair paths are under 1% of calls.",
    ),
    (
        "churn_storm_lossy",
        "1000-node 5-dim CAN, a join or crash every 15 s, 5% loss, lognormal "
        "latency tail past the period. Join/fail/take-over and transmit() "
        "every round: the repair path steady_1k skips.",
    ),
    (
        "chord_churn_1k",
        "1000-node Chord ring, adaptive, a join or crash per 120 s, ideal "
        "channel. "
        "The only row that shows whether chord/protocol.py got slower; "
        "CAN-only changes must not move it.",
    ),
    (
        "service_replay",
        "Child-process gateway (200 nodes, heartbeat on, sqlite WAL) fed a "
        "recorded trace by 1 closed-loop client, one connection per "
        "request. The only row crossing sockets, asyncio and the ledger.",
    ),
]

#: (name, unit, better, bound).  ``work_per_s`` is jobs/s on match_paper,
#: heartbeat rounds/s on the churn workloads, accepted submits/s on
#: service_replay; ``op_p50_ms`` is the median time of one simulated
#: heartbeat period on the simulators and of one client-side ``submit()``
#: on service_replay.  The three timings are in reference seconds
#: (``reference.py``).  ISSUE 11 asked for bounds of 10-15%: ten runs on ten
#: seeds spread by 5-13% on this shared 2-core box (results/spread.json),
#: the seeds' own share of that is 3-6%, and a bound is at least twice the
#: widest spread, so the timings carry the contract's maximum.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
]

#: (name, unit, better) -- measured by the traced pass only.  A metric of
#: a layer the workload never enters reads 0.
PER_LAYER = [
    ("workload.generate_s", "s", "lower"),
    ("overlay.build_s", "s", "lower"),
    ("hb.bootstrap_s", "s", "lower"),
    ("hb.bootstrap_join_us_p50", "us", "lower"),
    ("sim.kernel_events_per_s", "1/s", "higher"),
    ("sim.residual_s", "s", "lower"),
    ("attributed_fraction", "ratio", "higher"),
    ("sched.place_s", "s", "lower"),
    ("sched.place_calls", "count", "lower"),
    ("sched.place_us_p50", "us", "lower"),
    ("sched.place_us_p99", "us", "lower"),
    ("sched.push_hops_mean", "count", "lower"),
    ("sched.placed_fraction", "ratio", "higher"),
    ("agg.step_s", "s", "lower"),
    ("agg.steps", "count", "lower"),
    ("agg.step_ms_p50", "ms", "lower"),
    ("model.node_submit_s", "s", "lower"),
    ("model.node_submit_calls", "count", "lower"),
    ("hb.round_s", "s", "lower"),
    ("hb.rounds", "count", "lower"),
    ("hb.round_ms_p50", "ms", "lower"),
    ("hb.round_ms_max", "ms", "lower"),
    ("hb.msgs", "count", "lower"),
    ("hb.kbytes", "KB", "lower"),
    ("hb.msgs_per_host_s", "1/s", "higher"),
    ("hb.join_s", "s", "lower"),
    ("hb.join_calls", "count", "lower"),
    ("hb.fail_s", "s", "lower"),
    ("hb.fail_calls", "count", "lower"),
    ("hb.takeovers", "count", "lower"),
    ("hb.broken_links_final", "count", "lower"),
    ("net.transmit_calls", "count", "lower"),
    ("net.transmit_s", "s", "lower"),
    ("net.delivered_fraction", "ratio", "higher"),
    ("net.deferred", "count", "lower"),
    ("route.probe_us_p50", "us", "lower"),
    ("route.delivered_fraction", "ratio", "higher"),
    ("gateway.submit_p99_ms", "ms", "lower"),
    ("gateway.status_p50_ms", "ms", "lower"),
    ("gateway.server_request_p50_ms", "ms", "lower"),
    ("gateway.transport_ms_p50", "ms", "lower"),
    ("core.submit_us_p50", "us", "lower"),
    ("ledger.submit_us_p50", "us", "lower"),
    ("ledger.transition_us_p50", "us", "lower"),
    ("ledger.writes", "count", "lower"),
    ("aclock.tick_s", "s", "lower"),
    ("bench.reference_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
]


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
