"""Substrate head-to-head — CAN vs Chord on identical experiment shapes.

Every simulation in the repo is substrate-parametric (see
``repro.overlay``); this harness runs the paper's evaluation shapes once
per registered substrate and reports the rivalry side by side:

* **churn leg** (fig7 shape, high churn, all three heartbeat schemes):
  steady-state broken links, maintenance messages and KB per node-minute,
  failure-detection latency (mean/p95 over every detected crash),
  ground-truth routing hop counts, and the believed-state delivery rate;
* **cost leg** (fig8 shape, sparse churn, adaptive scheme): the steady
  maintenance message/volume cost;
* **matchmaking leg** (fig5 shape, can-het): wait-time quality and push
  hop counts, showing matchmakers run unchanged over either substrate.

Writes ``results/substrates_head_to_head.csv`` in long format
(``leg,substrate,scheme,metric,value``) and prints one table per leg.
``--substrate`` restricts the run to a single substrate; by default every
registered substrate competes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import format_table, write_csv
from ..can.heartbeat import HeartbeatScheme
from ..gridsim import ChurnSimulation, GridSimulation, MatchmakingConfig
from ..obs import RunRecorder
from ..overlay import SubstrateError, available_substrates, get_substrate
from ..workload import SMALL_LOAD, TINY_LOAD
from .common import experiment_argparser, recorder_for, results_path, simulate
from .fig7 import fig7_config
from .fig8 import fig8_config

__all__ = ["run", "main", "ROUTE_PROBES"]

#: ground-truth route samples per churn run (hop-count estimate)
ROUTE_PROBES = 200

Row = Dict[str, float]


def _probe_routes(sim: ChurnSimulation, samples: int, seed: int) -> Row:
    """Ground-truth hop counts + believed-state delivery over the final
    overlay (dead-but-unclaimed owners are skipped, as undeliverable)."""
    route = sim.substrate.route
    rng = np.random.default_rng(seed)
    alive = sorted(sim.overlay.alive_ids())
    hops: List[int] = []
    for _ in range(samples):
        start = int(alive[int(rng.integers(len(alive)))])
        point = sim.space.clamp_point(rng.random(sim.space.dims))
        try:
            hops.append(len(route(sim.overlay, start, point)) - 1)
        except SubstrateError:
            continue  # owner is a ghost: no ground-truth path exists
    return {
        "route_hops_mean": float(np.mean(hops)) if hops else float("nan"),
        "route_hops_p95": (
            float(np.percentile(hops, 95)) if hops else float("nan")
        ),
        "belief_delivery_rate": sim.routing_success_rate(samples),
    }


def _churn_leg(
    substrate: str,
    scheme: HeartbeatScheme,
    fast: bool,
    seed: int | None,
    recorder: RunRecorder | None,
) -> Row:
    cfg = fig7_config(scheme, fast=fast, seed=seed, substrate=substrate)
    sim, result = simulate(
        recorder, f"churn:{substrate}:{scheme.value}", ChurnSimulation, cfg,
        substrate=substrate, scheme=scheme.value,
    )
    latencies = result.detection_latencies
    row: Row = {
        "steady_broken_links": result.steady_state_broken_links(),
        "msgs_per_node_min": result.rates.messages_per_node_minute,
        "kbytes_per_node_min": result.rates.kbytes_per_node_minute,
        "failures": float(result.events["failures"]),
        "detect_latency_mean_s": (
            float(np.mean(latencies)) if latencies.size else float("nan")
        ),
        "detect_latency_p95_s": (
            float(np.percentile(latencies, 95))
            if latencies.size
            else float("nan")
        ),
    }
    row.update(_probe_routes(sim, ROUTE_PROBES, seed=cfg.seed + 1))
    return row


def _cost_leg(
    substrate: str,
    fast: bool,
    seed: int | None,
    recorder: RunRecorder | None,
) -> Row:
    cfg = fig8_config(
        HeartbeatScheme.ADAPTIVE,
        nodes=120 if fast else 500,
        gpu_slots=2,
        fast=fast,
        seed=seed,
        substrate=substrate,
    )
    _, result = simulate(
        recorder, f"cost:{substrate}:adaptive", ChurnSimulation, cfg,
        substrate=substrate,
    )
    return {
        "msgs_per_node_min": result.rates.messages_per_node_minute,
        "kbytes_per_node_min": result.rates.kbytes_per_node_minute,
        "final_population": float(result.final_population),
    }


def _matchmaking_leg(
    substrate: str,
    fast: bool,
    recorder: RunRecorder | None,
) -> Row:
    preset = TINY_LOAD if fast else SMALL_LOAD
    cfg = MatchmakingConfig(preset, scheme="can-het", substrate=substrate)
    _, result = simulate(
        recorder, f"matchmaking:{substrate}:can-het", GridSimulation, cfg,
        substrate=substrate,
    )
    summary = result.summary()
    return {
        "jobs": summary["jobs"],
        "mean_wait_s": summary["mean_wait"],
        "p95_wait_s": summary["p95_wait"],
        "zero_wait_fraction": summary["zero_wait_fraction"],
        "mean_push_hops": summary["mean_push_hops"],
        "unplaced_jobs": float(result.unplaced_jobs),
    }


def run(
    fast: bool = False,
    seed: int | None = None,
    recorder: RunRecorder | None = None,
    substrates: Sequence[str] | None = None,
) -> Dict[str, Dict[Tuple[str, str], Row]]:
    """Results per leg, keyed by (substrate, scheme)."""
    names = list(substrates) if substrates else available_substrates()
    for name in names:
        get_substrate(name)  # fail fast on unknown names
    out: Dict[str, Dict[Tuple[str, str], Row]] = {
        "churn": {},
        "cost": {},
        "matchmaking": {},
    }
    for substrate in names:
        for scheme in HeartbeatScheme:
            out["churn"][(substrate, scheme.value)] = _churn_leg(
                substrate, scheme, fast, seed, recorder
            )
        out["cost"][(substrate, "adaptive")] = _cost_leg(
            substrate, fast, seed, recorder
        )
        out["matchmaking"][(substrate, "can-het")] = _matchmaking_leg(
            substrate, fast, recorder
        )
    return out


def report(results: Dict[str, Dict[Tuple[str, str], Row]], out_dir: str) -> str:
    csv_rows: List[Tuple[object, ...]] = []
    tables: List[str] = []
    titles = {
        "churn": "Churn leg (fig7 shape): resilience, cost, detection, routing",
        "cost": "Cost leg (fig8 shape): steady maintenance cost",
        "matchmaking": "Matchmaking leg (fig5 shape): can-het quality",
    }
    for leg, rows in results.items():
        if not rows:
            continue
        metrics = list(next(iter(rows.values())))
        header = ["substrate", "scheme", *metrics]
        body = []
        for (substrate, scheme), row in sorted(rows.items()):
            body.append(
                [substrate, scheme]
                + [f"{row[m]:.2f}" for m in metrics]
            )
            for metric in metrics:
                csv_rows.append(
                    (leg, substrate, scheme, metric, round(row[metric], 4))
                )
        tables.append(format_table(header, body, title=titles[leg]))
    write_csv(
        results_path(out_dir, "substrates_head_to_head.csv"),
        ["leg", "substrate", "scheme", "metric", "value"],
        csv_rows,
    )
    return "\n\n".join(tables)


def main(argv: Sequence[str] | None = None) -> int:
    parser = experiment_argparser(__doc__.splitlines()[0])
    # None = every registered substrate competes (the point of the harness)
    parser.set_defaults(substrate=None)
    args = parser.parse_args(argv)
    substrates = [args.substrate] if args.substrate else None
    with recorder_for(args, "substrates") as rec:
        results = run(
            fast=args.fast, seed=args.seed, recorder=rec, substrates=substrates
        )
        print(report(results, args.out))
        rec.close(
            config={
                "fast": args.fast,
                "substrates": substrates or available_substrates(),
            },
            artifacts=["substrates_head_to_head.csv"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
