"""Adversarial scenario pack — the heartbeat schemes under hostile networks.

Runs every scenario in :func:`repro.gridsim.faults.scenario_pack`
(baseline, diurnal churn, flash crowd, correlated rack failures, link
flap storm) for vanilla/compact/adaptive on every registered substrate,
with the mid-flight invariant checker armed throughout.  Per run it
reports:

* steady-state broken links and the believed-state delivery rate (the
  operational consequence of stale tables);
* maintenance messages and KB per node-minute;
* failure-detection latency (mean/p95 over genuinely-crashed nodes);
* network-channel accounting (attempted/delivered/dropped sends).

The paper's trade-off sharpens under adversity: a flap storm whose down
phases outlast the failure timeout makes believers forget live
neighbors faster than compact heartbeats can restore them, so compact's
belief delivery collapses while adaptive's on-demand repair holds the
structure together for a fraction of vanilla's byte cost.

Writes ``results/scenarios.csv`` in long format
(``scenario,substrate,scheme,metric,value``) and prints one table per
scenario.  ``--scenario`` restricts to one scenario, ``--substrate`` to
one substrate (CI smoke runs one reduced scenario per substrate).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import format_table, write_csv
from ..can.heartbeat import HeartbeatScheme
from ..gridsim import ChurnConfig, ChurnSimulation, Scenario, scenario_pack
from ..obs import RunRecorder
from ..overlay import available_substrates, get_substrate
from .common import experiment_argparser, recorder_for, results_path, simulate

__all__ = ["run", "main", "scenario_config"]

Row = Dict[str, float]

#: believed-route probes per finished run (belief delivery rate)
ROUTE_PROBES = 200
DEFAULT_SEED = 20110926


def scenario_config(
    scenario: Scenario,
    scheme: HeartbeatScheme,
    substrate: str,
    fast: bool,
    seed: Optional[int],
) -> ChurnConfig:
    """One scenario run: a fig7-ish high-churn shape plus the plan.

    ``gpu_slots=1`` (8 CAN dimensions) keeps the full 30-run matrix
    affordable; the churn rate stays denser than the heartbeat period,
    the regime where the schemes differ.
    """
    return ChurnConfig(
        initial_nodes=40 if fast else 100,
        gpu_slots=1,
        scheme=scheme,
        event_gap_mean=30.0 if fast else 20.0,
        duration=3_600.0 if fast else 9_000.0,
        seed=DEFAULT_SEED if seed is None else seed,
        substrate=substrate,
        plan=scenario.plan,
        invariant_check_every=20,
    )


def _one_run(
    scenario: Scenario,
    substrate: str,
    scheme: HeartbeatScheme,
    fast: bool,
    seed: Optional[int],
    recorder: Optional[RunRecorder],
) -> Row:
    sim, result = simulate(
        recorder,
        f"{scenario.name}:{substrate}:{scheme.value}",
        ChurnSimulation,
        scenario_config(scenario, scheme, substrate, fast, seed),
        scenario=scenario.name,
        substrate=substrate,
        scheme=scheme.value,
    )
    sim.check_invariants()  # the scenario must leave a consistent grid
    net = sim.protocol.net
    latencies = result.detection_latencies
    return {
        "steady_broken_links": result.steady_state_broken_links(),
        "belief_delivery_rate": sim.routing_success_rate(ROUTE_PROBES),
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
        "final_population": float(result.final_population),
        "net_attempts": float(net.attempts),
        "net_dropped": float(net.dropped),
    }


def run(
    fast: bool = False,
    seed: Optional[int] = None,
    recorder: Optional[RunRecorder] = None,
    substrates: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[Tuple[str, str], Row]]:
    """Results per scenario, keyed by (substrate, scheme)."""
    names = list(substrates) if substrates else available_substrates()
    for name in names:
        get_substrate(name)  # fail fast on unknown names
    shape = scenario_config(
        scenario_pack(1.0, 2)[0], HeartbeatScheme.VANILLA, names[0], fast,
        seed,
    )
    pack = scenario_pack(
        shape.duration, shape.initial_nodes, period=shape.heartbeat_period
    )
    if scenarios:
        known = {s.name for s in pack}
        unknown = set(scenarios) - known
        if unknown:
            raise ValueError(
                f"unknown scenarios {sorted(unknown)}; "
                f"choose from {sorted(known)}"
            )
        pack = tuple(s for s in pack if s.name in scenarios)
    out: Dict[str, Dict[Tuple[str, str], Row]] = {}
    for scenario in pack:
        rows: Dict[Tuple[str, str], Row] = {}
        for substrate in names:
            for scheme in HeartbeatScheme:
                rows[(substrate, scheme.value)] = _one_run(
                    scenario, substrate, scheme, fast, seed, recorder
                )
        out[scenario.name] = rows
    return out


def report(
    results: Dict[str, Dict[Tuple[str, str], Row]], out_dir: str
) -> str:
    csv_rows: List[Tuple[object, ...]] = []
    tables: List[str] = []
    for scenario, rows in results.items():
        if not rows:
            continue
        metrics = list(next(iter(rows.values())))
        header = ["substrate", "scheme", *metrics]
        body = []
        for (substrate, scheme), row in sorted(rows.items()):
            body.append(
                [substrate, scheme] + [f"{row[m]:.2f}" for m in metrics]
            )
            for metric in metrics:
                csv_rows.append(
                    (scenario, substrate, scheme, metric,
                     round(row[metric], 4))
                )
        tables.append(
            format_table(header, body, title=f"Scenario: {scenario}")
        )
    write_csv(
        results_path(out_dir, "scenarios.csv"),
        ["scenario", "substrate", "scheme", "metric", "value"],
        csv_rows,
    )
    return "\n\n".join(tables)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_argparser(__doc__.splitlines()[0])
    # None = every registered substrate runs the pack
    parser.set_defaults(substrate=None)
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="restrict to one scenario (repeatable); default: the full pack",
    )
    args = parser.parse_args(argv)
    substrates = [args.substrate] if args.substrate else None
    with recorder_for(args, "scenarios") as rec:
        results = run(
            fast=args.fast,
            seed=args.seed,
            recorder=rec,
            substrates=substrates,
            scenarios=args.scenario,
        )
        print(report(results, args.out))
        rec.close(
            config={
                "fast": args.fast,
                "substrates": substrates or available_substrates(),
                "scenarios": args.scenario or "all",
            },
            artifacts=["scenarios.csv"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
