"""Recovery — failure detection and resubmission latency per heartbeat scheme.

Extension experiment (not a paper figure): the faulty grid runs the *real*
maintenance protocol, so a crash is only acted on once some believer's
freshness evidence times out.  Under heartbeat message loss the three
schemes degrade differently, and that difference shows up directly in the
detection-latency distribution — and downstream in how long lost jobs wait
before they run again.

Expected shape: with loss-free heartbeats all schemes detect within
``timeout + one period`` of the crash.  Under loss, compact and adaptive
stay close to that bound while vanilla drifts *upward*: its full-table
gossip forwards third-party freshness evidence, so surviving believers
keep refreshing a dead node's record from stale hearsay and time it out
later.  Resubmission latency adds the retry backoff on top.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import ascii_plot, format_table, write_csv
from ..can.heartbeat import HeartbeatScheme
from ..gridsim import (
    FaultPlan,
    FaultyGridConfig,
    FaultyGridResult,
    FaultyGridSimulation,
    MatchmakingConfig,
    empirical_cdf,
)
from ..net import NetworkSpec
from ..obs import RunRecorder
from ..workload import TINY_LOAD
from .common import experiment_argparser, recorder_for, results_path, simulate

__all__ = ["run", "main", "recovery_config"]

#: heartbeat delivery loss probability — the knob that separates the schemes
MESSAGE_LOSS = 0.2


def recovery_config(
    scheme: HeartbeatScheme,
    fast: bool,
    seed: int | None,
    substrate: str,
) -> FaultyGridConfig:
    """A churny grid with protocol-driven detection and lossy heartbeats."""
    if fast:
        preset = replace(TINY_LOAD, jobs=120)
    else:
        preset = replace(
            TINY_LOAD, nodes=60, jobs=400, mean_interarrival=40.0
        )
    if seed is not None:
        preset = preset.with_seed(seed)
    return FaultyGridConfig(
        MatchmakingConfig(preset, substrate=substrate),
        mean_time_between_failures=300.0,
        mean_time_between_joins=300.0,
        heartbeat_scheme=scheme,
        faults=FaultPlan(network=NetworkSpec(loss=MESSAGE_LOSS)),
        invariant_check_every=5,
    )


def run(
    fast: bool = False,
    seed: int | None = None,
    recorder: RunRecorder | None = None,
    substrate: str = "can",
) -> Dict[str, FaultyGridResult]:
    out: Dict[str, FaultyGridResult] = {}
    for scheme in HeartbeatScheme:
        cfg = recovery_config(scheme, fast=fast, seed=seed, substrate=substrate)
        _, out[scheme.value] = simulate(
            recorder, f"recovery:{scheme.value}", FaultyGridSimulation, cfg,
            scheme=scheme.value,
        )
    return out


def _dist_row(samples: np.ndarray) -> List[str]:
    if samples.size == 0:
        return ["-"] * 4
    return [
        f"{samples.mean():.0f}",
        f"{np.percentile(samples, 50):.0f}",
        f"{np.percentile(samples, 95):.0f}",
        f"{samples.max():.0f}",
    ]


def report(results: Dict[str, FaultyGridResult], out_dir: str) -> str:
    rows = []
    csv_rows: List[Tuple[object, ...]] = []
    for name, res in results.items():
        rows.append(
            [
                name,
                res.failures,
                *_dist_row(res.detection_latencies),
                *_dist_row(res.resubmission_latencies),
                res.jobs_lost,
                res.jobs_resubmitted,
                res.jobs_abandoned,
            ]
        )
        for kind, samples in (
            ("detection", res.detection_latencies),
            ("resubmission", res.resubmission_latencies),
        ):
            for value in samples:
                csv_rows.append((name, kind, float(value)))
    table = format_table(
        [
            "scheme",
            "crashes",
            "detect mean",
            "p50",
            "p95",
            "max",
            "resubmit mean",
            "p50",
            "p95",
            "max",
            "lost",
            "resubmitted",
            "abandoned",
        ],
        rows,
        title=(
            "Recovery — detection/resubmission latency (s) under "
            f"{MESSAGE_LOSS:.0%} heartbeat loss"
        ),
    )
    series = {
        name: empirical_cdf(res.detection_latencies)
        for name, res in results.items()
        if res.detection_latencies.size
    }
    plot = ascii_plot(
        series,
        title="Recovery: crash-detection latency CDF",
        xlabel="detection latency (s)",
        ylabel="fraction detected",
        height=14,
    )
    write_csv(
        results_path(out_dir, "recovery_latencies.csv"),
        ["scheme", "kind", "latency_s"],
        csv_rows,
    )
    return table + "\n\n" + plot


def main(argv: Sequence[str] | None = None) -> int:
    args = experiment_argparser(__doc__.splitlines()[0]).parse_args(argv)
    with recorder_for(args, "recovery") as rec:
        results = run(
            fast=args.fast,
            seed=args.seed,
            recorder=rec,
            substrate=args.substrate,
        )
        print(report(results, args.out))
        rec.close(
            config={
                "fast": args.fast,
                "message_loss": MESSAGE_LOSS,
                "substrate": args.substrate,
            },
            artifacts=["recovery_latencies.csv"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
