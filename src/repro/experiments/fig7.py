"""Figure 7 — broken links over time under high churn (11-d CAN).

Paper setup: 1000 nodes join, then join/leave events with equal probability
at gaps *shorter* than the heartbeat period (high churn, leaves are silent
failures); the number of broken links is tracked over ≥30,000 s.

Expected shape: links accumulate and then mostly level out; vanilla CAN is
the most resilient, compact heartbeat the least (the paper measured ≈70 %
more link failures), and adaptive heartbeat stays very close to vanilla.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import ascii_plot, format_table, write_csv
from ..can.heartbeat import HeartbeatScheme
from ..gridsim import ChurnConfig, ChurnSimulation
from ..gridsim.results import ChurnResult
from ..obs import RunRecorder
from .common import experiment_argparser, recorder_for, results_path, simulate

__all__ = ["run", "main", "fig7_config"]


def fig7_config(
    scheme: HeartbeatScheme,
    fast: bool,
    seed: int | None,
    substrate: str,
) -> ChurnConfig:
    """The paper's high-churn setup (or its scaled-down variant)."""
    kwargs = dict(
        gpu_slots=2,  # 11 dimensions
        scheme=scheme,
        heartbeat_period=60.0,
        leave_mode="fail",
        substrate=substrate,
    )
    if seed is not None:
        kwargs["seed"] = seed
    if fast:
        return ChurnConfig(
            initial_nodes=120,
            event_gap_mean=15.0,  # 4 events per heartbeat period
            duration=6_000.0,
            **kwargs,
        )
    # The paper ran 1000 nodes for 30,000 s.  We run 250 nodes for
    # 18,000 s: the broken-link dynamics are per-neighborhood (churn
    # events per node and per heartbeat period are what matter), so the
    # curves' shape is preserved while a single-core regeneration stays
    # in the minutes.  Scale up via ChurnConfig if you have the time.
    return ChurnConfig(
        initial_nodes=250,
        event_gap_mean=15.0,
        duration=18_000.0,
        **kwargs,
    )


def run(
    fast: bool = False,
    seed: int | None = None,
    recorder: RunRecorder | None = None,
    substrate: str = "can",
) -> Dict[str, ChurnResult]:
    out: Dict[str, ChurnResult] = {}
    for scheme in HeartbeatScheme:
        cfg = fig7_config(scheme, fast=fast, seed=seed, substrate=substrate)
        _, out[scheme.value] = simulate(
            recorder, f"fig7:{scheme.value}", ChurnSimulation, cfg,
            scheme=scheme.value,
        )
    return out


def report(results: Dict[str, ChurnResult], out_dir: str) -> str:
    series = {
        name: (res.broken_links_times, res.broken_links_values)
        for name, res in results.items()
    }
    rows = []
    csv_rows: List[Tuple[object, ...]] = []
    vanilla_steady = results["vanilla"].steady_state_broken_links()
    for name, res in results.items():
        steady = res.steady_state_broken_links()
        rel = steady / vanilla_steady if vanilla_steady > 0 else float("nan")
        rows.append(
            [
                name,
                f"{steady:.1f}",
                f"{res.final_broken_links:.0f}",
                f"{rel:.2f}x",
                res.events["failures"],
                res.events["joins"],
                res.final_population,
            ]
        )
        for t, v in zip(res.broken_links_times, res.broken_links_values):
            csv_rows.append((name, t, v))
    table = format_table(
        [
            "scheme",
            "steady broken links",
            "final",
            "vs vanilla",
            "failures",
            "joins",
            "population",
        ],
        rows,
        title="Figure 7 — broken links under high churn",
    )
    plot = ascii_plot(
        series,
        title="Figure 7: broken links over time",
        xlabel="elapsed time (s)",
        ylabel="# broken links",
        height=16,
    )
    write_csv(
        results_path(out_dir, "fig7_broken_links.csv"),
        ["scheme", "time_s", "broken_links"],
        csv_rows,
    )
    return table + "\n\n" + plot


def main(argv: Sequence[str] | None = None) -> int:
    args = experiment_argparser(__doc__.splitlines()[0]).parse_args(argv)
    with recorder_for(args, "fig7") as rec:
        results = run(
            fast=args.fast,
            seed=args.seed,
            recorder=rec,
            substrate=args.substrate,
        )
        print(report(results, args.out))
        rec.close(
            config={"fast": args.fast, "substrate": args.substrate},
            artifacts=["fig7_broken_links.csv"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
