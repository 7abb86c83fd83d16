"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation removes one mechanism from can-het and measures the wait-time
damage, isolating that mechanism's contribution:

* ``acceptable-node`` — fall back to free-node-only search (Section III-B's
  first change for heterogeneity);
* ``dominant-ce`` — score nodes by whole-node utilisation instead of the
  dominant CE (Section III-B "Dominant CE");
* ``stopping-factor`` — sweep Equation 4's SF parameter;
* ``virtual-dimension`` — squeeze the virtual dimension so it no longer
  spreads identical nodes (Section II-B).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from ..analysis import format_table, write_csv
from ..gridsim import GridSimulation, MatchmakingConfig
from ..gridsim.results import MatchmakingResult
from ..workload import PAPER_LOAD, SMALL_LOAD
from .common import experiment_argparser, results_path, timed

__all__ = ["run", "main", "ABLATIONS"]

ABLATIONS = (
    "baseline",
    "acceptable-node",
    "dominant-ce",
    "virtual-dimension",
    "stopping-factor",
)


def _config_for(ablation: str, base: MatchmakingConfig) -> List[MatchmakingConfig]:
    if ablation == "baseline":
        return [base]
    if ablation == "acceptable-node":
        return [replace(base, use_acceptable_nodes=False)]
    if ablation == "dominant-ce":
        return [replace(base, use_dominant_ce=False)]
    if ablation == "virtual-dimension":
        return [replace(base, use_virtual_dimension=False)]
    if ablation == "stopping-factor":
        return [replace(base, stopping_factor=sf) for sf in (1.0, 2.0, 4.0, 8.0)]
    raise ValueError(f"unknown ablation {ablation!r}")


def run(
    fast: bool = False,
    seed: int | None = None,
    ablations: Sequence[str] = ABLATIONS,
    substrate: str = "can",
) -> Dict[str, List[MatchmakingResult]]:
    preset = SMALL_LOAD if fast else PAPER_LOAD
    if seed is not None:
        preset = preset.with_seed(seed)
    base = MatchmakingConfig(preset, scheme="can-het", substrate=substrate)
    out: Dict[str, List[MatchmakingResult]] = {}
    for ablation in ablations:
        out[ablation] = []
        for cfg in _config_for(ablation, base):
            label = f"ablation {ablation} sf={cfg.stopping_factor:g}"
            out[ablation].append(
                timed(label, lambda c=cfg: GridSimulation(c).run())
            )
    return out


def report(results: Dict[str, List[MatchmakingResult]], out_dir: str) -> str:
    rows = []
    csv_rows = []
    for ablation, runs in results.items():
        for res in runs:
            s = res.summary()
            tag = ablation
            if ablation == "stopping-factor":
                tag = f"{ablation} (SF from run order 1/2/4/8)"
            rows.append(
                [
                    tag,
                    f"{s['mean_wait']:.0f}",
                    f"{s['p90_wait']:.0f}",
                    f"{s['p95_wait']:.0f}",
                    f"{s['zero_wait_fraction'] * 100:.1f}",
                    f"{s['mean_push_hops']:.2f}",
                ]
            )
            csv_rows.append(
                (
                    ablation,
                    s["mean_wait"],
                    s["p90_wait"],
                    s["p95_wait"],
                    s["zero_wait_fraction"],
                    s["mean_push_hops"],
                )
            )
    table = format_table(
        ["ablation", "mean wait", "p90", "p95", "zero-wait %", "push hops"],
        rows,
        title="Ablations — can-het with one mechanism removed",
    )
    write_csv(
        results_path(out_dir, "ablations.csv"),
        ["ablation", "mean_wait", "p90_wait", "p95_wait", "zero_wait_frac", "push_hops"],
        csv_rows,
    )
    return table


def main(argv: Sequence[str] | None = None) -> int:
    parser = experiment_argparser(__doc__.splitlines()[0])
    parser.add_argument(
        "--ablation",
        choices=ABLATIONS,
        action="append",
        help="run only selected ablations (repeatable)",
    )
    args = parser.parse_args(argv)
    chosen = tuple(args.ablation) if args.ablation else ABLATIONS
    results = run(
        fast=args.fast,
        seed=args.seed,
        ablations=chosen,
        substrate=args.substrate,
    )
    print(report(results, args.out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
