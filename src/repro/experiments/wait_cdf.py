"""Figures 5 and 6 — CDF of job wait time for can-het / can-hom / central.

One experiment (Section V-A) swept along two axes, so one implementation
serves both figures; a :class:`WaitCdfSweep` describes the axis.

* **Figure 5** varies the mean inter-arrival time.  Paper setup: 1000
  heterogeneous nodes, 20,000 jobs, 11-dimensional CAN, constraint ratio
  60 %, inter-arrival 2 s / 3 s / 4 s.  Expected shape: can-het tracks
  central at every load; can-hom falls behind, and the gap widens as the
  system gets more loaded (2 s is the heaviest).
* **Figure 6** varies the job constraint ratio.  Paper setup: as Figure 5
  with the inter-arrival fixed (3 s) and the ratio swept over 80 % / 60 % /
  40 %.  Expected shape: at 40 % all three matchmakers nearly coincide;
  higher ratios make matchmaking harder and can-hom "misdirects jobs to
  heavily-loaded nodes", while can-het stays competitive with central
  throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import ascii_plot, format_table, write_csv
from ..gridsim import GridSimulation, MatchmakingConfig
from ..gridsim.results import MatchmakingResult
from ..obs import RunRecorder
from ..workload import PAPER_LOAD, SMALL_LOAD, WorkloadPreset
from .common import (
    SCHEMES,
    WAIT_GRID,
    experiment_argparser,
    recorder_for,
    results_path,
    simulate,
)

__all__ = ["WaitCdfSweep", "FIG5", "FIG6"]

Results = Dict[float, Dict[str, MatchmakingResult]]


@dataclass(frozen=True)
class WaitCdfSweep:
    """The axis one wait-time CDF figure sweeps, and how it is labelled."""

    #: figure number: names the CLI target, CSV, trace and titles
    figure: int
    #: one-line description (the CLI's ``--help``)
    description: str
    #: the paper's axis values, and their scaled-down ``--fast`` values
    values: Tuple[float, ...]
    fast_values: Tuple[float, ...]
    #: the preset with one axis value applied
    vary: Callable[[WorkloadPreset, float], WorkloadPreset]
    #: ``run.start`` field carrying the axis value
    field: str
    #: axis value -> short tag in labels and titles (``2s``, ``80%``)
    tag: Callable[[float], str]
    #: key in run labels (``fig5 arrival=2s can-het``)
    label_key: str
    #: axis name in table titles
    axis: str
    #: the CSV's first column
    column: str
    #: EXPERIMENTS.md table label; ``{g}`` is the CSV's axis value
    markdown_label: str
    #: tables run from the largest axis value down
    descending: bool

    @property
    def name(self) -> str:
        return f"fig{self.figure}"

    @property
    def csv_name(self) -> str:
        return f"{self.name}_wait_time_cdf.csv"

    def run(
        self,
        fast: bool = False,
        seed: int | None = None,
        recorder: RunRecorder | None = None,
        substrate: str = "can",
    ) -> Results:
        """All (axis value, scheme) runs, keyed by axis value then scheme."""
        preset = SMALL_LOAD if fast else PAPER_LOAD
        if seed is not None:
            preset = preset.with_seed(seed)
        out: Results = {}
        for value in self.fast_values if fast else self.values:
            out[value] = {}
            for scheme in SCHEMES:
                cfg = MatchmakingConfig(
                    self.vary(preset, value), scheme=scheme, substrate=substrate
                )
                label = (
                    f"{self.name} {self.label_key}={self.tag(value)} {scheme}"
                )
                _, out[value][scheme] = simulate(
                    recorder, label, GridSimulation, cfg,
                    scheme=scheme, **{self.field: value},
                )
        return out

    def report(self, results: Results, out_dir: str) -> str:
        """Render the paper-comparable tables/plots; write the CSV."""
        chunks: List[str] = []
        csv_rows: List[Tuple[object, ...]] = []
        for value, by_scheme in sorted(
            results.items(), reverse=self.descending
        ):
            rows = []
            series = {}
            for scheme, res in by_scheme.items():
                fractions = res.wait_cdf_at(WAIT_GRID) * 100.0
                rows.append([scheme] + [f"{f:.2f}" for f in fractions])
                series[scheme] = (np.asarray(WAIT_GRID), fractions)
                for threshold, frac in zip(WAIT_GRID, fractions):
                    csv_rows.append((value, scheme, threshold, frac))
            headers = ["scheme"] + [f"<= {int(t):,}s" for t in WAIT_GRID]
            tag = self.tag(value)
            chunks.append(
                format_table(
                    headers,
                    rows,
                    title=(
                        f"Figure {self.figure} — CDF of job wait time (%), "
                        f"{self.axis} {tag}"
                    ),
                )
            )
            chunks.append(
                ascii_plot(
                    series,
                    title=f"Figure {self.figure} ({tag}): % jobs with wait <= x",
                    xlabel="job wait time (s)",
                    ylabel="% of jobs",
                    y_min=80.0,
                    y_max=100.0,
                    height=14,
                )
            )
        write_csv(
            results_path(out_dir, self.csv_name),
            [self.column, "scheme", "wait_threshold_s", "cdf_percent"],
            csv_rows,
        )
        return "\n\n".join(chunks)

    def main(self, argv: Sequence[str] | None = None) -> int:
        args = experiment_argparser(self.description).parse_args(argv)
        with recorder_for(args, self.name) as rec:
            results = self.run(
                fast=args.fast,
                seed=args.seed,
                recorder=rec,
                substrate=args.substrate,
            )
            print(self.report(results, args.out))
            rec.close(
                config={"fast": args.fast, "substrate": args.substrate},
                artifacts=[self.csv_name],
            )
        return 0


FIG5 = WaitCdfSweep(
    figure=5,
    description=(
        "Figure 5 — CDF of job wait time while varying the mean "
        "inter-arrival time."
    ),
    # seconds between jobs; fast mode preserves the jobs/nodes load ratio
    values=(2.0, 3.0, 4.0),
    fast_values=(10.0, 15.0, 20.0),
    vary=WorkloadPreset.with_interarrival,
    field="interarrival",
    tag=lambda gap: f"{gap:g}s",
    label_key="arrival",
    axis="inter-arrival",
    column="interarrival_s",
    markdown_label="**{g} s** (CDF %)",
    descending=False,
)

FIG6 = WaitCdfSweep(
    figure=6,
    description=(
        "Figure 6 — CDF of job wait time while varying the job constraint "
        "ratio."
    ),
    # the paper's sweep, heaviest first (Figure 6 a-c), in both modes
    values=(0.8, 0.6, 0.4),
    fast_values=(0.8, 0.6, 0.4),
    vary=WorkloadPreset.with_constraint_ratio,
    field="constraint_ratio",
    tag=lambda ratio: f"{int(ratio * 100)}%",
    label_key="ratio",
    axis="constraint ratio",
    column="constraint_ratio",
    markdown_label="**ratio {g}** (CDF %)",
    descending=True,
)
