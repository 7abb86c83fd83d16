"""CLI entry point: ``python -m repro.experiments <figure> [--fast]``.

Regenerates any of the paper's evaluation figures (see EXPERIMENTS.md for
the recorded paper-vs-measured comparison):

    python -m repro.experiments fig5          # wait-time CDF vs load
    python -m repro.experiments fig6          # wait-time CDF vs constraint ratio
    python -m repro.experiments fig7          # broken links under churn
    python -m repro.experiments fig8          # maintenance cost scaling
    python -m repro.experiments ablations     # design-choice ablations
    python -m repro.experiments recovery      # detection/resubmission latency
    python -m repro.experiments substrates    # CAN vs Chord head-to-head
    python -m repro.experiments scenarios     # schemes under hostile networks
    python -m repro.experiments report        # refresh EXPERIMENTS.md tables
    python -m repro.experiments all --fast    # everything, scaled down
"""

from __future__ import annotations

import sys
from typing import List, Sequence

from . import (
    ablations,
    fig5,
    fig6,
    fig7,
    fig8,
    recovery,
    report,
    scenarios,
    substrates,
)

_TARGETS = {
    "fig5": fig5.main,
    "fig6": fig6.main,
    "fig7": fig7.main,
    "fig8": fig8.main,
    "ablations": ablations.main,
    "recovery": recovery.main,
    "substrates": substrates.main,
    "scenarios": scenarios.main,
    "report": report.main,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    target, rest = argv[0], argv[1:]
    if target == "all":
        status = 0
        for name, entry in _TARGETS.items():
            if name == "report":
                continue
            print(f"\n{'=' * 72}\n# {name}\n{'=' * 72}")
            status |= entry(rest)
        return status
    if target not in _TARGETS:
        print(f"unknown experiment {target!r}; choose from "
              f"{', '.join([*_TARGETS, 'all'])}", file=sys.stderr)
        return 2
    return _TARGETS[target](rest)


if __name__ == "__main__":
    raise SystemExit(main())
