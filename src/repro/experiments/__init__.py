"""Experiment harness: one module per experiment of the paper's evaluation.

Run with ``python -m repro.experiments
<fig5|fig6|fig7|fig8|ablations|recovery|substrates|scenarios|report|all>``.
Figures 5 and 6 are one wait-time CDF sweep along two axes
(:mod:`~repro.experiments.wait_cdf`); ``fig5`` and ``fig6`` name its two
sweeps.
"""

from . import (
    ablations,
    common,
    fig7,
    fig8,
    recovery,
    report,
    scenarios,
    substrates,
    wait_cdf,
)

fig5 = wait_cdf.FIG5
fig6 = wait_cdf.FIG6

__all__ = [
    "ablations",
    "common",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "recovery",
    "report",
    "scenarios",
    "substrates",
    "wait_cdf",
]
