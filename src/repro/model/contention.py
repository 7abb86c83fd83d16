"""Contention for co-running jobs on non-dedicated CEs.

The paper relies on two empirical findings from the authors' prior work
(Lee et al., IPDPS 2010) without restating the numbers:

1. jobs sharing a non-dedicated CE (a multi-core CPU) contend for shared
   resources and slow each other down "significantly";
2. there is **no significant contention between separate CEs** (e.g. a CPU
   job and a GPU job on the same node do not slow each other).

We therefore model contention as a per-CE multiplicative slowdown that grows
with the number of co-running jobs on that CE only.  The linear model is
conservative, and its coefficients are constants: the paper's conclusions
depend only on contention *existing*, not on its exact shape, and no run
varies them.
"""

from __future__ import annotations

from .ce import ComputingElement

__all__ = ["ALPHA", "MAX_FACTOR", "execution_time"]

#: slowdown added per job already running on a non-dedicated CE
ALPHA = 0.15
#: ceiling on the slowdown factor
MAX_FACTOR = 2.5


def execution_time(base_duration: float, ce: ComputingElement) -> float:
    """Wall-clock run time of a job about to start on ``ce`` (before attach).

    Base duration is defined at nominal clock 1.0, scaled inversely by the
    CE clock (paper, Section V-A) and stretched by
    ``min(MAX_FACTOR, 1 + ALPHA * co_runners)``, where ``co_runners`` is the
    number of jobs already on the CE.  Dedicated CEs never co-run jobs, so
    their factor is always 1.
    """
    if ce.spec.dedicated:
        factor = 1.0
    else:
        factor = min(MAX_FACTOR, 1.0 + ALPHA * len(ce.running))
    return base_duration / ce.spec.clock * factor
