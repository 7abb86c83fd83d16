"""The can-hom baseline: the authors' previous, heterogeneity-oblivious
matchmaker (Kim et al. / Lee et al.), run on the same heterogeneous CAN.

Differences from :class:`~repro.sched.can_het.CanHetMatchmaker`, mirroring
Section V-A's description ("oblivious to heterogeneous resources ... job
push decisions can lead to a poor choice for a run-node, since it is based
on inaccurate aggregated information"):

* only *free* nodes end the search early — there is no acceptable-node
  concept, so an idle GPU behind a busy CPU is invisible;
* pushes steer by the pooled (all-CEs) load aggregate along every
  dimension, not the dominant CE's;
* the final stop picks the minimum *whole-node* utilisation over CPU clock,
  ignoring which CE the job actually stresses.

Capability filtering still applies (the CAN geometry itself guarantees the
run node can eventually run the job in the real system).
"""

from __future__ import annotations

from typing import List, Optional

from ..model.job import Job
from ..model.node import GridNode
from ..obs.profiling import profiled
from .base import CanMatchmaker
from .score import min_pooled_score_node

__all__ = ["CanHomMatchmaker"]


class CanHomMatchmaker(CanMatchmaker):
    """Heterogeneity-oblivious CAN matchmaking (the prior system)."""

    name = "can-hom"

    def _select_startable(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        free = [n for n in capable if n.is_free()]
        if not free:
            return None
        # Fastest CPU clock among free nodes; can-hom's notion of "most
        # capable" never looks at the GPU.
        return min(free, key=lambda n: (-n.ces["cpu"].spec.clock, n.node_id))

    @profiled("mm.score.eq12")
    def _select_min_score(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        return min_pooled_score_node(capable)
