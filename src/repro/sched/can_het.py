"""The paper's contribution: heterogeneity-aware decentralized matchmaking.

This is Algorithm 1 verbatim (the push walk itself lives in
:class:`~repro.sched.base.CanMatchmaker`):

* the search ends at an *acceptable* node among the current node and its
  neighbors — prefer a free node with the fastest dominant-CE clock, then
  any acceptable node with the fastest dominant-CE clock;
* pushes minimise the Equation 3 objective on the *dominant CE's*
  aggregates;
* on stop, the job goes to the minimum Equation 1/2 score candidate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..can.aggregation import AggregationEngine
from ..can.overlay import CanOverlay
from ..model.job import Job
from ..model.node import GridNode
from .base import CanMatchmaker, fastest_dominant_clock
from .score import (
    min_pooled_score_node,
    min_score_node,
    node_score,
    pooled_node_score,
)

__all__ = ["CanHetMatchmaker"]


class CanHetMatchmaker(CanMatchmaker):
    """Algorithm 1 — matchmaking and job pushing for heterogeneous jobs."""

    name = "can-het"

    def __init__(
        self,
        overlay: CanOverlay,
        grid_nodes: Dict[int, GridNode],
        aggregation: AggregationEngine,
        rng: np.random.Generator,
        stopping_factor: float,
        use_acceptable_nodes: bool,
        use_dominant_ce: bool,
    ):
        super().__init__(overlay, grid_nodes, aggregation, rng, stopping_factor)
        #: ablation switches (DESIGN.md): fall back to free-node-only search
        #: and/or to node-level scoring to isolate each mechanism's value
        self.use_acceptable_nodes = use_acceptable_nodes
        self.use_dominant_ce = use_dominant_ce

    def _steering_slot(self, job: Job) -> Optional[str]:
        return job.dominant_slot if self.use_dominant_ce else None

    def _score_of(self, node: Optional[GridNode], job: Job) -> Optional[float]:
        """Equation 1/2 score for the trace; only computed when tracing."""
        if self.tracer is None or node is None:
            return None
        if self.use_dominant_ce:
            return node_score(node, job)
        return pooled_node_score(node)

    def _select_startable(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        """Algorithm 1 lines 3-9: acceptable nodes, free nodes first."""
        if self.use_acceptable_nodes:
            acceptable = [n for n in capable if n.can_start_now(job)]
        else:
            acceptable = [n for n in capable if n.is_free()]
        if not acceptable:
            return None
        free = [n for n in acceptable if n.is_free()]
        pool = free if free else acceptable
        return fastest_dominant_clock(pool, job)

    def _select_min_score(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        """Algorithm 1 line 14: minimum Equation 1/2 score candidate."""
        if self.use_dominant_ce:
            return min_score_node(capable, job)
        return min_pooled_score_node(capable)
