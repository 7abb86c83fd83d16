"""The paper's scoring equations (Section III-B).

* **Equation 1** (dedicated CE): score = JobQueueSize / ClockSpeed.
* **Equation 2** (non-dedicated CE): score = (RequiredCores / NumberOfCores)
  / ClockSpeed.
* **Equation 3** (push objective): F_D(N, C) =
  AI_D(N, C).SumOfRequiredCores / AI_D(N, C).NumberOfCores².
* **Equation 4** (stop probability): P(N) =
  1 / (1 + AI_TD(N).NumberOfNodes)^SF.

Equations 1/2 prefer the least-utilised node relative to its clock speed
for the job's dominant CE; Equation 3 steers pushes toward regions with
plenty of cores and little outstanding demand; Equation 4 stops pushing
sooner when few nodes remain farther out.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..model.ce import ComputingElement
from ..model.job import Job
from ..model.node import GridNode
from ..can.aggregation import FIELD_INDEX as _IDX

#: Equation 3's fields: per CE slot, and pooled over the node's CEs
_SLOT_REQUIRED, _SLOT_CORES = _IDX["slot_required_cores"], _IDX["slot_cores"]
_POOL_REQUIRED, _POOL_CORES = _IDX["pool_required_cores"], _IDX["pool_cores"]

__all__ = [
    "ce_score",
    "node_score",
    "push_objective",
    "stop_probability",
    "pooled_node_score",
    "min_score_node",
    "min_pooled_score_node",
]


def ce_score(ce: ComputingElement) -> float:
    """Equations 1 and 2: utilisation of a CE divided by its clock speed."""
    return ce.utilization_score()


def node_score(node: GridNode, job: Job) -> float:
    """Score of a node for a job, evaluated on the job's dominant CE.

    Nodes lacking the dominant CE score ``inf`` (they cannot run the job).
    """
    ce = node.ce(job.dominant_slot)
    if ce is None:
        return math.inf
    return ce_score(ce)


def pooled_node_score(node: GridNode) -> float:
    """The heterogeneity-*oblivious* score used by the can-hom baseline.

    Whole-node core utilisation over the CPU clock — it cannot tell which
    CE is the loaded one, which is exactly why can-hom misplaces jobs.
    """
    cpu = node.ce("cpu")
    assert cpu is not None  # every node has a CPU
    return node.node_utilization() / cpu.spec.clock


def min_score_node(candidates: List[GridNode], job: Job) -> Optional[GridNode]:
    """Argmin of the Equation 1/2 score over ``candidates`` (ties on id).

    The shared "place on the least-loaded capable node" step of both CAN
    matchmakers; returns ``None`` for an empty candidate list.
    """
    if not candidates:
        return None
    return min(candidates, key=lambda n: (node_score(n, job), n.node_id))


def min_pooled_score_node(candidates: List[GridNode]) -> Optional[GridNode]:
    """Argmin of the pooled (heterogeneity-oblivious) score (ties on id)."""
    if not candidates:
        return None
    return min(candidates, key=lambda n: (pooled_node_score(n), n.node_id))


def push_objective(ai: np.ndarray, use_slot_fields):
    """Equation 3 on one advertised aggregate vector, or on each row of many.

    ``use_slot_fields`` (one flag, or one per row) selects the per-CE fields
    when the push dimension belongs to the job's dominant CE slot; other
    dimensions fall back to the pooled (node-level) fields, which is all
    their aggregates carry.  ``inf`` where the chosen cores are not
    positive.  One vector gives a float, rows give an array.
    """
    use = use_slot_fields
    required = np.where(use, ai[..., _SLOT_REQUIRED], ai[..., _POOL_REQUIRED])
    cores = np.where(use, ai[..., _SLOT_CORES], ai[..., _POOL_CORES])
    objective = np.full(cores.shape, np.inf)
    np.divide(required, cores * cores, out=objective, where=cores > 0)
    return objective[()]


def stop_probability(num_nodes_beyond: float, stopping_factor: float) -> float:
    """Equation 4: probability to stop pushing at the current node.

    ``num_nodes_beyond`` is AI_TD(N).NumberOfNodes, the (approximate) count
    of nodes farther out along the chosen target dimension.
    """
    if stopping_factor < 0:
        raise ValueError("stopping factor must be non-negative")
    n = max(0.0, float(num_nodes_beyond))
    return 1.0 / (1.0 + n) ** stopping_factor


def ai_field(ai: np.ndarray, name: str) -> float:
    """Read a named field out of an advertised aggregate vector."""
    if name not in _IDX:
        raise ValueError(f"unknown aggregate field {name!r}")
    return float(ai[_IDX[name]])
