"""The matchmaker's per-candidate loops, kept as references for tests only.

``CanMatchmaker`` filters a hop's candidates through a capability table
and picks Algorithm 1's push target (the Equation 3 minimum) with array
expressions over the aggregation engine's rows.  These are the scalar
loops those array steps replaced, with their own scalar Equation 3.  They
recompute the neighbourhood from the overlay instead of reading the
matchmaker's cached one, so a stale cache shows as a difference.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.can.aggregation import FIELD_INDEX
from repro.model.job import Job
from repro.model.node import GridNode


def candidate_ids(mm, node_id: int) -> List[int]:
    """The node itself, then its alive neighbours by id."""
    overlay = mm.overlay
    return [node_id] + sorted(
        nid for nid in overlay.neighbors(node_id) if overlay.is_alive(nid)
    )


def corridor(mm, node_id: int) -> List[Tuple[int, int]]:
    """``(dim, id)`` of every alive neighbour across a ``+dim`` face."""
    overlay = mm.overlay
    return [
        (dim, nid)
        for dim in range(overlay.space.dims)
        for nid in sorted(overlay.neighbors_along(node_id, dim))
        if overlay.is_alive(nid)
    ]


def capable_candidates(mm, node_id: int, job: Job) -> List[GridNode]:
    """The candidates ``grid_nodes`` holds and ``GridNode.capable`` admits."""
    get = mm.grid_nodes.get
    return [
        node
        for nid in candidate_ids(mm, node_id)
        if (node := get(nid)) is not None and node.capable(job)
    ]


def push_objective(ai: np.ndarray, use_slot_fields: bool) -> float:
    """Equation 3 on one advertised aggregate vector."""
    if use_slot_fields:
        required = ai[FIELD_INDEX["slot_required_cores"]]
        cores = ai[FIELD_INDEX["slot_cores"]]
    else:
        required = ai[FIELD_INDEX["pool_required_cores"]]
        cores = ai[FIELD_INDEX["pool_cores"]]
    if cores <= 0:
        return math.inf
    return required / (cores * cores)


def choose_push_target(
    mm, node_id: int, visited: set, slot: Optional[str]
) -> Optional[Tuple[int, int]]:
    """Algorithm 1 line 11, one (neighbour, dim) at a time.

    Steering-slot dimensions first, then the lowest objective; a later
    entry wins only on a strictly smaller key.
    """
    best: Optional[Tuple[int, int]] = None
    best_key: Tuple[int, float] = (2, math.inf)
    dimensions = mm.overlay.space.dimensions
    grid, advertised = mm.grid_nodes, mm.aggregation.advertised
    for dim, nid in corridor(mm, node_id):
        if nid in visited or nid not in grid:
            continue
        slot_dim = slot is not None and dimensions[dim].slot == slot
        obj = push_objective(advertised(nid, dim), use_slot_fields=slot_dim)
        if math.isinf(obj):
            continue
        key = (0 if slot_dim else 1, obj)
        if key < best_key:
            best_key = key
            best = (nid, dim)
    return best
