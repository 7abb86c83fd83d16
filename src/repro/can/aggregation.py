"""Per-dimension directional load aggregation (paper, Sections II-B, III-B).

Nodes piggyback aggregated load information on heartbeats: each node
advertises, for every CAN dimension, a summary of the load in the region
*beyond* it (toward higher coordinates — the direction jobs get pushed).
The summary a node advertises along dimension ``D`` combines its own load
with the summaries it last received from its ``+D``-side neighbors, so
information propagates hop by hop, one heartbeat period per hop — exactly
why the paper calls the data "periodically updated" and approximate.

Each dimension's summary carries only the CE slot that owns the dimension
(``gpu0.clock`` carries the ``gpu0`` load) plus two node-level counters.
That keeps the piggyback O(1) per dimension / O(d) per heartbeat, matching
the compact-heartbeat cost analysis.  Fields:

====  =====================  ==========================================
idx   field                  meaning
====  =====================  ==========================================
0     num_nodes              nodes summarised (corridor length)
1     num_free               free nodes among them
2     slot_required_cores    Σ required cores on the dimension's slot
3     slot_cores             Σ cores on the dimension's slot
4     slot_queue_jobs        Σ queued+running jobs on the slot
5     slot_idle              count of idle CEs of the slot
6     pool_required_cores    Σ required cores over *all* CEs (can-hom)
7     pool_cores             Σ cores over all CEs (can-hom)
====  =====================  ==========================================

The combination rule adds the node's own record to the element-wise *mean*
of its out-neighbors' summaries: summing would double-count overlapping
regions reachable through several neighbors, while the mean keeps
``num_nodes`` close to the corridor length — the same flavour of controlled
approximation the original system used.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..model.node import GridNode
from .overlay import CanOverlay
from .space import ResourceSpace

__all__ = ["AggregationEngine", "FIELDS", "FIELD_INDEX"]

FIELDS = (
    "num_nodes",
    "num_free",
    "slot_required_cores",
    "slot_cores",
    "slot_queue_jobs",
    "slot_idle",
    "pool_required_cores",
    "pool_cores",
)
NF = len(FIELDS)
#: field name -> column of an advertised aggregate vector
FIELD_INDEX = {name: i for i, name in enumerate(FIELDS)}


class AggregationEngine:
    """Vectorised hop-by-hop aggregation over a CAN under churn.

    The out-edges are rebuilt on every ``overlay.topology_version`` change;
    the rows of the nodes that survive it carry over, so a change is felt
    only where it happened and spreads one hop per step.
    """

    def __init__(
        self,
        overlay: CanOverlay,
        grid_nodes: Dict[int, GridNode],
    ):
        self.overlay = overlay
        self.space: ResourceSpace = overlay.space
        self.grid_nodes = grid_nodes
        self._topology_version = -1
        self._ids: List[int] = []
        self._index: Dict[int, int] = {}
        # Out-neighbor edges of all dimensions fused into one CSR over the
        # (D*N) rows of ``_ai`` viewed flat: edge e adds row ``_edge_src[e]``
        # into row ``_edge_dst[e]``; ``_edge_counts[r]`` is row r's
        # out-degree (1 where it is 0, so the mean divides safely).
        self._edge_src = np.empty(0, dtype=np.int64)
        self._edge_dst = np.empty(0, dtype=np.int64)
        self._edge_counts = np.ones(0)
        #: dimensions (index array) owned by each CE slot
        self._slot_dims = {
            slot: np.asarray(
                [d.index for d in self.space.dimensions if d.slot == slot],
                dtype=np.int64,
            )
            for slot in self.space.slots()
        }
        self._ai: Optional[np.ndarray] = None  # (D, N, NF)
        # Own-load records, kept across steps: (D, N, NF), plus the
        # GridNode and ``load_version`` each row was last computed from.
        self._own: Optional[np.ndarray] = None
        self._own_nodes: List[Optional[GridNode]] = []
        self._own_seen: List[int] = []
        self.rounds_run = 0
        #: own-load rows recomputed so far (a full rebuild counts N)
        self.rows_refreshed = 0

    # -- topology ------------------------------------------------------------------
    def _ensure_topology(self) -> None:
        if self._topology_version == self.overlay.topology_version:
            return
        self._topology_version = self.overlay.topology_version
        previous, row_of = self._ai, self._index
        self._ids = sorted(self.overlay.alive_ids())
        self._index = index = {nid: i for i, nid in enumerate(self._ids)}
        dims = self.space.dims
        n = len(self._ids)
        # per row (dim-major, then node), the out-neighbors' node positions
        targets: List[int] = []
        degree: List[int] = []
        neighbors_along = self.overlay.neighbors_along
        for dim in range(dims):
            for nid in self._ids:
                # set order, not sorted: it fixes the order the mean sums in
                out = [
                    index[other]
                    for other in neighbors_along(nid, dim)
                    if other in index
                ]
                targets.extend(out)
                degree.append(len(out))
        counts = np.asarray(degree, dtype=np.int64)
        self._edge_dst = np.repeat(np.arange(dims * n, dtype=np.int64), counts)
        # flat row of (dim, position) is dim * n + position; an edge's
        # target lies in its source row's dimension
        dim_base = self._edge_dst - self._edge_dst % max(n, 1)
        self._edge_src = np.asarray(targets, dtype=np.int64) + dim_base
        self._edge_counts = np.maximum(counts, 1).astype(np.float64)
        # A newcomer's row starts from its own record; a surviving node keeps
        # what it advertised, and rows re-converge hop by hop around the
        # change, as they would in the real system.
        self._own = None
        self._ai = self._own_records().copy()
        kept = [i for i, nid in enumerate(self._ids) if nid in row_of]
        if kept:
            self._ai[:, kept] = previous[:, [row_of[self._ids[i]] for i in kept]]

    # -- own load records -------------------------------------------------------------
    def _own_records(self) -> np.ndarray:
        """(D, N, NF) array of every node's own contribution per dimension.

        Kept across steps.  A step recomputes only the rows whose
        ``GridNode`` changed load since the row was computed (or was
        swapped in or out of ``grid_nodes``); a topology change drops the
        array and the next call rebuilds every row.
        """
        get = self.grid_nodes.get
        if self._own is None:
            n = len(self._ids)
            self._own = np.zeros((self.space.dims, n, NF))
            self._own[:, :, 0] = 1.0
            self._own_nodes = [None] * n
            self._own_seen = [-1] * n
            stale = list(range(n))
        else:
            nodes, seen = self._own_nodes, self._own_seen
            stale = [
                i
                for i, nid in enumerate(self._ids)
                if (node := get(nid)) is not nodes[i]
                or (node is not None and node.load_version != seen[i])
            ]
        if stale:
            self._refresh_rows(stale)
        return self._own

    def _refresh_rows(self, rows: Sequence[int]) -> None:
        """Recompute the own-load records of ``rows`` from their GridNodes."""
        own = self._own
        assert own is not None
        slot_pos = {slot: s for s, slot in enumerate(self._slot_dims)}
        node_level = np.zeros((len(rows), 3))  # free, pool required, pool cores
        slot_level = np.zeros((len(slot_pos), len(rows), 4))
        for k, i in enumerate(rows):
            gnode = self.grid_nodes.get(self._ids[i])
            self._own_nodes[i] = gnode
            if gnode is None:
                continue
            self._own_seen[i] = gnode.load_version
            pool_required = pool_cores = 0
            for slot, ce in gnode.ces.items():
                req = ce.required_cores()
                cores = ce.spec.cores
                if slot in slot_pos:
                    slot_level[slot_pos[slot], k] = (
                        req, cores, ce.job_queue_size, ce.idle
                    )
                pool_required += req
                pool_cores += cores
            node_level[k] = (gnode.is_free(), pool_required, pool_cores)
        own[:, rows, 1] = node_level[:, 0]
        own[:, rows, 6:8] = node_level[:, 1:]
        for stats, dims in zip(slot_level, self._slot_dims.values()):
            own[dims[:, None], rows, 2:6] = stats
        self.rows_refreshed += len(rows)

    # -- propagation --------------------------------------------------------------------
    def step(self) -> None:
        """One heartbeat round of aggregation propagation.

        Every row takes its own record plus the mean of the rows its
        out-edges point at, over the fused CSR: one gather and one
        ``bincount`` per field.  ``bincount`` adds a row's edges in edge
        order, like the ``np.add.at`` scatter it replaced, so the sums are
        bit-identical; ``np.add.reduceat`` associates differently and is
        not (1-ulp drifts).
        """
        self._ensure_topology()
        assert self._ai is not None
        own = self._own_records()
        rows = self._edge_counts.size
        # field-major, so each field's gather and weights are contiguous
        fields = np.ascontiguousarray(self._ai.reshape(rows, NF).T)
        sums = np.empty((NF, rows))
        for f in range(NF):
            sums[f] = np.bincount(
                self._edge_dst,
                weights=fields[f][self._edge_src],
                minlength=rows,
            )
        sums /= self._edge_counts
        self._ai = own + sums.T.reshape(own.shape)
        self.rounds_run += 1

    def run_rounds(self, k: int) -> None:
        for _ in range(k):
            self.step()

    # -- queries --------------------------------------------------------------------------
    def advertised(self, node_id: int, dim: int) -> np.ndarray:
        """The aggregate ``node_id`` currently advertises along ``dim``.

        This is what a *neighbor* of the node would know from the last
        heartbeat — Equation 3's ``AI_D(N, C)`` and Equation 4's
        ``AI_TD(N)``.
        """
        self._ensure_topology()
        assert self._ai is not None
        i = self._index.get(node_id)
        if i is None:
            raise KeyError(f"node {node_id} not in aggregation index")
        return self._ai[dim, i]

    def advertised_along(
        self, node_ids: Sequence[int], dims: np.ndarray
    ) -> np.ndarray:
        """Row ``j`` is ``advertised(node_ids[j], dims[j])``.

        One fancy index for a push hop's whole corridor (Equation 3 over
        every outward (neighbor, dimension) pair at once).
        """
        self._ensure_topology()
        assert self._ai is not None
        index = self._index
        try:
            rows = [index[nid] for nid in node_ids]
        except KeyError as exc:
            raise KeyError(f"node {exc.args[0]} not in aggregation index") from None
        return self._ai[dims, rows]

    def field(self, node_id: int, dim: int, name: str) -> float:
        return float(self.advertised(node_id, dim)[FIELD_INDEX[name]])
