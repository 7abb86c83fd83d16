"""Matchmaker interface and shared selection helpers."""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..can.aggregation import AggregationEngine
from ..can.overlay import CanOverlay
from ..model.job import Job
from ..model.node import GridNode
from .score import ai_field, push_objective, stop_probability

__all__ = [
    "Matchmaker",
    "CanMatchmaker",
    "MatchmakingStats",
    "fastest_dominant_clock",
    "ring_search",
]


@dataclass
class MatchmakingStats:
    """Aggregate counters a matchmaker maintains across placements."""

    placed: int = 0
    unplaced: int = 0
    total_push_hops: int = 0
    stopped_probabilistically: int = 0
    placed_on_free: int = 0
    placed_on_acceptable: int = 0
    fallback_searches: int = 0

    @property
    def mean_push_hops(self) -> float:
        return self.total_push_hops / self.placed if self.placed else 0.0


class Matchmaker(abc.ABC):
    """Chooses a run node for each submitted job.

    ``tracer``/``clock`` are optional observability wiring (see
    :meth:`attach_tracer`): when set, placement decisions and push hops
    are emitted as ``mm.*`` trace events stamped with the simulation time.
    """

    name: str = "matchmaker"

    def __init__(self) -> None:
        self.stats = MatchmakingStats()
        self.tracer = None
        self.clock = None

    @abc.abstractmethod
    def place(self, job: Job) -> Optional[GridNode]:
        """Return the run node for ``job``, or ``None`` when unplaceable."""

    def attach_tracer(self, tracer, clock=None) -> None:
        """Wire a :class:`repro.obs.Tracer` plus a ``() -> now`` clock."""
        self.tracer = tracer
        self.clock = clock

    def _t(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _trace_push(
        self, job: Job, frm: int, to: int, dim: int, hop: Optional[int] = None
    ) -> None:
        if hop is not None:
            self.tracer.emit(
                self._t(), "mm.push",
                job=job.job_id, frm=frm, to=to, dim=dim, hop=hop,
            )
        else:
            self.tracer.emit(
                self._t(), "mm.push", job=job.job_id, frm=frm, to=to, dim=dim
            )

    def _record_placement(
        self,
        node: Optional[GridNode],
        job: Job,
        hops: int,
        score: Optional[float] = None,
    ) -> Optional[GridNode]:
        if node is None:
            self.stats.unplaced += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self._t(), "mm.unplaced", job=job.job_id, hops=hops
                )
            return None
        self.stats.placed += 1
        self.stats.total_push_hops += hops
        job.push_hops = hops
        free = node.is_free()
        acceptable = False
        if free:
            self.stats.placed_on_free += 1
        elif node.is_acceptable(job):
            acceptable = True
            self.stats.placed_on_acceptable += 1
        if self.tracer is not None:
            fields = dict(
                job=job.job_id,
                node=node.node_id,
                hops=hops,
                free=free,
                acceptable=acceptable,
                scheme=self.name,
            )
            if score is not None:
                fields["score"] = score
            self.tracer.emit(self._t(), "mm.placed", **fields)
        return node


class CanMatchmaker(Matchmaker):
    """Algorithm 1's push walk, shared by can-het and can-hom.

    1. route the job to the node owning its coordinate;
    2. loop: end the search at a candidate (the current node or a
       neighbor) that can take the job at once;
    3. otherwise pick the outward (target node, dimension) minimising the
       Equation 3 objective, stop probabilistically per Equation 4; on
       stop, place on the minimum-score candidate; otherwise push.

    The schemes differ in what ends the search early, whose aggregate
    fields steer a push and which score picks the final node; subclasses
    supply those.  All decisions use information a real node would have:
    its own state, its neighbors' states (exchanged in heartbeats), and
    the per-dimension aggregates propagated by the aggregation engine.
    """

    def __init__(
        self,
        overlay: CanOverlay,
        grid_nodes: Dict[int, GridNode],
        aggregation: AggregationEngine,
        rng: np.random.Generator,
        stopping_factor: float = 1.0,
        max_hops: int = 64,
    ):
        super().__init__()
        self.overlay = overlay
        self.grid_nodes = grid_nodes
        self.aggregation = aggregation
        self.rng = rng
        self.stopping_factor = stopping_factor
        self.max_hops = max_hops
        # node id -> (local candidate ids, outward corridor) at _hoods_version
        self._hoods: Dict[int, Tuple[List[int], List[Tuple[int, int]]]] = {}
        self._hoods_version = -1

    # -- what a scheme supplies ---------------------------------------------------
    @abc.abstractmethod
    def _select_startable(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        """The candidate that ends the search early, if any."""

    @abc.abstractmethod
    def _select_min_score(
        self, capable: List[GridNode], job: Job
    ) -> Optional[GridNode]:
        """The least-loaded candidate by the scheme's score, if any."""

    def _steering_slot(self, job: Job) -> Optional[str]:
        """The CE slot whose aggregates steer pushes (``None``: pooled)."""
        return None

    def _score_of(self, node: Optional[GridNode], job: Job) -> Optional[float]:
        """The chosen node's score for the ``mm.placed`` trace event."""
        return None

    # -- placement ----------------------------------------------------------------
    def place(self, job: Job) -> Optional[GridNode]:
        coord = self.overlay.space.job_coordinate(
            job, float(self.rng.random())
        )
        origin = self.overlay.locate_owner(coord)
        slot = self._steering_slot(job)
        current = origin
        visited = {current}
        hops = 0
        for _ in range(self.max_hops):
            capable = self._capable_candidates(current, job)
            chosen = self._select_startable(capable, job)
            if chosen is not None:
                return self._record_placement(chosen, job, hops)

            target = self._choose_push_target(current, visited, slot)
            if target is None:
                break  # nowhere outward left to go
            target_id, dim = target
            ai = self.aggregation.advertised(target_id, dim)
            p_stop = stop_probability(
                ai_field(ai, "num_nodes"), self.stopping_factor
            )
            if capable and self.rng.random() < p_stop:
                self.stats.stopped_probabilistically += 1
                break
            if self.tracer is not None:
                self._trace_push(job, current, target_id, dim, hop=hops)
            current = target_id
            visited.add(current)
            hops += 1
        else:
            # Hop budget exhausted under continuous pushing: last resort.
            capable = self._capable_candidates(current, job)
        # Place on the least-loaded capable candidate, falling back to an
        # expanding-ring search of the satisfying region when none was met.
        chosen = self._select_min_score(capable, job)
        if chosen is None:
            chosen = self._fallback(origin, job)
        return self._record_placement(
            chosen, job, hops, score=self._score_of(chosen, job)
        )

    def _fallback(self, origin: int, job: Job) -> Optional[GridNode]:
        """Sweep the satisfying region when the push walk met no capable node.

        Every node satisfying a job is reachable from the owner of the
        job's coordinate by hops that only ever cross zone faces toward
        *higher* coordinates (the straight line from the coordinate to the
        node's coordinate passes through a monotone staircase of zones), so
        the sweep follows the ``+dim`` corridors of :meth:`_neighborhood`
        alone.  It is rare, but real for scarce multi-CE machines.
        """
        self.stats.fallback_searches += 1
        capable = ring_search(
            self.grid_nodes, origin, job, self._corridor_ids, budget=256
        )
        if not capable:
            return None
        startable = self._select_startable(capable, job)
        if startable is not None:
            return startable
        return self._select_min_score(capable, job)

    # -- steps --------------------------------------------------------------------
    def _neighborhood(
        self, node_id: int
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """``node_id``'s local candidate ids and outward corridor.

        The candidates are the node itself, then its alive neighbors by
        id; the corridor lists ``(dim, neighbor id)`` for every alive
        neighbor across a ``+dim`` face, by dimension, then id.  Both
        derive from the overlay alone and are built once per
        ``overlay.topology_version``, which liveness flips advance too.
        """
        overlay = self.overlay
        if self._hoods_version != overlay.topology_version:
            self._hoods_version = overlay.topology_version
            self._hoods = {}
        hood = self._hoods.get(node_id)
        if hood is None:
            alive = overlay.is_alive
            candidates = [node_id] + sorted(
                nid for nid in overlay.neighbors(node_id) if alive(nid)
            )
            corridor = [
                (dim, nid)
                for dim in range(overlay.space.dims)
                for nid in sorted(overlay.neighbors_along(node_id, dim, +1))
                if alive(nid)
            ]
            hood = self._hoods[node_id] = (candidates, corridor)
        return hood

    def _capable_candidates(self, node_id: int, job: Job) -> List[GridNode]:
        get = self.grid_nodes.get
        return [
            node
            for nid in self._neighborhood(node_id)[0]
            if (node := get(nid)) is not None and node.capable(job)
        ]

    def _choose_push_target(
        self, node_id: int, visited: set, slot: Optional[str]
    ) -> Optional[Tuple[int, int]]:
        """Algorithm 1 line 11: minimise Equation 3 over (neighbor, dim).

        Dimensions owned by the steering slot expose the per-slot
        aggregate fields; other dimensions only carry pooled fields (that
        is all their heartbeat aggregates contain).
        """
        best: Optional[Tuple[int, int]] = None
        best_key: Tuple[int, float] = (2, math.inf)
        dimensions = self.overlay.space.dimensions
        grid, advertised = self.grid_nodes, self.aggregation.advertised
        for dim, nid in self._neighborhood(node_id)[1]:
            if nid in visited or nid not in grid:
                continue
            slot_dim = slot is not None and dimensions[dim].slot == slot
            obj = push_objective(advertised(nid, dim), use_slot_fields=slot_dim)
            if math.isinf(obj):
                continue
            # Prefer steering-slot dimensions: their aggregates speak
            # directly about the CE the job's runtime depends on.
            key = (0 if slot_dim else 1, obj)
            if key < best_key:
                best_key = key
                best = (nid, dim)
        return best

    def _corridor_ids(self, node_id: int) -> List[int]:
        """Ids across ``node_id``'s ``+dim`` faces, by dimension, then id."""
        return [nid for _, nid in self._neighborhood(node_id)[1]]


def ring_search(
    grid_nodes: Dict[int, GridNode],
    origin_id: int,
    job: Job,
    adjacent: Callable[[int], Iterable[int]],
    budget: int,
) -> List[GridNode]:
    """Breadth-first flood from ``origin_id``; the live capable nodes met.

    ``adjacent(node_id)`` lists the ids a node expands to, in queue order.
    Nodes are examined in discovery order and the alive ones able to run
    ``job`` are returned in that order; ids missing from ``grid_nodes``
    are crossed but never returned.  ``budget`` counts *discovered* ids,
    the origin included, not examined ones: the search stops once more
    than ``budget`` were discovered, so the expansion that crosses it
    queues ids that are never examined.

    The matchmaker's fallback passes the ``+dim`` corridor
    (:meth:`CanMatchmaker._fallback`).  The recovery path's degraded-mode
    search passes every zone adjacency: dead or unclaimed zones are
    crossed but never selected (neighbor-of-neighbor knowledge from
    stored tables), and its origin is usually dead — it owned the crashed
    job's coordinate.
    """
    seen = {origin_id}
    queue = deque([origin_id])
    capable: List[GridNode] = []
    while queue and len(seen) <= budget:
        current = queue.popleft()
        node = grid_nodes.get(current)
        if node is not None and node.alive and node.capable(job):
            capable.append(node)
        for nid in adjacent(current):
            if nid not in seen:
                seen.add(nid)
                queue.append(nid)
    return capable


def fastest_dominant_clock(nodes: Iterable[GridNode], job: Job) -> GridNode:
    """Pick the node with the fastest clock for the job's dominant CE.

    Ties break on node id for determinism.
    """
    candidates = list(nodes)
    if not candidates:
        raise ValueError("empty candidate set")
    return min(candidates, key=lambda n: (-n.dominant_clock(job), n.node_id))
