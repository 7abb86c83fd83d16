"""Matchmaker interface and shared selection helpers."""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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
]

#: a push stops after this many hops however the scores read
MAX_PUSH_HOPS = 64
#: the fallback sweep stops once it has discovered more ids than this
FALLBACK_BUDGET = 256
#: capability table columns per CE slot: clock, memory, disk, cores
_CAPS = 4


class _Hood(NamedTuple):
    """A node's local candidates and outward corridor, as array positions.

    ``rows`` are the candidates' rows in the matchmaker's capability table;
    ``corridor``/``dims`` list the ``(neighbor id, dimension)`` pairs across
    the node's ``+dim`` faces, and ``present`` says which of those ids
    ``grid_nodes`` held when the hood was built.
    """

    rows: np.ndarray
    corridor: List[int]
    dims: np.ndarray
    present: np.ndarray


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

    def attach_tracer(self, tracer, clock) -> None:
        """Wire a :class:`repro.obs.Tracer` plus a ``() -> now`` clock."""
        self.tracer = tracer
        self.clock = clock

    def _t(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _trace_push(self, job: Job, frm: int, to: int, dim: int, hop: int) -> None:
        self.tracer.emit(
            self._t(), "mm.push", job=job.job_id, frm=frm, to=to, dim=dim, hop=hop
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
       Equation 3 objective, stop probabilistically per Equation 4 (its
       SF is ``stopping_factor``, which runs take from
       ``MatchmakingConfig``); on stop, place on the minimum-score
       candidate; otherwise push.

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
        stopping_factor: float,
    ):
        super().__init__()
        self.overlay = overlay
        self.grid_nodes = grid_nodes
        self.aggregation = aggregation
        self.rng = rng
        self.stopping_factor = stopping_factor
        # node id -> its _Hood at _hoods_version
        self._hoods: Dict[int, _Hood] = {}
        self._hoods_version = -1
        # Capability table, rebuilt with the hoods: per ``grid_nodes`` entry
        # (clock, memory, disk, cores) of each CE slot, -1 where the node
        # lacks the slot; the last row stands for an id missing from
        # ``grid_nodes`` and reads -1 throughout.
        self._caps = np.empty((0, 0))
        self._cap_nodes: List[Optional[GridNode]] = []
        self._cap_row: Dict[int, int] = {}
        self._cap_col: Dict[str, int] = {}
        # the last job's capability thresholds, against the current table
        self._threshold_of: Tuple[Optional[Job], Optional[np.ndarray]] = (None, None)
        # steering slot -> which dimensions it owns
        self._slot_dims: Dict[Optional[str], np.ndarray] = {}

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
        for _ in range(MAX_PUSH_HOPS):
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

        The sweep is breadth-first and examines nodes in discovery order;
        ids missing from ``grid_nodes`` are crossed but never chosen.
        :data:`FALLBACK_BUDGET` counts *discovered* ids, the origin
        included: the sweep stops once more were discovered, so the
        expansion that crosses it queues ids that are never examined.
        """
        self.stats.fallback_searches += 1
        seen = {origin}
        queue = deque([origin])
        capable: List[GridNode] = []
        while queue and len(seen) <= FALLBACK_BUDGET:
            current = queue.popleft()
            node = self.grid_nodes.get(current)
            if node is not None and node.alive and node.capable(job):
                capable.append(node)
            for nid in self._neighborhood(current).corridor:
                if nid not in seen:
                    seen.add(nid)
                    queue.append(nid)
        if not capable:
            return None
        startable = self._select_startable(capable, job)
        if startable is not None:
            return startable
        return self._select_min_score(capable, job)

    # -- steps --------------------------------------------------------------------
    def _neighborhood(self, node_id: int) -> _Hood:
        """``node_id``'s local candidates and outward corridor.

        The candidates are the node itself, then its alive neighbors by
        id; the corridor lists ``(dim, neighbor id)`` for every alive
        neighbor across a ``+dim`` face, by dimension, then id.  Both
        derive from the overlay alone and are built once per
        ``overlay.topology_version``, which liveness flips advance too;
        the capability table is rebuilt with them.
        """
        overlay = self.overlay
        if self._hoods_version != overlay.topology_version:
            self._hoods_version = overlay.topology_version
            self._hoods = {}
            self._build_capabilities()
        hood = self._hoods.get(node_id)
        if hood is None:
            alive = overlay.is_alive
            row, missing = self._cap_row, len(self._cap_nodes) - 1
            candidates = [node_id] + sorted(
                nid for nid in overlay.neighbors(node_id) if alive(nid)
            )
            corridor = [
                (dim, nid)
                for dim in range(overlay.space.dims)
                for nid in sorted(overlay.neighbors_along(node_id, dim))
                if alive(nid)
            ]
            hood = self._hoods[node_id] = _Hood(
                np.array([row.get(nid, missing) for nid in candidates], dtype=np.intp),
                [nid for _, nid in corridor],
                np.array([dim for dim, _ in corridor], dtype=np.intp),
                np.array([nid in row for _, nid in corridor], dtype=bool),
            )
        return hood

    def _build_capabilities(self) -> None:
        """Tabulate every ``grid_nodes`` entry's CE capabilities.

        Rebuilt on every topology change: a crash pops ``grid_nodes``
        entries and a join may bring an id back with another CE set.
        """
        entries = list(self.grid_nodes.items())
        slots = sorted({slot for _, node in entries for slot in node.ces})
        col = {slot: k * _CAPS for k, slot in enumerate(slots)}
        width = _CAPS * len(slots)
        flat = [-1.0] * (width * (len(entries) + 1))
        for r, (_, node) in enumerate(entries):
            base = r * width
            for slot, ce in node.ces.items():
                spec = ce.spec
                at = base + col[slot]
                flat[at : at + _CAPS] = (spec.clock, spec.memory, spec.disk, spec.cores)
        self._caps = np.array(flat, dtype=np.float64).reshape(-1, width)
        self._cap_nodes = [node for _, node in entries] + [None]
        self._cap_row = {nid: r for r, (nid, _) in enumerate(entries)}
        self._cap_col = col
        self._threshold_of = (None, None)

    def _threshold(self, job: Job) -> Optional[np.ndarray]:
        """The job's capability row: a table row qualifies iff it is ``>=``.

        Required slots read (clock, memory, disk, cores) and the rest
        ``-inf``; ``None`` when the job requires a slot no node has.
        """
        cached_job, threshold = self._threshold_of
        if cached_job is job:
            return threshold
        threshold = np.full(self._caps.shape[1], -np.inf)
        for slot, req in job.requirements.items():
            at = self._cap_col.get(slot)
            if at is None:
                threshold = None
                break
            threshold[at : at + _CAPS] = (req.clock, req.memory, req.disk, req.cores)
        self._threshold_of = (job, threshold)
        return threshold

    def _capable_candidates(self, node_id: int, job: Job) -> List[GridNode]:
        """The hood's candidates able to run ``job``, in candidate order."""
        rows = self._neighborhood(node_id).rows
        threshold = self._threshold(job)
        if threshold is None:
            return []
        nodes = self._cap_nodes
        ok = (self._caps.take(rows, axis=0) >= threshold).all(1)
        return [nodes[r] for r in rows[ok].tolist()]

    def _choose_push_target(
        self, node_id: int, visited: set, slot: Optional[str]
    ) -> Optional[Tuple[int, int]]:
        """Algorithm 1 line 11: minimise Equation 3 over (neighbor, dim).

        Dimensions owned by the steering slot expose the per-slot
        aggregate fields; other dimensions only carry pooled fields (that
        is all their heartbeat aggregates contain).  The objective is
        evaluated for the whole corridor at once; entries visited, missing
        from ``grid_nodes`` or without cores (``inf``) are out.  The
        steering slot's dimensions are preferred, since their aggregates
        speak directly about the CE the job's runtime depends on; within
        each group the first minimum wins.
        """
        hood = self._neighborhood(node_id)
        corridor = hood.corridor
        if not corridor:
            return None
        on_slot = self._dims_of(slot)[hood.dims]
        objective = push_objective(
            self.aggregation.advertised_along(corridor, hood.dims), on_slot
        )
        # an entry out of the running reads inf, and every other is finite
        objective[~hood.present] = np.inf
        objective[[nid in visited for nid in corridor]] = np.inf
        for group in (on_slot, ~on_slot):
            candidates = np.where(group, objective, np.inf)
            best = int(np.argmin(candidates))
            if candidates[best] < np.inf:
                return corridor[best], int(hood.dims[best])
        return None

    def _dims_of(self, slot: Optional[str]) -> np.ndarray:
        """Per dimension: is it owned by the steering ``slot``?"""
        mask = self._slot_dims.get(slot)
        if mask is None:
            dimensions = self.overlay.space.dimensions
            mask = self._slot_dims[slot] = np.array(
                [slot is not None and d.slot == slot for d in dimensions], dtype=bool
            )
        return mask


def fastest_dominant_clock(nodes: Iterable[GridNode], job: Job) -> GridNode:
    """Pick the node with the fastest clock for the job's dominant CE.

    Ties break on node id for determinism.
    """
    candidates = list(nodes)
    if not candidates:
        raise ValueError("empty candidate set")
    return min(candidates, key=lambda n: (-n.dominant_clock(job), n.node_id))
