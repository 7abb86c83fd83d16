"""Greedy CAN routing.

A message routes toward a target coordinate by repeatedly forwarding to the
neighbor whose zone is closest to the target, until the current node's zone
contains it.  Distance from a point to an axis-aligned box is the Euclidean
norm of the per-axis clamp residuals, which strictly decreases along a
greedy path in a partitioned space — so routing terminates.

The matchmaking experiments use :func:`route` both to place a job at its
coordinate (Algorithm 1, line 1) and to measure routing path lengths.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..overlay.base import SubstrateError
from .geometry import Zone
from .overlay import CanOverlay

__all__ = [
    "zone_distance",
    "route",
    "route_on_beliefs",
    "BeliefRouteResult",
    "RoutingError",
]

#: a walk that has not arrived after this many hops is stuck in a loop
MAX_HOPS = 10_000


class RoutingError(SubstrateError):
    """Greedy routing failed to make progress (should not happen in a
    consistent overlay; indicates a partition violation).

    A :class:`~repro.overlay.SubstrateError`, like Chord's
    :class:`~repro.chord.ring.ChordError` — substrate-generic callers
    catch the shared base instead of per-substrate types."""


def zone_distance(zone: Zone, point: Sequence[float]) -> float:
    """Euclidean distance from ``point`` to the closest point of ``zone``."""
    if len(point) != zone.dims:
        raise ValueError("dimensionality mismatch")
    total = 0.0
    for p, lo, hi in zip(point, zone.lo, zone.hi):
        if p < lo:
            total += (lo - p) ** 2
        elif p > hi:
            total += (p - hi) ** 2
    return math.sqrt(total)


def _node_distance(overlay: CanOverlay, node_id: int, point: Tuple[float, ...]) -> float:
    return min(zone_distance(z, point) for z in overlay.zones_of(node_id))


def route(
    overlay: CanOverlay,
    start_id: int,
    point: Sequence[float],
) -> List[int]:
    """Greedy path of node ids from ``start_id`` to the owner of ``point``."""
    point = tuple(float(p) for p in point)
    current = start_id
    path = [current]
    current_dist = _node_distance(overlay, current, point)
    for _ in range(MAX_HOPS):
        if any(z.contains_closed(point) for z in overlay.zones_of(current)):
            return path
        best_id = None
        best_dist = current_dist
        for nid in overlay.neighbors(current):
            if not overlay.is_alive(nid):
                continue
            d = _node_distance(overlay, nid, point)
            if d < best_dist or (d == best_dist and best_id is None and d < current_dist):
                best_dist = d
                best_id = nid
        if best_id is None:
            raise RoutingError(
                f"no progress from node {current} toward {point}"
            )
        current = best_id
        current_dist = best_dist
        path.append(current)
    raise RoutingError(f"exceeded {MAX_HOPS} hops")


class BeliefRouteResult:
    """Outcome of routing over *believed* neighbor tables.

    ``delivered`` is False when the greedy walk got stuck — typically
    because a broken link hid the neighbor that would have made progress.
    This turns the abstract broken-link count of Figure 7 into its concrete
    consequence: undeliverable messages.
    """

    __slots__ = ("path", "delivered", "stuck_at")

    def __init__(self, path: List[int], delivered: bool):
        self.path = path
        self.delivered = delivered
        self.stuck_at = None if delivered else path[-1]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "delivered" if self.delivered else f"stuck@{self.stuck_at}"
        return f"<BeliefRoute {state} hops={self.hops}>"


def route_on_beliefs(
    protocol,
    start_id: int,
    point: Sequence[float],
) -> BeliefRouteResult:
    """Greedy-route using only what each node *believes* about its neighbors.

    Unlike :func:`route` (which reads ground truth), every forwarding
    decision here uses the current hop's believed neighbor records — zones
    as last advertised.  Messages to dead nodes are lost (the walk treats
    the hop as unusable); missing neighbors are simply invisible.

    ``protocol`` is a :class:`~repro.can.heartbeat.HeartbeatProtocol`.
    """
    overlay = protocol.overlay
    point = tuple(float(p) for p in point)
    current = start_id
    path = [current]
    current_dist = _node_distance(overlay, current, point)
    for _ in range(MAX_HOPS):
        if any(z.contains_closed(point) for z in overlay.zones_of(current)):
            return BeliefRouteResult(path, delivered=True)
        pnode = protocol.nodes.get(current)
        if pnode is None:
            return BeliefRouteResult(path, delivered=False)
        best_id = None
        best_dist = current_dist
        for rec in pnode.table.records():
            if not overlay.is_alive(rec.node_id):
                continue  # forwarding to a ghost loses the message
            d = min(zone_distance(z, point) for z in rec.zones)
            if d < best_dist:
                best_dist = d
                best_id = rec.node_id
        if best_id is None:
            return BeliefRouteResult(path, delivered=False)
        current = best_id
        current_dist = _node_distance(overlay, current, point)
        path.append(current)
    return BeliefRouteResult(path, delivered=False)
