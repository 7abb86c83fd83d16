"""Chord key routing: O(log n) clockwise descent over fingers.

Ground-truth routing (:func:`chord_route`) mirrors the role of
:func:`repro.can.routing.route`: place a lookup at the node owning a
resource-space point, measuring path lengths on the authoritative
structure.  Believed-state routing (:func:`chord_route_on_beliefs`) runs
the same descent over what each hop's *maintenance-protocol state*
believes its successors and fingers are — broken beliefs strand lookups,
turning fig7's broken-link counts into undeliverable messages, exactly as
the CAN belief router does.

The forwarding rule is classic Chord: from ``current``, jump to the known
peer that lies farthest clockwise *without passing the target key* (the
closest preceding node); when no known peer precedes the target, the
target lies in ``(current, successor]``, so the final hop is the first
alive successor — in a consistent ring that is the owner.  The clockwise
distance to the target strictly decreases on preceding-node hops and the
final hop is taken at most once consecutively, so routing terminates.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..can.routing import BeliefRouteResult
from .keyspace import RING_SIZE
from .ring import ChordError, ChordRing

__all__ = ["chord_route", "chord_route_on_beliefs"]


def _walk(
    target: int,
    owner: int,
    start_id: int,
    start_key: int,
    peers: Callable[[int], Tuple[int, ...]],
    successors: Callable[[int], Tuple[int, ...]],
    key_of: Callable[[int], int],
    alive: Callable[[int], bool],
    max_hops: int,
) -> Tuple[List[int], bool]:
    """Shared descent; returns (path, delivered)."""
    current = start_id
    current_key = start_key
    path = [current]
    distance = (target - current_key) % RING_SIZE
    for _ in range(max_hops):
        if current == owner:
            return path, True
        # closest preceding peer: minimal clockwise distance to the target
        # among peers that do not overshoot it
        best_id: Optional[int] = None
        best_distance = distance
        for nid in peers(current):
            if not alive(nid):
                continue  # forwarding to a ghost loses the message
            d = (target - key_of(nid)) % RING_SIZE
            if d < best_distance:
                best_distance = d
                best_id = nid
        if best_id is None:
            # nobody known precedes the target: it lies in
            # (current, successor], so hand to the first alive successor
            final = None
            for nid in successors(current):
                if alive(nid):
                    final = nid
                    break
            if final is None:
                return path, False
            path.append(final)
            if final == owner:
                return path, True
            best_distance = (target - key_of(final)) % RING_SIZE
            if best_distance >= distance:
                # overshot the target onto a non-owner: the owner is a
                # ghost or hidden by broken beliefs — undeliverable
                return path, False
            best_id = final
            current = best_id
            distance = best_distance
            continue
        current = best_id
        distance = best_distance
        path.append(current)
    return path, False


def chord_route(
    overlay: ChordRing,
    start_id: int,
    point: Sequence[float],
    max_hops: int = 10_000,
) -> List[int]:
    """Path of node ids from ``start_id`` to the owner of ``point``.

    Hops only through alive members (dead fingers are skipped, as the CAN
    router skips dead zone neighbors); raises :class:`ChordError` when the
    walk cannot progress — e.g. the owner is an unclaimed ghost.
    """
    target = overlay.keyspace.point_key(tuple(float(p) for p in point))
    owner = overlay.successor_of_key(target)
    path, delivered = _walk(
        target,
        owner,
        start_id,
        overlay.key_of(start_id),
        peers=lambda nid: overlay.neighbors(nid),
        successors=lambda nid: overlay.successor_list(nid),
        key_of=overlay.key_of,
        alive=overlay.is_alive,
        max_hops=max_hops,
    )
    if not delivered:
        raise ChordError(
            f"no progress from node {path[-1]} toward key {target}"
        )
    return path


def chord_route_on_beliefs(
    protocol,
    start_id: int,
    point: Sequence[float],
    max_hops: int = 10_000,
) -> BeliefRouteResult:
    """Route using only each hop's believed successor/finger peers.

    ``protocol`` is a :class:`~repro.chord.protocol
    .ChordMaintenanceProtocol`; delivery means reaching the *ground-truth*
    owner of the point.  Messages to dead peers are lost (the hop is
    unusable) and peers missing from beliefs are invisible — a stuck walk
    reports ``delivered=False``.
    """
    overlay = protocol.overlay
    target = overlay.keyspace.point_key(tuple(float(p) for p in point))
    owner = overlay.successor_of_key(target)

    def peers(nid: int) -> Tuple[int, ...]:
        return protocol.believed_peers(nid) if nid in protocol.nodes else ()

    def successors(nid: int) -> Tuple[int, ...]:
        return protocol.believed_successors(nid) if nid in protocol.nodes else ()

    path, delivered = _walk(
        target,
        owner,
        start_id,
        overlay.key_of(start_id),
        peers=peers,
        successors=successors,
        key_of=protocol.key_of,
        alive=overlay.is_alive,
        max_hops=max_hops,
    )
    return BeliefRouteResult(path, delivered)
