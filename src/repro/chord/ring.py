"""Authoritative Chord ring: membership, key ownership, successor structure.

This is the ground-truth rival of :class:`~repro.can.overlay.CanOverlay`
behind the :class:`~repro.overlay.OverlaySubstrate` protocol.  Nodes sit on
a ``2**64`` key ring at the Morton key of their resource coordinate
(:mod:`repro.chord.keyspace`); a node *owns* the arc between its
predecessor's key (exclusive) and its own key (inclusive), so
``locate_owner(point)`` is the successor of the point's key — the exact
ring analogue of CAN's containing-leaf lookup.

Failure handling mirrors CAN's two-phase model: :meth:`fail` marks a member
dead while its arc lingers with the ghost (``locate_owner`` may return a
dead node until believers time it out), and :meth:`claim_zones` executes
the take-over — removal from the ring, which merges the vacated arc into
its successor.

The routing structure is Chord's: ``SUCCESSOR_LIST_SIZE`` ring successors
per node plus a full finger table, one finger per exponent ``e`` of the
``2**64`` ring (finger ``e`` points at ``successor(key + 2**e)``).
``neighbors`` exposes predecessor + successor list + fingers;
``neighbors_along(dim)`` keeps those above the node's own coordinate along
one resource dimension, which is what the directional aggregation flow and
the matchmakers' push scopes consume.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..overlay.base import SubstrateError
from .keyspace import RING_BITS, RING_SIZE, ChordKeyspace

__all__ = ["ChordRing", "ChordError", "ChordJoinResult", "ArcTransfer"]

#: ring successors each node keeps (its successor list)
SUCCESSOR_LIST_SIZE = 4
#: finger exponents, highest spans first: one per ring bit (the low ones'
#: targets are mostly in the successor list already)
FINGER_EXPONENTS: Tuple[int, ...] = tuple(range(RING_BITS - 1, -1, -1))
#: members whose derived structure ``check_invariants`` rescans
_DERIVED_SAMPLE = 8


class ChordError(SubstrateError):
    """Structural ring violation (bad join, unknown member, ...)."""


@dataclass(frozen=True)
class ChordJoinResult:
    """What happened during a join: the key and the prior arc owner."""

    node_id: int
    splitter_id: Optional[int]  # prior owner of the newcomer's arc; None for bootstrap
    key: int


@dataclass(frozen=True)
class ArcTransfer:
    """One arc hand-off produced by a leave or a post-failure claim."""

    lo_key: int  # exclusive
    hi_key: int  # inclusive
    from_node: int
    to_node: int


@dataclass
class ChordMember:
    node_id: int
    coord: Tuple[float, ...]
    key: int
    alive: bool = True


class ChordRing:
    """Ground-truth Chord: sorted key ring + membership + derived structure."""

    def __init__(self, space):
        self.space = space
        self.keyspace = ChordKeyspace(space.dims)
        #: ``SUCCESSOR_LIST_SIZE`` when the ring was built
        self.successor_list_size = SUCCESSOR_LIST_SIZE
        self.members: Dict[int, ChordMember] = {}
        self._ring: List[int] = []  # sorted member keys
        self._by_key: Dict[int, int] = {}
        #: bumped on every structural change; caches key off it
        self.topology_version: int = 0
        # lazy derived-structure caches, all invalidated by a version bump
        self._cache_version: int = -1
        self._nbr_cache: Dict[int, Set[int]] = {}
        self._dir_cache: Dict[int, Dict[int, Set[int]]] = {}
        self._succ_cache: Dict[int, Tuple[int, ...]] = {}
        self._finger_cache: Dict[int, Tuple[int, ...]] = {}
        self._links: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------ queries --
    @property
    def size(self) -> int:
        """Number of members, dead-but-unclaimed included."""
        return len(self.members)

    def alive_ids(self) -> List[int]:
        return [m.node_id for m in self.members.values() if m.alive]

    def dead_ids(self) -> Set[int]:
        """Members still holding arcs but no longer alive."""
        return {m.node_id for m in self.members.values() if not m.alive}

    def is_alive(self, node_id: int) -> bool:
        member = self.members.get(node_id)
        return member is not None and member.alive

    def coordinate(self, node_id: int) -> Tuple[float, ...]:
        return self._member(node_id).coord

    def key_of(self, node_id: int) -> int:
        return self._member(node_id).key

    # -- ring order ---------------------------------------------------------
    def _succ_index(self, key: int) -> int:
        """Index in ``_ring`` of the first member key >= ``key`` (wrapped)."""
        i = bisect_left(self._ring, key)
        return 0 if i == len(self._ring) else i

    def successor_of_key(self, key: int) -> int:
        """The member owning ``key``: the first node at or after it."""
        if not self._ring:
            raise ChordError("overlay is empty")
        return self._by_key[self._ring[self._succ_index(key)]]

    def locate_owner(self, point: Sequence[float]) -> int:
        """Owner of a resource-space point (dead ghosts included)."""
        return self.successor_of_key(self.keyspace.point_key(point))

    def successor_list(self, node_id: int) -> Tuple[int, ...]:
        """The next ``successor_list_size`` members clockwise (dead included)."""
        self._fresh_caches()
        cached = self._succ_cache.get(node_id)
        if cached is not None:
            return cached
        member = self._member(node_id)
        n = len(self._ring)
        count = min(self.successor_list_size, n - 1)
        start = bisect_left(self._ring, member.key)
        succ = tuple(
            self._by_key[self._ring[(start + 1 + j) % n]] for j in range(count)
        )
        self._succ_cache[node_id] = succ
        return succ

    def live_links(self) -> Dict[int, Tuple[int, ...]]:
        """Every alive member's correctness-critical links — its alive
        successors, then its predecessor if alive and not among them —
        built in one walk of the key order, kept until the next change."""
        self._fresh_caches()
        if self._links is None:
            ids = [self._by_key[key] for key in self._ring]
            alive = [self.members[nid].alive for nid in ids]
            n = len(ids)
            span = min(self.successor_list_size, n - 1)
            ring_ids, ring_alive = ids + ids[:span], alive + alive[:span]  # no wrap
            links = self._links = {}
            for i, node_id in enumerate(ids):
                if not alive[i]:
                    continue
                mine = [
                    ring_ids[j] for j in range(i + 1, i + 1 + span) if ring_alive[j]
                ]
                if n > 1 and alive[i - 1] and ids[i - 1] not in mine:
                    mine.append(ids[i - 1])
                links[node_id] = tuple(mine)
        return self._links

    def predecessor(self, node_id: int) -> Optional[int]:
        member = self._member(node_id)
        n = len(self._ring)
        if n < 2:
            return None
        i = bisect_left(self._ring, member.key)
        return self._by_key[self._ring[(i - 1) % n]]

    def fingers(self, node_id: int) -> Tuple[int, ...]:
        """Finger targets: ``successor(key + 2**e)`` per exponent (deduped,
        self excluded, ring order of exponents preserved)."""
        self._fresh_caches()
        cached = self._finger_cache.get(node_id)
        if cached is not None:
            return cached
        member = self._member(node_id)
        seen: Set[int] = {node_id}
        out: List[int] = []
        for e in FINGER_EXPONENTS:
            target = self.successor_of_key((member.key + (1 << e)) % RING_SIZE)
            if target not in seen:
                seen.add(target)
                out.append(target)
        fingers = tuple(out)
        self._finger_cache[node_id] = fingers
        return fingers

    def neighbors(self, node_id: int) -> Set[int]:
        """Ground-truth routing neighbors: predecessor + successor list +
        fingers (liveness not filtered, as in the CAN overlay)."""
        self._fresh_caches()
        cached = self._nbr_cache.get(node_id)
        if cached is not None:
            return set(cached)
        nbrs: Set[int] = set(self.successor_list(node_id))
        pred = self.predecessor(node_id)
        if pred is not None:
            nbrs.add(pred)
        nbrs.update(self.fingers(node_id))
        nbrs.discard(node_id)
        self._nbr_cache[node_id] = nbrs
        return set(nbrs)

    def neighbors_along(self, node_id: int, dim: int) -> Set[int]:
        """Ring neighbors whose coordinate lies above this node's along
        resource dimension ``dim`` (ties excluded, like a CAN face crossing)."""
        self._fresh_caches()
        per_node = self._dir_cache.get(node_id)
        if per_node is None:
            per_node = self._dir_cache[node_id] = {}
        cached = per_node.get(dim)
        if cached is None:
            own = self._member(node_id).coord[dim]
            members = self.members
            cached = per_node[dim] = {
                nid for nid in self.neighbors(node_id) if members[nid].coord[dim] > own
            }
        return set(cached)

    def takeover_targets(
        self, node_id: int, dead: Optional[Set[int]] = None
    ) -> Set[int]:
        """Who would absorb this node's arc if it vanished right now: its
        first non-dead successor (what the node computes locally from its
        successor list)."""
        member = self._member(node_id)
        dead_now = self.dead_ids() if dead is None else dead
        n = len(self._ring)
        start = bisect_left(self._ring, member.key)
        for j in range(1, n):
            candidate = self._by_key[self._ring[(start + j) % n]]
            if candidate != node_id and candidate not in dead_now:
                return {candidate}
        return set()

    # ------------------------------------------------------------------ mutation --
    def _bump(self) -> None:
        self.topology_version += 1

    def _fresh_caches(self) -> None:
        if self._cache_version != self.topology_version:
            self._cache_version = self.topology_version
            self._nbr_cache = {}
            self._dir_cache = {}
            self._succ_cache = {}
            self._finger_cache = {}
            self._links = None

    def add_node(self, node_id: int, coord: Sequence[float]) -> ChordJoinResult:
        """Bootstrap (first member) or join by taking over part of an arc."""
        coord = tuple(float(c) for c in coord)
        if len(coord) != self.space.dims:
            raise ChordError(
                f"coordinate has {len(coord)} dims, space has {self.space.dims}"
            )
        if node_id in self.members:
            raise ChordError(f"node {node_id} already present")
        key = self.keyspace.node_key(node_id, coord)
        while key in self._by_key:
            key = (key + 1) % RING_SIZE  # deterministic collision probe
        if not self._ring:
            self.members[node_id] = ChordMember(node_id, coord, key)
            self._by_key[key] = node_id
            self._ring.append(key)
            self._bump()
            return ChordJoinResult(node_id, None, key)
        splitter_id = self.successor_of_key(key)
        if not self.members[splitter_id].alive:
            raise ChordError(
                f"join arc owned by dead node {splitter_id}; "
                "retry after the arc is claimed"
            )
        self.members[node_id] = ChordMember(node_id, coord, key)
        self._by_key[key] = node_id
        insort(self._ring, key)
        self._bump()
        return ChordJoinResult(node_id, splitter_id, key)

    def graceful_leave(self, node_id: int) -> List[ArcTransfer]:
        """Voluntary departure: the arc hands off to the successor at once."""
        member = self._member(node_id)
        if not member.alive:
            raise ChordError(f"node {node_id} already failed")
        return self._remove(member)

    def fail(self, node_id: int) -> None:
        """Silent crash: the arc stays registered to the ghost until claimed."""
        member = self._member(node_id)
        if not member.alive:
            raise ChordError(f"node {node_id} already failed")
        member.alive = False
        self._bump()

    def claim_zones(self, dead_id: int) -> List[ArcTransfer]:
        """Execute the take-over for a detected failure: ring removal, which
        merges the vacated arc into its successor."""
        member = self._member(dead_id)
        if member.alive:
            raise ChordError(f"node {dead_id} has not failed")
        return self._remove(member)

    def _remove(self, member: ChordMember) -> List[ArcTransfer]:
        n = len(self._ring)
        i = bisect_left(self._ring, member.key)
        transfers: List[ArcTransfer] = []
        if n > 1:
            pred_key = self._ring[(i - 1) % n]
            heir = self._by_key[self._ring[(i + 1) % n]]
            transfers.append(
                ArcTransfer(pred_key, member.key, member.node_id, heir)
            )
        # Last member standing: the arc simply disappears with it.
        del self._ring[i]
        del self._by_key[member.key]
        del self.members[member.node_id]
        self._bump()
        return transfers

    # ------------------------------------------------------------------ invariants --
    def check_invariants(self) -> None:
        """Ring order + key bijection + full-ring arc coverage + derived
        structure spot checks (the ring analogue of CAN's zone-partition
        audit).  Raises ``AssertionError`` on violation."""
        keys = self._ring
        if len(keys) != len(self.members) or len(keys) != len(self._by_key):
            raise AssertionError(
                f"ring desync: {len(keys)} keys, {len(self.members)} members, "
                f"{len(self._by_key)} key map entries"
            )
        for a, b in zip(keys, keys[1:]):
            if a >= b:
                raise AssertionError(f"ring keys not strictly sorted: {a} >= {b}")
        # independent recompute of the sorted order from the member records
        expected = sorted(m.key for m in self.members.values())
        if keys != expected:
            raise AssertionError("ring order desynced from member keys")
        for member in self.members.values():
            if not 0 <= member.key < RING_SIZE:
                raise AssertionError(f"key out of range: {member.key}")
            if self._by_key.get(member.key) != member.node_id:
                raise AssertionError(
                    f"key map desync for node {member.node_id}"
                )
        # full coverage: the arcs (pred, self] partition the whole ring
        if len(keys) > 1:
            covered = sum(
                (keys[i] - keys[i - 1]) % RING_SIZE for i in range(len(keys))
            )
            if covered != RING_SIZE:
                raise AssertionError(
                    f"arcs cover {covered} of {RING_SIZE} ring positions"
                )
        self._check_derived_sample()

    def _check_derived_sample(self) -> None:
        """Verify successor lists, predecessors and fingers for a sample of
        members by independent linear scan (not the bisect fast path)."""
        if not self.members:
            return
        ordered = sorted(
            self.members.values(), key=lambda m: m.key
        )  # independent of _ring
        n = len(ordered)
        index_of = {m.node_id: i for i, m in enumerate(ordered)}
        for member in sorted(self.members.values(), key=lambda m: m.node_id)[
            :_DERIVED_SAMPLE
        ]:
            i = index_of[member.node_id]
            count = min(self.successor_list_size, n - 1)
            expect_succ = tuple(
                ordered[(i + 1 + j) % n].node_id for j in range(count)
            )
            if self.successor_list(member.node_id) != expect_succ:
                raise AssertionError(
                    f"successor list of {member.node_id} desynced"
                )
            expect_pred = ordered[(i - 1) % n].node_id if n > 1 else None
            if self.predecessor(member.node_id) != expect_pred:
                raise AssertionError(f"predecessor of {member.node_id} desynced")
            for e in FINGER_EXPONENTS:
                start = (member.key + (1 << e)) % RING_SIZE
                # independent linear scan: the member at minimal clockwise
                # distance from the finger start
                expect = min(
                    ordered, key=lambda m: (m.key - start) % RING_SIZE
                ).node_id
                if self.successor_of_key(start) != expect:
                    raise AssertionError(
                        f"finger 2**{e} of {member.node_id} desynced"
                    )

    def _member(self, node_id: int) -> ChordMember:
        member = self.members.get(node_id)
        if member is None:
            raise ChordError(f"unknown node {node_id}")
        return member
