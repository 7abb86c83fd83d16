"""Multi-attribute range queries over the Chord ring.

The Morton key mapping (:mod:`repro.chord.keyspace`) makes an axis-aligned
box in the :class:`~repro.can.space.ResourceSpace` decompose into a bounded
set of *contiguous ring-key intervals*: walking the z-order trie along the
interleave schedule, a subtree is emitted whole when its per-dimension cell
ranges sit entirely inside the query box, pruned when disjoint, and split
otherwise.  Descent depth is capped — a capped subtree is emitted whole,
giving a slightly over-approximate but still contiguous cover, and the
exact coordinate filter at the end removes false positives.

Guarantee: every ring member whose coordinate lies inside the box has its
node key inside the emitted cover (intervals are cell-aligned, so the
tiebreak bits are always fully covered), hence appears among the owners of
the cover.  This is what lets a matchmaker resolve a multi-attribute
requirement ("cpu >= x and memory >= y") to the exact set of arc owners to
contact — the ring analogue of CAN's zone-overlap enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .keyspace import TIEBREAK_BITS, ChordKeyspace
from .ring import ChordError, ChordRing

__all__ = ["KeyInterval", "RangeQueryResult", "box_key_intervals", "range_query"]

#: trie levels explored before a subtree is emitted whole; bounds the
#: number of intervals at 2**MAX_SPLIT_DEPTH while keeping the cover tight
#: on the coarse (high-order) bits that dominate ring placement
MAX_SPLIT_DEPTH = 16


@dataclass(frozen=True)
class KeyInterval:
    """Inclusive ring-key interval ``[lo, hi]`` (never wraps)."""

    lo: int
    hi: int


@dataclass(frozen=True)
class RangeQueryResult:
    """Resolved range query: the key cover, its owners, and exact matches."""

    intervals: Tuple[KeyInterval, ...]
    owners: Tuple[int, ...]  # alive arc owners covering the intervals
    matches: Tuple[int, ...]  # members whose coordinate is inside the box


def box_key_intervals(
    keyspace: ChordKeyspace,
    lows: Sequence[float],
    highs: Sequence[float],
) -> Tuple[KeyInterval, ...]:
    """Contiguous ring-key cover of the box ``[lows, highs]`` (inclusive).

    The returned intervals are disjoint, sorted ascending, cell-aligned
    (tiebreak bits fully covered) and a superset of the exact box image.
    """
    if len(lows) != keyspace.dims or len(highs) != keyspace.dims:
        raise ValueError("box bounds must match keyspace dims")
    lo_cells = keyspace.quantize(lows)
    hi_cells = keyspace.quantize(highs)
    for d in range(keyspace.dims):
        if lo_cells[d] > hi_cells[d]:
            return ()

    schedule = keyspace.schedule
    total_bits = len(schedule)
    raw: List[Tuple[int, int]] = []

    # Iterative descent: (depth, code-prefix, per-dim consumed-bit prefixes).
    # A prefix of b_d bits for dimension d constrains its cell to
    # [p_d << (bits_d - b_d), ((p_d + 1) << (bits_d - b_d)) - 1].
    stack: List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]] = [
        (0, 0, (0,) * keyspace.dims, (0,) * keyspace.dims)
    ]
    while stack:
        depth, code, prefixes, consumed = stack.pop()
        inside = True
        for d in range(keyspace.dims):
            rem = keyspace.bits[d] - consumed[d]
            cell_lo = prefixes[d] << rem
            cell_hi = ((prefixes[d] + 1) << rem) - 1
            if cell_hi < lo_cells[d] or cell_lo > hi_cells[d]:
                inside = False
                break  # disjoint: prune the subtree
            if cell_lo < lo_cells[d] or cell_hi > hi_cells[d]:
                inside = None  # straddles the boundary in this dimension
        if inside is False:
            continue
        remaining = total_bits - depth
        if inside is True or depth >= MAX_SPLIT_DEPTH:
            lo_code = code << remaining
            hi_code = ((code + 1) << remaining) - 1
            raw.append((lo_code, hi_code))
            continue
        dim, _bit = schedule[depth]
        for branch in (1, 0):  # LIFO stack: push 1 first, visit 0 first
            new_prefixes = list(prefixes)
            new_prefixes[dim] = (prefixes[dim] << 1) | branch
            new_consumed = list(consumed)
            new_consumed[dim] += 1
            stack.append(
                (
                    depth + 1,
                    (code << 1) | branch,
                    tuple(new_prefixes),
                    tuple(new_consumed),
                )
            )

    raw.sort()
    merged: List[KeyInterval] = []
    for lo_code, hi_code in raw:
        lo = lo_code << TIEBREAK_BITS
        hi = (hi_code << TIEBREAK_BITS) | ((1 << TIEBREAK_BITS) - 1)
        if merged and merged[-1].hi + 1 == lo:
            merged[-1] = KeyInterval(merged[-1].lo, hi)
        else:
            merged.append(KeyInterval(lo, hi))
    return tuple(merged)


def range_query(
    overlay: ChordRing,
    lows: Sequence[float],
    highs: Sequence[float],
) -> RangeQueryResult:
    """Resolve a multi-attribute box query to arc owners and exact matches.

    ``owners`` is every *alive* member whose arc intersects the key cover
    (the nodes a matchmaker would contact); ``matches`` is the alive
    members whose resource coordinate actually lies inside the box — by
    the cover guarantee, ``matches`` owners are a subset of ``owners``.
    """
    intervals = box_key_intervals(overlay.keyspace, lows, highs)
    if not intervals:
        return RangeQueryResult((), (), ())
    if not overlay.members:
        raise ChordError("range query over an empty ring")

    ring_keys = sorted(m.key for m in overlay.members.values())
    by_key = {m.key: m for m in overlay.members.values()}
    n = len(ring_keys)

    owner_ids: List[int] = []
    seen = set()
    for iv in intervals:
        # members with keys inside [lo, hi] own keys there...
        i = bisect_left(ring_keys, iv.lo)
        j = bisect_right(ring_keys, iv.hi)
        span = list(range(i, j))
        # ...and the successor of hi owns the tail past the last such key
        span.append(j % n)
        for idx in dict.fromkeys(span):
            member = by_key[ring_keys[idx % n]]
            if member.alive and member.node_id not in seen:
                seen.add(member.node_id)
                owner_ids.append(member.node_id)

    lo_t = tuple(float(x) for x in lows)
    hi_t = tuple(float(x) for x in highs)
    matches = tuple(
        sorted(
            m.node_id
            for m in overlay.members.values()
            if m.alive
            and all(lo_t[d] <= m.coord[d] <= hi_t[d] for d in range(len(lo_t)))
        )
    )
    return RangeQueryResult(intervals, tuple(sorted(owner_ids)), matches)
