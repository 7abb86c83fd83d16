"""Local broken-link detection via zone-face coverage (Section IV-C).

A node can detect a broken link *locally*: zones partition the space, so
every interior face of its zone must be exactly tiled by neighbor zones.
If the believed neighbor table leaves part of a face uncovered, some
neighbor is missing — a broken link — and the adaptive heartbeat scheme
reacts by broadcasting a full-update request.

One routine answers that question, :func:`have_gaps`.  It sums the
believed zones' projection areas onto each face instead of measuring their
union, and it decides any number of owners in one set of array expressions
— a round's candidates together, in passes of :data:`_PASS_ZONES`
candidate zones — because at one owner a call the fixed cost of the array
calls is most of the time.  The protocol asks it only for owners whose
answer it cannot prove from the overlay's neighbor-pair counters
(``HeartbeatProtocol._tiled``).  Its references (the exact union-measure
``find_gaps`` and the per-owner routine it replaced) are in
``tests/can/oracle.py``.

Caveat (also in DESIGN.md): the check trusts the *believed* zones.  A stale
record whose advertised zone spuriously covers a vacated area hides the gap
— which is exactly why adaptive heartbeat is slightly less resilient than
vanilla in Figure 7.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .geometry import Zone

__all__ = ["have_gaps"]

_EPS = 1e-12

#: candidate zones one pass of :func:`have_gaps` holds in arrays at a time
#: (the batch size of ``CanOverlay._check_adjacent_leaves_abut``): a round
#: that decides a thousand owners peaks no higher than one that decides ten
_PASS_ZONES = 16_384

def have_gaps(
    owners: Sequence[Tuple[Sequence[Zone], Sequence[Zone]]],
    space_lo: Sequence[float],
    space_hi: Sequence[float],
    tolerance: float = 1e-6,
) -> List[bool]:
    """Per ``(own zones, believed zones)`` owner: is an interior face of an
    own zone left partly uncovered by the believed zones?

    Zones of a consistent partition are disjoint, so the covered measure of
    a face equals the *sum* of the candidate projections' areas — no union
    computation needed.  When stale believed records overlap fresh ones the
    sum over-counts, so this test can only err toward "covered" (missing a
    gap) — which is the local detector's honest failure mode anyway, never
    toward a false alarm.

    One segment per own zone, its candidates being the owner's believed
    zones and own zones; all segments of all owners go through the same
    array expressions.  A candidate clipped to the segment's zone covers
    part of a face iff exactly one clipped axis has no positive extent (the
    face's axis; a zone is never its own candidate, clipped to itself it
    has none) and it sits flush against the zone on that axis; what it
    covers is the product of its other extents, summed per (segment, side,
    axis) cell and held against ``(1 - tolerance)`` x the face's area.
    """
    dims = len(space_lo)
    #: each distinct zone object is converted once, however many owners
    #: believe it: id(zone) -> row of ``bounds``
    row_of: Dict[int, int] = {}
    bounds: List[Tuple[float, ...]] = []
    cand_rows: List[int] = []  # all segments' candidates, back to back
    seg_sizes: List[int] = []
    seg_rows: List[int] = []  # each segment's own zone
    seg_owner: List[int] = []
    for owner, (own_zones, believed_zones) in enumerate(owners):
        rows = []
        for zone in (*believed_zones, *own_zones):
            row = row_of.get(id(zone))
            if row is None:
                row = row_of[id(zone)] = len(bounds)
                bounds.append(zone.lo + zone.hi)
            rows.append(row)
        for row in rows[len(rows) - len(own_zones) :]:
            seg_rows.append(row)
            seg_owner.append(owner)
            seg_sizes.append(len(rows))
            cand_rows += rows
    gaps = [False] * len(owners)
    if not seg_rows:
        return gaps
    # (zones, 2d): lo then hi; ``fromiter`` because the conversion is most
    # of a small batch's time and ``np.array`` takes 1.6x as long over tuples
    box = np.fromiter(
        chain.from_iterable(bounds), float, len(bounds) * 2 * dims
    ).reshape(-1, 2 * dims)
    seg_box = box[seg_rows]
    cand = np.array(cand_rows)
    seg_of = np.repeat(np.arange(len(seg_rows)), seg_sizes)
    # covered area per (segment, side, axis); side 0 is the high face
    cells = len(seg_rows) * 2 * dims
    covered = np.zeros(cells)
    for start in range(0, len(cand), _PASS_ZONES):
        seg = seg_of[start : start + _PASS_ZONES]
        theirs = box[cand[start : start + _PASS_ZONES]]
        ours = seg_box[seg]
        ext = np.minimum(theirs[:, dims:], ours[:, dims:]) - np.maximum(
            theirs[:, :dims], ours[:, :dims]
        )
        flat = ext <= _EPS
        area = np.where(flat, 1.0, ext).prod(axis=1)
        area[flat.sum(axis=1) != 1] = 0.0
        axis = flat.argmax(axis=1)
        pick = np.arange(len(seg))
        # flush: their low side at our high side, their high at our low
        high = np.abs(theirs[pick, axis] - ours[pick, dims + axis]) <= _EPS
        low = np.abs(theirs[pick, dims + axis] - ours[pick, axis]) <= _EPS
        cell = seg * (2 * dims) + axis
        covered += np.bincount(
            np.concatenate((cell, cell + dims)),
            weights=np.concatenate((area * high, area * low)),
            minlength=cells,
        )
    # a face's area: the product of the zone's edges but its own axis's
    edges = seg_box[:, dims:] - seg_box[:, :dims]
    edges = np.repeat(edges[:, None, :], dims, axis=1)
    diagonal = np.arange(dims)
    edges[:, diagonal, diagonal] = 1.0
    threshold = np.tile(edges.prod(axis=2) * (1.0 - tolerance), 2)
    walls = np.concatenate((space_hi, space_lo)).astype(float)
    # seg_box is lo then hi, the cells are high faces then low ones
    interior = np.abs(np.roll(seg_box, dims, axis=1) - walls) > _EPS
    open_seg = (interior & (covered.reshape(-1, 2 * dims) < threshold)).any(axis=1)
    for s in np.flatnonzero(open_seg).tolist():
        gaps[seg_owner[s]] = True
    return gaps
