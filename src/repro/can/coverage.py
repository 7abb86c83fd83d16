"""Local broken-link detection via zone-face coverage (Section IV-C).

A node can detect a broken link *locally*: zones partition the space, so
every interior face of its zone must be exactly tiled by neighbor zones.
If the believed neighbor table leaves part of a face uncovered, some
neighbor is missing — a broken link — and the adaptive heartbeat scheme
reacts by broadcasting a full-update request.

Two routines answer that question.  The reference is :func:`find_gaps`: the
measure of a union of axis-aligned boxes inside a bounded region
(:func:`union_measure`, a recursive coordinate sweep: split the region along
one axis at the boxes' boundaries, recurse on the remaining axes with the
boxes clipped to each slab), face by face.  The protocol's detector is
:func:`have_gaps` (:func:`has_gap` is a batch of one): it sums projection
areas instead of measuring their union, and it decides any number of owners
in one set of array expressions — a round's candidates together, in passes
of :data:`_PASS_ZONES` candidate zones — because at one owner a call the
fixed cost of the array calls is most of the time.  The protocol asks it only
for owners whose answer it cannot prove from the overlay's neighbor-pair
counters (``HeartbeatProtocol._tiled``).

Caveat (also in DESIGN.md): the check trusts the *believed* zones.  A stale
record whose advertised zone spuriously covers a vacated area hides the gap
— which is exactly why adaptive heartbeat is slightly less resilient than
vanilla in Figure 7.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Zone

__all__ = [
    "Face",
    "face_of",
    "union_measure",
    "uncovered_fraction",
    "find_gaps",
    "has_gap",
    "have_gaps",
]

_EPS = 1e-12

#: candidate zones one pass of :func:`have_gaps` holds in arrays at a time
#: (the batch size of ``CanOverlay._check_adjacent_leaves_abut``): a round
#: that decides a thousand owners peaks no higher than one that decides ten
_PASS_ZONES = 16_384

#: a (d-1)-dimensional axis-aligned box: per-axis (lo, hi) intervals
Box = Tuple[Tuple[float, float], ...]


class Face:
    """One face of a zone: the boundary plane position plus its extent."""

    __slots__ = ("dim", "side", "plane", "box")

    def __init__(self, dim: int, side: int, plane: float, box: Box):
        self.dim = dim
        self.side = side  # +1: high face, -1: low face
        self.plane = plane
        self.box = box  # extents along every axis except ``dim``

    def area(self) -> float:
        a = 1.0
        for lo, hi in self.box:
            a *= hi - lo
        return a

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Face dim={self.dim} side={self.side:+d} at {self.plane:g}>"


def face_of(zone: Zone, dim: int, side: int) -> Face:
    """The (dim, side) face of ``zone``."""
    if side not in (-1, +1):
        raise ValueError("side must be +1 or -1")
    if not 0 <= dim < zone.dims:
        raise ValueError(f"dim {dim} out of range")
    plane = zone.hi[dim] if side == +1 else zone.lo[dim]
    box = tuple(
        (zone.lo[d], zone.hi[d]) for d in range(zone.dims) if d != dim
    )
    return Face(dim, side, plane, box)


def _project(zone: Zone, face: Face) -> Optional[Box]:
    """Project a neighbor zone onto a face plane; None when it misses.

    The zone contributes iff it sits flush against the plane from the other
    side and overlaps the face's extent with positive measure.
    """
    other_coord = zone.lo[face.dim] if face.side == +1 else zone.hi[face.dim]
    if abs(other_coord - face.plane) > _EPS:
        return None
    box: List[Tuple[float, float]] = []
    axes = [d for d in range(zone.dims) if d != face.dim]
    for (flo, fhi), d in zip(face.box, axes):
        lo = max(flo, zone.lo[d])
        hi = min(fhi, zone.hi[d])
        if hi - lo <= _EPS:
            return None
        box.append((lo, hi))
    return tuple(box)


def union_measure(boxes: Sequence[Box], region: Box) -> float:
    """Measure of (union of boxes) ∩ region, all axis-aligned.

    Recursive coordinate sweep: elementary slabs along the first axis, then
    recurse over the remaining axes with the overlapping boxes.
    """
    region_vol = 1.0
    for lo, hi in region:
        if hi - lo <= 0:
            return 0.0
        region_vol *= hi - lo
    if not boxes:
        return 0.0
    # fast path: one box covers the whole region
    for box in boxes:
        if all(
            blo <= rlo + _EPS and bhi >= rhi - _EPS
            for (blo, bhi), (rlo, rhi) in zip(box, region)
        ):
            return region_vol
    (rlo, rhi) = region[0]
    cuts = {rlo, rhi}
    for box in boxes:
        lo, hi = box[0]
        if rlo < lo < rhi:
            cuts.add(lo)
        if rlo < hi < rhi:
            cuts.add(hi)
    points = sorted(cuts)
    total = 0.0
    sub_region = region[1:]
    for a, b in zip(points[:-1], points[1:]):
        if b - a <= _EPS:
            continue
        mid = (a + b) / 2.0
        slab_boxes = [box[1:] for box in boxes if box[0][0] <= mid <= box[0][1]]
        if not slab_boxes:
            continue
        if sub_region:
            total += (b - a) * union_measure(slab_boxes, sub_region)
        else:
            total += b - a  # 1-D region: the slab itself is covered
    return total


def uncovered_fraction(
    face: Face, neighbor_zones: Iterable[Zone]
) -> float:
    """Fraction of the face's area not tiled by the given zones."""
    area = face.area()
    if area <= 0:
        return 0.0
    projections = []
    for zone in neighbor_zones:
        proj = _project(zone, face)
        if proj is not None:
            projections.append(proj)
    covered = union_measure(projections, face.box)
    return max(0.0, 1.0 - covered / area)


def find_gaps(
    own_zones: Sequence[Zone],
    believed_zones: Sequence[Zone],
    space_lo: Sequence[float],
    space_hi: Sequence[float],
    tolerance: float = 1e-6,
) -> List[Face]:
    """Faces of ``own_zones`` not fully covered by believed neighbors.

    Faces on the outer boundary of the coordinate space have no neighbor by
    construction and are skipped, as are faces internal to the node's own
    zone set (a node trivially knows itself).
    """
    candidates = list(believed_zones) + list(own_zones)
    gaps: List[Face] = []
    for zone in own_zones:
        for dim in range(zone.dims):
            for side in (+1, -1):
                plane = zone.hi[dim] if side == +1 else zone.lo[dim]
                boundary = space_hi[dim] if side == +1 else space_lo[dim]
                if abs(plane - boundary) <= _EPS:
                    continue  # outer wall of the space
                face = face_of(zone, dim, side)
                others = [z for z in candidates if z is not zone]
                if uncovered_fraction(face, others) > tolerance:
                    gaps.append(face)
    return gaps


def has_gap(
    own_zones: Sequence[Zone],
    believed_zones: Sequence[Zone],
    space_lo: Sequence[float],
    space_hi: Sequence[float],
    tolerance: float = 1e-6,
) -> bool:
    """The protocol's boolean coverage check for one owner: a batch of one
    through :func:`have_gaps`."""
    owners = [(own_zones, believed_zones)]
    return have_gaps(owners, space_lo, space_hi, tolerance)[0]


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
