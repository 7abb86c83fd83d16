"""The coverage check's references, kept for tests only.

``repro.can.coverage.have_gaps`` decides, for many owners at once, whether
the believed neighbour zones leave part of an interior face of an owner's
zones uncovered.  Two slower routines answer the same question here:

* :func:`find_gaps` measures each face's *union* of neighbour projections
  exactly (:func:`union_measure`, a recursive coordinate sweep), so it
  stays right when stale believed zones overlap fresh ones, where the
  kernel's sum of areas over-counts;
* :func:`oracle_has_gap` is the per-owner array routine the kernel
  replaced, whose verdicts the kernel's must equal bit for bit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.can.geometry import Zone

_EPS = 1e-12

#: a (d-1)-dimensional axis-aligned box: per-axis (lo, hi) intervals
Box = Tuple[Tuple[float, float], ...]


def zones_overlap(a: Zone, b: Zone) -> bool:
    """Positive-measure intersection along every axis."""
    return all(
        min(h1, h2) - max(l1, l2) > _EPS
        for l1, h1, l2, h2 in zip(a.lo, a.hi, b.lo, b.hi)
    )


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


def project(zone: Zone, face: Face) -> Optional[Box]:
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
        proj = project(zone, face)
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


def oracle_has_gap(
    own_zones, believed_zones, space_lo, space_hi, tolerance=1e-6
):
    """``has_gap`` as it stood before the batched kernel replaced it (one
    owner a call, a pass per own zone, all 2*d faces of it at once): kept
    here, unchanged, as the oracle the kernel's verdicts must equal."""
    if not own_zones:
        return False
    dims = own_zones[0].dims
    candidates = list(believed_zones) + list(own_zones)
    bounds = np.array([z.lo + z.hi for z in candidates])  # (n, 2d)
    los = bounds[:, :dims]  # (n, d)
    his = bounds[:, dims:]
    lo_wall = np.asarray(space_lo, dtype=float)
    hi_wall = np.asarray(space_hi, dtype=float)
    n = len(candidates)
    ones = np.ones((n, 1))
    for zone in own_zones:
        zlo = np.asarray(zone.lo, dtype=float)
        zhi = np.asarray(zone.hi, dtype=float)
        # clip every candidate to the zone's extent (shared by all faces)
        ext = np.minimum(his, zhi) - np.maximum(los, zlo)  # (n, d)
        pos = ext > _EPS
        nonpos = (~pos).sum(axis=1)
        # prod of ext over all axes but one: left * right cumulative products
        left = np.cumprod(np.hstack((ones, ext[:, :-1])), axis=1)
        right = np.cumprod(
            np.hstack((ones, ext[:, :0:-1])), axis=1
        )[:, ::-1]
        areas = left * right  # (n, d): projection area onto face of axis k
        # a candidate covers part of face k iff every *other* clipped axis
        # has positive extent (the face axis itself is flush, extent 0)
        valid = (nonpos == 0)[:, None] | ((nonpos == 1)[:, None] & ~pos)
        not_self = np.fromiter(
            (cand is not zone for cand in candidates), bool, n
        )[:, None]
        face_edges = zhi - zlo
        f_left = np.cumprod(np.concatenate(([1.0], face_edges[:-1])))
        f_right = np.cumprod(
            np.concatenate(([1.0], face_edges[:0:-1]))
        )[::-1]
        face_areas = f_left * f_right  # (d,)
        threshold = face_areas * (1.0 - tolerance)
        for side_flush, planes, walls in (
            (los, zhi, hi_wall),  # high faces: candidate lo flush at zone hi
            (his, zlo, lo_wall),  # low faces: candidate hi flush at zone lo
        ):
            interior = np.abs(planes - walls) > _EPS  # (d,)
            if not interior.any():
                continue
            flush = np.abs(side_flush - planes[None, :]) <= _EPS  # (n, d)
            contrib = flush & valid & not_self
            covered = (areas * contrib).sum(axis=0)  # (d,)
            if (interior & (covered < threshold)).any():
                return True
    return False
