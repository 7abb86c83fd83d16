"""Hyper-rectangular zone geometry for the CAN.

A zone is an axis-aligned box ``[lo, hi)`` in d-dimensional space.  Zones
owned by live nodes partition the whole space: they never overlap and their
union covers everything.  Two zones are *neighbors* when they share a
(d-1)-dimensional face — they touch along exactly one axis and overlap with
positive measure along every other axis (corner contact does not count,
matching the original CAN definition).

Unlike the original CAN, this space is **not** a torus: coordinates encode
resource magnitudes, so "wrapping around" from the largest machines to the
smallest would be meaningless.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["Zone"]

_EPS = 1e-12


class Zone:
    """Immutable axis-aligned box ``[lo, hi)``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(x) for x in lo)
        hi = tuple(float(x) for x in hi)
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same dimensionality")
        if not lo:
            raise ValueError("zone must have at least one dimension")
        for d, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"empty extent along dim {d}: [{a}, {b})")
        self.lo = lo
        self.hi = hi

    # -- basic properties ---------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.lo)

    def extent(self, dim: int) -> float:
        return self.hi[dim] - self.lo[dim]

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    # -- point / zone relations -----------------------------------------------------
    def contains(self, point: Sequence[float]) -> bool:
        """Half-open containment: ``lo <= p < hi`` along every axis."""
        if len(point) != self.dims:
            raise ValueError("point dimensionality mismatch")
        return all(a <= p < b for p, a, b in zip(point, self.lo, self.hi))

    def contains_closed(self, point: Sequence[float]) -> bool:
        """Closed containment, for points on the outer boundary of the space."""
        if len(point) != self.dims:
            raise ValueError("point dimensionality mismatch")
        return all(a <= p <= b for p, a, b in zip(point, self.lo, self.hi))

    def abuts(self, other: "Zone") -> bool:
        """Do the zones share a (d-1)-dimensional face?

        Exactly one axis where they touch end-to-start; positive overlap on
        all the others.
        """
        self._check(other)
        touching = 0
        for l1, h1, l2, h2 in zip(self.lo, self.hi, other.lo, other.hi):
            gap_lo = abs(h1 - l2)
            gap_hi = abs(h2 - l1)
            if gap_lo <= _EPS or gap_hi <= _EPS:
                touching += 1
                if touching > 1:
                    return False
            elif min(h1, h2) - max(l1, l2) > _EPS:
                continue  # positive overlap on this axis
            else:
                return False  # separated along this axis
        return touching == 1

    # -- surgery ---------------------------------------------------------------------
    def split(self, dim: int, at: float) -> Tuple["Zone", "Zone"]:
        """Cut into (low, high) halves along ``dim`` at position ``at``."""
        if not 0 <= dim < self.dims:
            raise ValueError(f"dim {dim} out of range")
        if not self.lo[dim] < at < self.hi[dim]:
            raise ValueError(
                f"split position {at} outside ({self.lo[dim]}, {self.hi[dim]})"
            )
        lo_hi = list(self.hi)
        lo_hi[dim] = at
        hi_lo = list(self.lo)
        hi_lo[dim] = at
        return Zone(self.lo, lo_hi), Zone(hi_lo, self.hi)

    # -- plumbing --------------------------------------------------------------------
    def _check(self, other: "Zone") -> None:
        if self.dims != other.dims:
            raise ValueError("zone dimensionality mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zone):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(
            f"[{a:.3g},{b:.3g})" for a, b in zip(self.lo, self.hi)
        )
        return f"Zone({spans})"
