"""Locality-preserving mapping from ResourceSpace points to Chord ring keys.

Chord identifies nodes and data by a single integer key on a ring of size
``2**RING_BITS``.  The grid's matchmaking, however, lives in the
d-dimensional :class:`~repro.can.space.ResourceSpace` — so the mapping from
points to keys must preserve multi-attribute locality for range queries to
touch contiguous ring segments.  We use a Morton (z-order) interleave:

* each dimension's coordinate in [0, 1) is quantised to ``bits[i]`` bits
  (``COORD_BITS`` total, distributed round-robin so early dimensions get
  the spare bits);
* the quantised values are bit-interleaved MSB-first across dimensions,
  giving a ``COORD_BITS``-bit z-order code.  Holding all other dimensions
  fixed, the code is monotone in each dimension, and an axis-aligned query
  box decomposes into a bounded set of contiguous code intervals (see
  :mod:`repro.chord.range_query`);
* the code occupies the *top* bits of the ring key; the bottom
  ``TIEBREAK_BITS`` come from a hash of the node id, so distinct nodes at
  identical coordinates still get distinct keys (the ring analogue of
  CAN's virtual dimension — which also participates in the interleave,
  spreading otherwise-identical nodes apart).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = [
    "ChordKeyspace",
    "RING_BITS",
    "RING_SIZE",
    "COORD_BITS",
    "TIEBREAK_BITS",
]

#: ring keys are integers modulo 2**RING_BITS
RING_BITS = 64
RING_SIZE = 1 << RING_BITS
#: bits of the key carrying the interleaved coordinate (the top bits)
COORD_BITS = 48
#: bits carrying the node-id tiebreak (the bottom bits)
TIEBREAK_BITS = RING_BITS - COORD_BITS

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class ChordKeyspace:
    """Morton key mapping for one :class:`ResourceSpace` dimensionality."""

    def __init__(self, dims: int):
        if dims <= 0:
            raise ValueError("dims must be positive")
        if dims > COORD_BITS:
            raise ValueError(f"at most {COORD_BITS} dimensions supported")
        self.dims = dims
        base, extra = divmod(COORD_BITS, dims)
        #: quantisation bits per dimension
        self.bits: Tuple[int, ...] = tuple(
            base + (1 if d < extra else 0) for d in range(dims)
        )
        # Interleave schedule: (dim, bit-index) pairs, MSB-first round-robin
        # across dimensions — schedule[t] names the source bit of output
        # bit (COORD_BITS - 1 - t).
        schedule: List[Tuple[int, int]] = []
        for level in range(max(self.bits)):
            for d in range(dims):
                if level < self.bits[d]:
                    schedule.append((d, self.bits[d] - 1 - level))
        assert len(schedule) == COORD_BITS
        self.schedule: Tuple[Tuple[int, int], ...] = tuple(schedule)

    # -- quantisation -------------------------------------------------------
    def quantize(self, point: Sequence[float]) -> Tuple[int, ...]:
        """Per-dimension integer cells of a point (clamped into [0, 1))."""
        if len(point) != self.dims:
            raise ValueError(
                f"point has {len(point)} dims, keyspace has {self.dims}"
            )
        cells = []
        for d, x in enumerate(point):
            n = 1 << self.bits[d]
            q = int(min(max(float(x), 0.0), 1.0) * n)
            cells.append(min(q, n - 1))
        return tuple(cells)

    def interleave(self, cells: Sequence[int]) -> int:
        """Z-order code of quantised cells (``COORD_BITS`` bits)."""
        code = 0
        for dim, bit in self.schedule:
            code = (code << 1) | ((cells[dim] >> bit) & 1)
        return code

    # -- keys ---------------------------------------------------------------
    def point_key(self, point: Sequence[float]) -> int:
        """Ring key of a data point (tiebreak bits zero: the *smallest* key
        of the point's coordinate cell, so its owner is the successor of
        every node key sharing the cell)."""
        return self.interleave(self.quantize(point)) << TIEBREAK_BITS

    def node_key(self, node_id: int, coord: Sequence[float]) -> int:
        """Ring key of a node: its coordinate's z-code + an id tiebreak."""
        tiebreak = _splitmix64(node_id) & ((1 << TIEBREAK_BITS) - 1)
        return self.point_key(coord) | tiebreak

