"""Mapping grid resources onto CAN coordinate dimensions.

Each CE slot contributes a fixed group of dimensions (paper, Section III-A):

* the CPU slot: clock speed, memory size, disk space, number of cores;
* each GPU slot: clock speed, GPU memory, number of GPU cores;
* plus one random *virtual* dimension that spreads otherwise-identical
  nodes apart (Section II-B).

So 0/1/2/3 GPU slots yield the paper's 5/8/11/14-dimensional CANs.  Raw
resource values are normalised into [0, 1] per dimension so the geometry is
well-conditioned; the normalisation bounds come from the workload
configuration.  Nodes lacking a GPU slot sit at coordinate 0 in that slot's
dimensions, and a job that leaves an attribute unspecified targets 0 there —
"any amount is acceptable".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..model.ce import CPU_SLOT, gpu_slot
from ..model.job import Job
from ..model.node import NodeSpec
from .geometry import Zone

__all__ = ["Dimension", "ResourceSpace"]

#: attribute groups per slot kind
CPU_ATTRS: Tuple[str, ...] = ("clock", "memory", "disk", "cores")
GPU_ATTRS: Tuple[str, ...] = ("clock", "memory", "cores")
VIRTUAL = "virtual"


@dataclass(frozen=True)
class Dimension:
    """One CAN axis: a (slot, attribute) pair with a normalisation bound."""

    index: int
    slot: str  # "" for the virtual dimension
    attribute: str
    upper: float  # raw values are clipped into [0, upper] then scaled to [0, 1]

    def __post_init__(self) -> None:
        if self.upper <= 0:
            raise ValueError(f"upper bound must be positive (dim {self.index})")

    @property
    def is_virtual(self) -> bool:
        return self.attribute == VIRTUAL

    def normalise(self, raw: float) -> float:
        if raw < 0:
            raise ValueError(f"negative resource value {raw} for {self}")
        return min(raw, self.upper) / self.upper

    def label(self) -> str:
        return VIRTUAL if self.is_virtual else f"{self.slot}.{self.attribute}"


#: default normalisation upper bounds per attribute (raw units)
DEFAULT_BOUNDS: Mapping[str, float] = {
    "clock": 4.0,  # relative to nominal 1.0
    "memory": 64.0,  # GB
    "disk": 2048.0,  # GB
    "cores": 1024.0,  # GPU core counts dominate
}


class ResourceSpace:
    """The d-dimensional CAN coordinate system for a given slot layout."""

    def __init__(
        self,
        gpu_slots: int = 2,
        bounds: Optional[Mapping[str, float]] = None,
        cpu_core_bound: float = 16.0,
    ):
        if gpu_slots < 0:
            raise ValueError("gpu_slots must be >= 0")
        merged = dict(DEFAULT_BOUNDS)
        if bounds:
            merged.update(bounds)
        self.gpu_slots = gpu_slots
        dims: List[Dimension] = []
        for attr in CPU_ATTRS:
            upper = cpu_core_bound if attr == "cores" else merged[attr]
            dims.append(Dimension(len(dims), CPU_SLOT, attr, upper))
        for g in range(gpu_slots):
            for attr in GPU_ATTRS:
                dims.append(Dimension(len(dims), gpu_slot(g), attr, merged[attr]))
        dims.append(Dimension(len(dims), "", VIRTUAL, 1.0))
        self.dimensions: Tuple[Dimension, ...] = tuple(dims)

    @property
    def dims(self) -> int:
        """Total CAN dimensionality (paper's *d*; 5, 8, 11, 14, ...)."""
        return len(self.dimensions)

    def slots(self) -> Tuple[str, ...]:
        """All CE slots this space can represent, CPU first."""
        return (CPU_SLOT,) + tuple(gpu_slot(g) for g in range(self.gpu_slots))

    # -- coordinate construction -----------------------------------------------------
    def full_zone(self) -> Zone:
        return Zone([0.0] * self.dims, [1.0] * self.dims)

    def node_coordinate(
        self, spec: NodeSpec, virtual: float
    ) -> Tuple[float, ...]:
        """Coordinate of a node: its capability along every dimension."""
        if not 0.0 <= virtual < 1.0:
            raise ValueError("virtual coordinate must be in [0, 1)")
        coord: List[float] = []
        for dim in self.dimensions:
            if dim.is_virtual:
                coord.append(virtual)
                continue
            ce = spec.ce_spec(dim.slot)
            if ce is None:
                coord.append(0.0)
            else:
                coord.append(self._clamp(dim.normalise(ce.attribute(dim.attribute))))
        return tuple(coord)

    def job_coordinate(self, job: Job, virtual: float) -> Tuple[float, ...]:
        """Routing target of a job: its minimum requirement per dimension.

        Unspecified attributes map to 0 ("any amount acceptable"), so the
        zone containing the coordinate is the minimal satisfying corner and
        everything farther from the origin also satisfies (Section II-B).
        """
        if not 0.0 <= virtual < 1.0:
            raise ValueError("virtual coordinate must be in [0, 1)")
        coord: List[float] = []
        for dim in self.dimensions:
            if dim.is_virtual:
                coord.append(virtual)
                continue
            req = job.requirements.get(dim.slot)
            if req is None:
                coord.append(0.0)
                continue
            raw = {
                "clock": req.clock,
                "memory": req.memory,
                "disk": req.disk,
                "cores": float(req.cores) if req.cores > 1 else 0.0,
            }[dim.attribute]
            coord.append(self._clamp(dim.normalise(raw)))
        return tuple(coord)

    @staticmethod
    def _clamp(x: float) -> float:
        # Zones are half-open; keep coordinates strictly inside [0, 1).
        return min(x, 1.0 - 1e-9)

    def clamp_point(self, point: Sequence[float]) -> Tuple[float, ...]:
        """Pull an arbitrary unit-cube point into the space's valid interior.

        Zones are half-open (``lo <= x < hi``), so a coordinate of exactly
        1.0 belongs to no zone.  Probes sampled over the full unit cube go
        through here rather than pre-shrinking the sample range — the
        outermost sliver of every dimension must stay reachable.
        """
        return tuple(self._clamp(float(x)) for x in point)

    def labels(self) -> Tuple[str, ...]:
        return tuple(d.label() for d in self.dimensions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceSpace(d={self.dims}, gpu_slots={self.gpu_slots})"
