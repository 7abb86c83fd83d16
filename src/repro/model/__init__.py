"""Grid domain model: computing elements, jobs, nodes, contention."""

from .ce import CESpec, ComputingElement, CPU_SLOT, gpu_slot
from .job import CERequirement, Job
from .node import GridNode, NodeSpec

__all__ = [
    "CESpec",
    "ComputingElement",
    "CPU_SLOT",
    "gpu_slot",
    "CERequirement",
    "Job",
    "GridNode",
    "NodeSpec",
]
