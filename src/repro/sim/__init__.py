"""Discrete-event simulation kernel (written from scratch) and the Clock seam."""

from .clock import CallbackHandle, Clock
from .core import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import Counter, TimeSeries, TimeWeighted
from .rng import RngRegistry

__all__ = [
    "CallbackHandle",
    "Clock",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Counter",
    "TimeSeries",
    "TimeWeighted",
    "RngRegistry",
]
