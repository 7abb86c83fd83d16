"""Discrete-event simulation kernel (written from scratch) and the Clock seam."""

from .clock import CallbackHandle, Clock
from .core import Environment, SimulationError
from .monitor import Counter, TimeSeries, TimeWeighted
from .rng import RngRegistry

__all__ = [
    "CallbackHandle",
    "Clock",
    "Environment",
    "SimulationError",
    "Counter",
    "TimeSeries",
    "TimeWeighted",
    "RngRegistry",
]
