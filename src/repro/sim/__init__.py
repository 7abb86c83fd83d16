"""Discrete-event simulation kernel (SimPy-style, written from scratch)."""

from .clock import CallbackHandle, Clock, SimClock
from .core import (
    Environment,
    Event,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .monitor import Counter, TimeSeries, TimeWeighted
from .rng import RngRegistry

__all__ = [
    "CallbackHandle",
    "Clock",
    "SimClock",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "Counter",
    "TimeSeries",
    "TimeWeighted",
    "RngRegistry",
]
