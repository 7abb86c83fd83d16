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
from .queues import FifoStore, PriorityStore, Resource
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
    "FifoStore",
    "PriorityStore",
    "Resource",
    "RngRegistry",
]
