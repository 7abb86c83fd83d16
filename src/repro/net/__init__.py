"""repro.net — deterministic network realism for the overlay protocols.

See :mod:`repro.net.model` for the channel abstraction (`NetworkModel`),
its frozen spec types, and the identity-channel contract that keeps
loss-free seeded runs byte-identical.
"""

from .model import (
    IDENTITY,
    FlapSpec,
    LatencySpec,
    NetworkModel,
    NetworkSpec,
)

__all__ = [
    "IDENTITY",
    "FlapSpec",
    "LatencySpec",
    "NetworkModel",
    "NetworkSpec",
]
