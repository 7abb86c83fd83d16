"""Substrate registry: name -> factories for overlay, protocol and routing.

Everything substrate-parametric in the repo — the grid simulations, the
service core, the experiment harnesses, the bench suite — resolves its
substrate here by name.  A :class:`SubstrateDescriptor` bundles what varies
between substrates:

* how to build the ground-truth overlay over a :class:`ResourceSpace`;
* how to build the maintenance protocol that keeps believed state under
  churn, on the channel the run states;
* how to route over ground truth and over believed state (greedy
  zone-distance descent for CAN, finger-table key hops for Chord).

The built-ins ("can", "chord") are registered lazily on first lookup so
importing :mod:`repro.overlay` never drags in both substrate packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from .base import MaintenanceProtocol, OverlaySubstrate

__all__ = [
    "SubstrateDescriptor",
    "register_substrate",
    "get_substrate",
    "available_substrates",
    "create_overlay",
]


@dataclass(frozen=True)
class SubstrateDescriptor:
    """One registered overlay substrate and its factory functions."""

    name: str
    #: build the ground-truth overlay: ``make_overlay(space)``
    make_overlay: Callable[[Any], OverlaySubstrate]
    #: build the maintenance protocol:
    #: ``make_protocol(overlay, config, network=None, tracer=...,
    #: metrics=...)`` — ``config`` is a
    #: :class:`~repro.can.heartbeat.ProtocolConfig` (shared across
    #: substrates; each interprets the scheme/detection knobs its own way),
    #: ``network`` the live :class:`~repro.net.NetworkModel` every
    #: unreliable send traverses (None = the ideal channel)
    make_protocol: Callable[..., MaintenanceProtocol]
    #: ground-truth route: ``route(overlay, start_id, point)`` -> node path
    route: Callable[..., List[int]]
    #: believed-state route: ``route_on_beliefs(protocol, start_id, point)``
    #: -> result with ``delivered``/``hops``/``path``
    route_on_beliefs: Callable[..., Any]


_REGISTRY: Dict[str, SubstrateDescriptor] = {}


def register_substrate(descriptor: SubstrateDescriptor) -> SubstrateDescriptor:
    """Register (or replace) a substrate under ``descriptor.name``."""
    _REGISTRY[descriptor.name] = descriptor
    return descriptor


def _register_builtin_can() -> SubstrateDescriptor:
    from ..can.overlay import CanOverlay
    from ..can.routing import route, route_on_beliefs
    from ..can.soa import build_protocol

    return register_substrate(
        SubstrateDescriptor(
            name="can",
            make_overlay=CanOverlay,
            make_protocol=build_protocol,
            route=route,
            route_on_beliefs=route_on_beliefs,
        )
    )


def _register_builtin_chord() -> SubstrateDescriptor:
    from ..chord.protocol import ChordMaintenanceProtocol
    from ..chord.ring import ChordRing
    from ..chord.routing import chord_route, chord_route_on_beliefs

    return register_substrate(
        SubstrateDescriptor(
            name="chord",
            make_overlay=ChordRing,
            make_protocol=ChordMaintenanceProtocol.build,
            route=chord_route,
            route_on_beliefs=chord_route_on_beliefs,
        )
    )


_BUILTINS: Dict[str, Callable[[], SubstrateDescriptor]] = {
    "can": _register_builtin_can,
    "chord": _register_builtin_chord,
}


def get_substrate(name: str) -> SubstrateDescriptor:
    """Look a substrate up by name, loading built-ins on demand."""
    descriptor = _REGISTRY.get(name)
    if descriptor is None:
        loader = _BUILTINS.get(name)
        if loader is not None:
            descriptor = loader()
    if descriptor is None:
        known = sorted(set(_REGISTRY) | set(_BUILTINS))
        raise ValueError(
            f"unknown substrate {name!r} (available: {', '.join(known)})"
        )
    return descriptor


def available_substrates() -> List[str]:
    """Names accepted by :func:`get_substrate` (built-ins included)."""
    return sorted(set(_REGISTRY) | set(_BUILTINS))


def create_overlay(name: str, space: Any) -> OverlaySubstrate:
    """Shorthand: build the named substrate's overlay over ``space``."""
    return get_substrate(name).make_overlay(space)
