"""Content-Addressable Network (CAN) DHT substrate.

The CAN variant of Kim et al. / Lee et al.: resource capabilities as
coordinates, KD-style zone splits pinned to node coordinates, split-history
take-over, per-dimension load aggregation, and the three heartbeat schemes
(vanilla / compact / adaptive) this paper contributes.
"""

from .aggregation import AggregationEngine, FIELDS
from .coverage import (
    Face,
    face_of,
    find_gaps,
    has_gap,
    have_gaps,
    uncovered_fraction,
    union_measure,
)
from .geometry import Zone
from .heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
    ProtocolNode,
)
from .messages import MessageType, SizeModel
from .neighbor import BeliefRecord, NeighborTable
from .overlay import CanOverlay, JoinResult, OverlayError, Transfer
from .routing import (
    BeliefRouteResult,
    RoutingError,
    route,
    route_on_beliefs,
    zone_distance,
)
from .space import Dimension, ResourceSpace
from .split_tree import Internal, Leaf, SplitTree
from .stats import MessageStats, RateSummary

__all__ = [
    "AggregationEngine",
    "FIELDS",
    "Zone",
    "Face",
    "face_of",
    "find_gaps",
    "has_gap",
    "have_gaps",
    "uncovered_fraction",
    "union_measure",
    "HeartbeatProtocol",
    "HeartbeatScheme",
    "ProtocolConfig",
    "ProtocolNode",
    "MessageType",
    "SizeModel",
    "BeliefRecord",
    "NeighborTable",
    "CanOverlay",
    "JoinResult",
    "OverlayError",
    "Transfer",
    "BeliefRouteResult",
    "RoutingError",
    "route",
    "route_on_beliefs",
    "zone_distance",
    "Dimension",
    "ResourceSpace",
    "Internal",
    "Leaf",
    "SplitTree",
    "MessageStats",
    "RateSummary",
]
