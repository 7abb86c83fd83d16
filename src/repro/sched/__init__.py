"""Matchmaking: the paper's heterogeneous scheme plus both baselines."""

from .base import Matchmaker, MatchmakingStats, fastest_dominant_clock
from .can_het import CanHetMatchmaker
from .can_hom import CanHomMatchmaker
from .central import CentralMatchmaker
from .score import (
    ai_field,
    ce_score,
    node_score,
    pooled_node_score,
    push_objective,
    stop_probability,
)

__all__ = [
    "Matchmaker",
    "MatchmakingStats",
    "fastest_dominant_clock",
    "CanHetMatchmaker",
    "CanHomMatchmaker",
    "CentralMatchmaker",
    "ai_field",
    "ce_score",
    "node_score",
    "pooled_node_score",
    "push_objective",
    "stop_probability",
]
