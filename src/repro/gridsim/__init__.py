"""End-to-end simulations: load-balancing runs and churn runs."""

from .churn import ChurnSimulation
from .config import ChurnConfig, MatchmakingConfig
from .faults import (
    CrashBurst,
    DiurnalChurn,
    FaultInjector,
    FaultPlan,
    JoinBurst,
    Scenario,
    scenario_pack,
)
from .faulty import FaultyGridConfig, FaultyGridResult, FaultyGridSimulation
from .invariants import (
    InvariantViolation,
    check_churn_invariants,
    check_faulty_invariants,
    check_matchmaking_accounting,
)
from .metrics import cdf_at, empirical_cdf, wait_time_table
from .recovery import PendingRecovery, RecoveryLoop, RecoveryTracker
from .results import ChurnResult, MatchmakingResult
from .simulation import GridSimulation, wire_grid

__all__ = [
    "ChurnSimulation",
    "ChurnConfig",
    "MatchmakingConfig",
    "CrashBurst",
    "DiurnalChurn",
    "FaultInjector",
    "FaultPlan",
    "JoinBurst",
    "Scenario",
    "scenario_pack",
    "FaultyGridConfig",
    "FaultyGridResult",
    "FaultyGridSimulation",
    "InvariantViolation",
    "check_churn_invariants",
    "check_faulty_invariants",
    "check_matchmaking_accounting",
    "PendingRecovery",
    "RecoveryLoop",
    "RecoveryTracker",
    "cdf_at",
    "empirical_cdf",
    "wait_time_table",
    "ChurnResult",
    "MatchmakingResult",
    "GridSimulation",
    "wire_grid",
]
