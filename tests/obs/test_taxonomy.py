"""Every event type a traced run emits is declared in ``EV``.

The taxonomy (``repro.obs.events.EV`` and DESIGN.md's table) is what a
trace consumer filters on; an event emitted under an undeclared name is
invisible to it.  Small traced runs of every simulator collect what is
actually emitted: churn on both substrates over the ideal channel and a
lossy, late one, a fig5-shaped matchmaking run, and a faulty grid with a
crash burst.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import (
    ChurnSimulation,
    FaultPlan,
    FaultyGridConfig,
    FaultyGridSimulation,
    GridSimulation,
    MatchmakingConfig,
)
from repro.gridsim.config import ChurnConfig
from repro.gridsim.faults import CrashBurst
from repro.obs.events import EV, Tracer
from repro.workload import TINY_LOAD
from tests.can.hb_golden import CASES

DECLARED = {
    value for name, value in vars(EV).items()
    if name.isupper() and isinstance(value, str)
}


def emitted(make_sim) -> set:
    tracer = Tracer()
    make_sim(tracer).run()
    return set(tracer.counts)


@pytest.mark.parametrize("substrate", ["can", "chord"])
@pytest.mark.parametrize("case", ["fig7", "lossy"])
def test_churn_emits_only_declared_types(substrate, case):
    seen = emitted(
        lambda tracer: ChurnSimulation(
            ChurnConfig(
                substrate=substrate,
                scheme=HeartbeatScheme.ADAPTIVE,
                **CASES[case],
            ),
            tracer=tracer,
        )
    )
    assert {f"{substrate}.join", f"{substrate}.fail", "hb.round"} <= seen
    if case == "lossy":
        assert {"net.drop", "net.deliver_late"} <= seen
    assert seen <= DECLARED, sorted(seen - DECLARED)


def test_matchmaking_emits_only_declared_types():
    seen = emitted(
        lambda tracer: GridSimulation(
            MatchmakingConfig(TINY_LOAD, scheme="can-het"), tracer=tracer
        )
    )
    assert {"mm.placed", "grid.job_submit", "grid.job_finish"} <= seen
    assert seen <= DECLARED, sorted(seen - DECLARED)


def test_faulty_grid_with_a_burst_emits_only_declared_types():
    config = FaultyGridConfig(
        MatchmakingConfig(replace(TINY_LOAD, jobs=80)),
        mean_time_between_failures=600.0,
        mean_time_between_joins=600.0,
        faults=FaultPlan(bursts=(CrashBurst(at=600.0, count=3),)),
    )
    seen = emitted(lambda tracer: FaultyGridSimulation(config, tracer=tracer))
    assert {"fault.burst", "grid.crash", "recovery.detected"} <= seen
    assert seen <= DECLARED, sorted(seen - DECLARED)
