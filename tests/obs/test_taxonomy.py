"""Every event type a traced run emits is declared in ``EV``.

The taxonomy (``repro.obs.events.EV`` and DESIGN.md's table) is what a
trace consumer filters on; an event emitted under an undeclared name is
invisible to it.  Small traced runs of every simulator collect what is
actually emitted: churn on both substrates over the ideal channel and a
lossy, late one, a fig5-shaped matchmaking run, a faulty grid with a
crash burst, and the live service on the DES clock.  DESIGN.md's table
must name exactly what ``EV`` declares.
"""

from __future__ import annotations

import pathlib
import re
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
from repro.service.core import GridService, ServiceConfig
from repro.service.ledger import JobStatus, open_ledger
from repro.sim.core import Environment
from repro.workload import TINY_LOAD
from tests.can.hb_golden import CASES
from tests.service.test_core import preset_specs

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"

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


def test_service_emits_only_declared_types():
    """A live service on the DES clock: submits, one node failure, one
    cancel.  Its jobs speak the simulator's dialect."""
    tracer = Tracer()
    env = Environment()
    service = GridService(
        ServiceConfig(preset=TINY_LOAD), open_ledger(None), env, tracer=tracer
    )
    service.start()
    for spec in preset_specs(30):
        service.submit(spec)
    busy = next(
        record.node_id for record in service.ledger.records(JobStatus.RUNNING)
    )
    assert service.fail_node(busy)
    service.cancel(service.ledger.records(JobStatus.MATCHED)[0].job_id)
    env.run(until=500_000.0)
    seen = set(tracer.counts)
    assert {
        "grid.job_submit", "grid.job_start", "grid.job_finish", "grid.job_lost",
        "recovery.detected", "service.cancel",
    } <= seen
    assert seen <= DECLARED, sorted(seen - DECLARED)


def taxonomy_table() -> set:
    """Every event name DESIGN.md's event-taxonomy table lists: each row's
    prefix joined to each backticked name in its Events column."""
    section = DESIGN.read_text().split("**Event taxonomy.**", 1)[1]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            if names:
                break  # the table has ended
            continue
        prefix_cell, _emitted_by, events = line.strip("|").split("|")
        prefix = re.fullmatch(r"`(\w+)\.\*`", prefix_cell.strip()).group(1)
        names |= {f"{prefix}.{name}" for name in re.findall(r"`(\w+)`", events)}
    return names


def test_design_table_names_exactly_the_declared_types():
    listed = taxonomy_table()
    assert listed == DECLARED, (
        f"undeclared: {sorted(listed - DECLARED)}, "
        f"missing from the table: {sorted(DECLARED - listed)}"
    )
