"""The maintenance round's phase order, pinned from outside the protocol.

``MaintenanceProtocol.run_round`` calls each phase as a method through
``self``; that is what lets the benchmark harness's ``Tracer`` attribute a
round's wall time per phase by wrapping the instance.  These tests wrap
every phase on all three protocol classes exactly that way and read the
order back off the tracer's spans, so they fail when:

* two phases swap places;
* the adaptive gap checks run for a scheme other than adaptive (or stop
  running for adaptive);
* a phase is inlined into ``run_round`` (the wrapper never sees it), or
  runs twice in a round;
* a round with nobody alive reaches any phase.
"""

import pytest
from benchmarks.e2e.trace import Tracer

from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme, ProtocolConfig
from repro.can.soa import ArrayHeartbeatProtocol
from repro.can.space import ResourceSpace
from repro.chord.protocol import ChordMaintenanceProtocol
from repro.gridsim import ChurnConfig, ChurnSimulation
from repro.overlay import get_substrate
from tests.can.hb_golden import pinned_engine

#: DESIGN.md's order; the gap checks run for the adaptive scheme only
PHASES = (
    "_retry_pending_joins",
    "_exchange_heartbeats",
    "_deliver_replies",
    "_detect_failures",
    "_claim_timed_out_zones",
    "_adaptive_gap_checks",
    "count_broken_links",
)

ENGINES = {
    HeartbeatProtocol: ("can", "object"),
    ArrayHeartbeatProtocol: ("can", "array"),
    ChordMaintenanceProtocol: ("chord", None),
}


def expected_round(scheme):
    return [
        phase
        for phase in PHASES
        if phase != "_adaptive_gap_checks" or scheme is HeartbeatScheme.ADAPTIVE
    ]


def wrap_phases(tracer, protocol):
    tracer.wrap(protocol, "run_round", "run_round")
    for phase in PHASES:
        tracer.wrap(protocol, phase, phase)


def phases_by_round(tracer):
    """Each ``run_round`` span's direct children, in call order."""
    rounds = {
        i: [] for i, span in enumerate(tracer.spans) if span[0] == "run_round"
    }
    for span in tracer.spans:
        if span[3] in rounds:
            rounds[span[3]].append(span[0])
    return [rounds[i] for i in sorted(rounds)]


def churn_run(cls, scheme):
    substrate, engine = ENGINES[cls]
    config = ChurnConfig(
        initial_nodes=24, scheme=scheme, event_gap_mean=45.0,
        duration=900.0, seed=5, substrate=substrate,
    )
    if engine is None:
        sim = ChurnSimulation(config)
    else:
        with pinned_engine(engine):
            sim = ChurnSimulation(config)
    assert type(sim.protocol) is cls
    tracer = Tracer("phases")
    wrap_phases(tracer, sim.protocol)
    try:
        sim.run()
    finally:
        tracer.restore()
    return sim, tracer


@pytest.mark.parametrize("scheme", list(HeartbeatScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("cls", list(ENGINES), ids=lambda c: c.__name__)
def test_every_round_runs_each_phase_once_in_order(cls, scheme):
    sim, tracer = churn_run(cls, scheme)
    rounds = phases_by_round(tracer)
    assert len(rounds) == tracer.calls("run_round") >= 15
    want = expected_round(scheme)
    for i, got in enumerate(rounds):
        assert got == want, f"round {i + 1}"
    # churn happened, so the order held through joins and crashes too
    assert sim.protocol.events["joins"] and sim.protocol.events["failures"]


@pytest.mark.parametrize("cls", list(ENGINES), ids=lambda c: c.__name__)
def test_a_round_with_nobody_alive_runs_no_phase(cls):
    descriptor = get_substrate(ENGINES[cls][0])
    overlay = descriptor.make_overlay(ResourceSpace(gpu_slots=1))
    protocol = cls.build(
        overlay, ProtocolConfig(scheme=HeartbeatScheme.ADAPTIVE), None
    )
    tracer = Tracer("empty")
    wrap_phases(tracer, protocol)
    try:
        protocol.run_round(60.0)
        protocol.run_round(120.0)
    finally:
        tracer.restore()
    assert tracer.calls("run_round") == 2
    assert [span[0] for span in tracer.spans] == ["run_round", "run_round"]
    assert len(protocol.broken_links) == 0
