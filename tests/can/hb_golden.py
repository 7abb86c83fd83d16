"""Shared harness for the heartbeat accounting-neutrality goldens.

The perf work on the heartbeat engine must be *accounting-neutral*: a
seeded churn run has to produce byte-identical message counters and JSONL
traces before and after any optimisation.  This module runs small
fig7/fig8-shaped churn scenarios and reduces each to a JSON-serialisable
fingerprint; ``tests/can/goldens/heartbeat_accounting.json`` pins the
fingerprints produced by the pre-optimisation engine, and
``test_heartbeat_goldens.py`` re-runs the scenarios against them.

Regenerate (only when a *deliberate* protocol change alters the numbers)::

    PYTHONPATH=src python tests/can/hb_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from dataclasses import replace
from typing import Any, Dict, Tuple

import pytest

from repro.can import soa
from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme
from repro.can.soa import ArrayHeartbeatProtocol
from repro.gridsim import ChurnSimulation
from repro.gridsim.config import ChurnConfig
from repro.gridsim.faults import FaultPlan
from repro.net import LatencySpec, NetworkSpec
from repro.obs.events import Tracer
from repro.obs.trace import JsonlTraceWriter
from repro.overlay import get_substrate, register_substrate

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "heartbeat_accounting.json"
)

#: (name, config kwargs) — one high-churn fig7 shape and one sparser,
#: larger-population fig8 shape, each small enough for the test suite, plus
#: the fig7 shape over a channel that drops a tenth of the sends and delays
#: one in seven past the period (the deferred-delivery and lost-ack paths).
#: Both substrates' golden modules read this one table.
_FIG7 = dict(initial_nodes=40, event_gap_mean=15.0, duration=1_800.0)
CASES = {
    "fig7": _FIG7,
    "fig8": dict(
        initial_nodes=60, event_gap_mean=120.0, duration=900.0
    ),
    "lossy": dict(
        _FIG7,
        plan=FaultPlan(
            network=NetworkSpec(
                loss=0.1,
                latency=LatencySpec("lognormal", mu=math.log(20.0), sigma=1.0),
            )
        ),
    ),
}

SCHEMES = [
    HeartbeatScheme.VANILLA,
    HeartbeatScheme.COMPACT,
    HeartbeatScheme.ADAPTIVE,
]


#: CAN's heartbeat class ("array", what its substrate builds on every
#: channel) and its base class ("object", the ideal-channel oracle), by the
#: name the test ids use
ENGINE_CLASSES = {
    "object": HeartbeatProtocol,
    "array": ArrayHeartbeatProtocol,
}


@contextlib.contextmanager
def pinned_engine(engine: str):
    """Have the "can" substrate build one named class, whatever the run.

    The factory builds the array class on every channel, which off the
    ideal channel runs the inherited exchange on plain tables.  The
    equivalence tests also run the object class, the oracle for the array
    class's ideal-channel kernels, so they override CAN's ``make_protocol``
    through the registry — the public extension point — and restore it
    afterwards.
    """
    original = get_substrate("can")
    register_substrate(
        replace(original, make_protocol=ENGINE_CLASSES[engine].build)
    )
    try:
        yield
    finally:
        register_substrate(original)


def small_store(rows: int = soa.ROW_CAPACITY):
    """An empty :class:`~repro.can.soa.EdgeStore` of ``rows`` rows, so that
    a few joins grow its row arrays."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(soa, "ROW_CAPACITY", rows)
        return soa.EdgeStore()


def stored_payload(proto, holder, subject_id: int):
    """What a take-over by ``holder`` would absorb of ``subject_id``'s table:
    record versions, the freshness the sender last sent, the zone total."""
    copy = proto._stored_copy(holder, subject_id)
    return (
        {nid: rec.version for nid, rec in copy.records.items()},
        {nid: copy.heard.get(nid) for nid in copy.records},
        copy.total_zones,
    )


def run_case(
    case: str,
    scheme: HeartbeatScheme,
    seed: int = 20110926,
    engine: str = "object",
) -> Dict[str, Any]:
    """One seeded churn run reduced to its accounting fingerprint.

    Both classes must reproduce the same fingerprint: the goldens were
    produced by the object class and the array class is pinned to them.
    """
    with pinned_engine(engine):
        return fingerprint(
            ChurnConfig(scheme=scheme, seed=seed, **CASES[case])
        )


def fingerprint(config: ChurnConfig) -> Dict[str, Any]:
    """Run ``config`` traced and reduce it to what accounting can observe."""
    return traced_run(config)[1]


def traced_run(config: ChurnConfig) -> Tuple[ChurnSimulation, Dict[str, Any]]:
    """Run ``config`` traced: the simulation, and its fingerprint."""
    fd, trace_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        with JsonlTraceWriter(trace_path) as writer:
            tracer = Tracer()
            tracer.subscribe(writer)
            sim = ChurnSimulation(config, tracer=tracer)
            result = sim.run()
        with open(trace_path, "rb") as fh:
            trace_sha = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.unlink(trace_path)
    stats = sim.protocol.stats
    return sim, {
        "count": {t.value: stats.count[t] for t in sorted(stats.count, key=lambda t: t.value)},
        "bytes": {t.value: stats.bytes[t] for t in sorted(stats.bytes, key=lambda t: t.value)},
        "events": dict(sim.protocol.events),
        "final_population": result.final_population,
        "broken_links_sum": int(sum(result.broken_links_values)),
        "broken_links_last": int(result.broken_links_values[-1]),
        "trace_sha256": trace_sha,
    }


def run_all(seed: int = 20110926) -> Dict[str, Any]:
    return {
        f"{case}.{scheme.value}": run_case(case, scheme, seed)
        for case in CASES
        for scheme in SCHEMES
    }


if __name__ == "__main__":
    payload = run_all()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
