"""Accounting-neutrality regression for the Chord maintenance protocol.

The Chord twin of ``tests/can/test_heartbeat_goldens.py``: seeded churn
runs on ``substrate="chord"`` pin their message counts, byte totals,
protocol events, population, broken-links series and JSONL trace hash in
``goldens/maintenance_accounting.json``.  Performance work on
``repro.chord.protocol`` must leave every field byte-identical; a
deliberate protocol change regenerates the file and says so in review::

    PYTHONPATH=src:. python -m tests.chord.test_maintenance_goldens
"""

import json
import math
import os

import pytest

from repro.gridsim.config import ChurnConfig
from repro.gridsim.faults import FaultPlan
from repro.net import LatencySpec, NetworkSpec
from tests.can.hb_golden import CASES as CAN_CASES
from tests.can.hb_golden import SCHEMES, fingerprint

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "maintenance_accounting.json"
)

#: the CAN goldens' fig7/fig8 shapes, plus the fig7 shape over a channel
#: that drops a tenth of the sends and delays one in seven past the period
#: (the deferred-delivery and lost-ack paths)
CASES = {
    **CAN_CASES,
    "lossy": dict(
        CAN_CASES["fig7"],
        plan=FaultPlan(
            network=NetworkSpec(
                loss=0.1,
                latency=LatencySpec("lognormal", mu=math.log(20.0), sigma=1.0),
            )
        ),
    ),
}

PARAMS = [(case, scheme) for case in CASES for scheme in SCHEMES]


def run_case(case, scheme):
    return fingerprint(
        ChurnConfig(substrate="chord", scheme=scheme, **CASES[case])
    )


@pytest.mark.parametrize(
    "case,scheme", PARAMS, ids=[f"{c}.{s.value}" for c, s in PARAMS]
)
def test_accounting_fingerprint_matches_golden(case, scheme):
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)[f"{case}.{scheme.value}"]
    got = run_case(case, scheme)
    # compare field by field first so a drift names the counter, not a blob
    for field in want:
        assert got[field] == want[field], f"{field} drifted"
    assert got == want


if __name__ == "__main__":
    payload = {f"{c}.{s.value}": run_case(c, s) for c, s in PARAMS}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
