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
import os

import pytest

from repro.gridsim.config import ChurnConfig
from tests.can.hb_golden import CASES, SCHEMES, fingerprint

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "maintenance_accounting.json"
)

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
