"""Accounting-neutrality regression: seeded churn runs pin their goldens.

The incremental heartbeat engine (epoch-shared snapshots, adjacency-indexed
absorption, cached wire sizes, dirty-set gap checks) is a pure performance
rework: message counts, byte totals, protocol events, population, the
broken-links series, and the JSONL trace of a seeded run must all stay
byte-identical to the committed goldens.  A legitimate protocol change that
moves these numbers must regenerate the goldens (see hb_golden.py) and call
that out in review.
"""

import json

import pytest

from repro.can.soa import ArrayHeartbeatProtocol
from repro.gridsim.config import ChurnConfig
from tests.can.hb_golden import (
    CASES,
    GOLDEN_PATH,
    SCHEMES,
    pinned_engine,
    traced_run,
)

with open(GOLDEN_PATH) as fh:
    GOLDENS = json.load(fh)


#: (case, scheme, class): the ideal-channel cases on the object class (the
#: oracle) and on the array class; off the ideal channel the array class
#: runs the inherited exchange on plain tables, so the lossy case runs once,
#: on the class CAN builds
RUNS = [
    pytest.param(case, scheme, engine, id=f"{case}.{scheme.value}-{engine}")
    for case in CASES
    for scheme in SCHEMES
    for engine in ("array", "object")
    if engine == "array" or case != "lossy"
]


@pytest.mark.parametrize("case,scheme,engine", RUNS)
def test_accounting_fingerprint_matches_golden(case, scheme, engine):
    with pinned_engine(engine):
        sim, got = traced_run(
            ChurnConfig(scheme=scheme, seed=20110926, **CASES[case])
        )
    want = GOLDENS[f"{case}.{scheme.value}"]
    # compare field by field first so a drift names the counter, not a blob
    for field in want:
        assert got[field] == want[field], f"{field} drifted"
    assert got == want
    if engine == "object":
        return
    assert type(sim.protocol) is ArrayHeartbeatProtocol
    if case == "lossy":
        # the tables never left the plain dicts the object class holds
        assert not sim.protocol.store.n_rows
    else:
        # the goldens are traced and a tracer selects no code path: on the
        # ideal channel they take the settled streak, so they cover it too
        assert sim.protocol.settled_rounds >= 1


def test_dense_vanilla_on_the_array_class_ignores_the_hash_seed():
    """The batched merge hands records over in array order where the loop
    iterated dicts, right where traced events are emitted: the dense vanilla
    case must hash the same trace in fresh interpreters under three hash
    seeds (and the same as the golden, which the object class produced)."""
    import os
    import subprocess
    import sys

    script = (
        "import json;"
        "from repro.can.heartbeat import HeartbeatScheme;"
        "from tests.can.hb_golden import run_case;"
        "print(json.dumps(run_case('fig7', HeartbeatScheme.VANILLA, engine='array')))"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            cwd=root,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(root, "src"),
                "PYTHONHASHSEED": seed,
            },
        )
        for seed in ("0", "1", "4242")
    ]
    for run in runs:
        out, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        assert json.loads(out) == GOLDENS["fig7.vanilla"]
