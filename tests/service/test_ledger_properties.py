"""Property test: arbitrary interleavings keep the ledger's accounting whole.

Each job follows one of the lifecycle scripts a live service can produce
(clean run, retry-then-run, crash-and-recover, abandon, cancel…).
Hypothesis interleaves the scripts' steps arbitrarily — the serialized
order jobs' transitions can reach the ledger in — and after *every* step
the ledger must still partition its jobs exactly, with the terminal
census matching a :class:`MatchmakingResult`-style bucket count:
``placed + unplaced/abandoned + cancelled + in-flight == submitted``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.ledger import (
    TERMINAL_STATES,
    JobLedger,
    JobStatus,
    open_ledger,
)

SPEC = {
    "job_id": None,
    "submit_time": 0.0,
    "base_duration": 60.0,
    "requirements": {
        "cpu": {"cores": 1, "clock": 1.0, "memory": 1.0, "disk": 1.0}
    },
}

#: lifecycle scripts mirroring the service's real code paths
SCRIPTS = [
    # clean placement and execution
    [JobStatus.MATCHED, JobStatus.RUNNING, JobStatus.COMPLETED],
    # no capacity at submit, then placed
    [JobStatus.RETRYING, JobStatus.MATCHED, JobStatus.RUNNING, JobStatus.COMPLETED],
    # lost to a node crash, recovered on another node
    [
        JobStatus.MATCHED,
        JobStatus.RUNNING,
        JobStatus.FAILED,
        JobStatus.RETRYING,
        JobStatus.MATCHED,
        JobStatus.RUNNING,
        JobStatus.COMPLETED,
    ],
    # lost, retry budget exhausted
    [JobStatus.MATCHED, JobStatus.FAILED, JobStatus.RETRYING, JobStatus.ABANDONED],
    # never placeable
    [JobStatus.RETRYING, JobStatus.ABANDONED],
    # user cancels while queued
    [JobStatus.MATCHED, JobStatus.CANCELLED],
    # user cancels before placement
    [JobStatus.CANCELLED],
    # still in flight when we stop looking
    [JobStatus.MATCHED, JobStatus.RUNNING],
    [JobStatus.RETRYING],
]


def check_accounting(ledger: JobLedger, submitted: int) -> None:
    counts = ledger.counts()
    assert sum(counts.values()) == submitted
    placed = counts.get(JobStatus.COMPLETED, 0)
    abandoned = counts.get(JobStatus.ABANDONED, 0)
    cancelled = counts.get(JobStatus.CANCELLED, 0)
    in_flight = len(ledger.in_flight())
    # the MatchmakingResult identity, phrased over ledger buckets
    assert placed + abandoned + cancelled + in_flight == submitted
    # in-flight is exactly the non-terminal complement
    assert in_flight == submitted - sum(
        counts.get(s, 0) for s in TERMINAL_STATES
    )


@settings(max_examples=60, deadline=None)
@given(
    scripts=st.lists(
        st.sampled_from(range(len(SCRIPTS))), min_size=1, max_size=12
    ),
    data=st.data(),
)
def test_interleaved_lifecycles_preserve_accounting(scripts, data):
    ledger = open_ledger(None)  # sqlite ":memory:", the CLI's no-``--db`` ledger
    remaining = {}
    for index in scripts:
        record = ledger.submit(SPEC, now=0.0)
        remaining[record.job_id] = list(SCRIPTS[index])
    submitted = len(remaining)
    check_accounting(ledger, submitted)

    step = 0
    while any(remaining.values()):
        live = [jid for jid, steps in remaining.items() if steps]
        job_id = data.draw(st.sampled_from(live), label="next job")
        status = remaining[job_id].pop(0)
        step += 1
        ledger.transition(job_id, status, now=float(step))
        check_accounting(ledger, submitted)

    # completed jobs completed exactly once; every expected final state holds
    for job_id in remaining:
        record = ledger.record(job_id)
        assert ledger.completions(job_id) <= 1
        if record.status is JobStatus.COMPLETED:
            assert ledger.completions(job_id) == 1
