"""JobLedger state machine, persistence and write atomicity."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.service.ledger import (
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    IllegalTransition,
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

#: a shortest transition path from SUBMITTED into every status
PATHS = {
    JobStatus.SUBMITTED: [],
    JobStatus.MATCHED: [JobStatus.MATCHED],
    JobStatus.RUNNING: [JobStatus.MATCHED, JobStatus.RUNNING],
    JobStatus.COMPLETED: [
        JobStatus.MATCHED,
        JobStatus.RUNNING,
        JobStatus.COMPLETED,
    ],
    JobStatus.FAILED: [JobStatus.MATCHED, JobStatus.FAILED],
    JobStatus.RETRYING: [JobStatus.RETRYING],
    JobStatus.ABANDONED: [
        JobStatus.MATCHED,
        JobStatus.FAILED,
        JobStatus.ABANDONED,
    ],
    JobStatus.CANCELLED: [JobStatus.CANCELLED],
}


@pytest.fixture(params=[":memory:", "file"], ids=["memory", "sqlite"])
def ledger(request, tmp_path):
    """Both CLI modes: ``--db`` omitted (":memory:") and a sqlite file."""
    path = request.param
    led = JobLedger(str(tmp_path / "ledger.sqlite") if path == "file" else path)
    yield led
    led.close()


def bring_to(ledger: JobLedger, status: JobStatus) -> int:
    record = ledger.submit(SPEC, now=0.0)
    for step in PATHS[status]:
        ledger.transition(record.job_id, step, now=1.0)
    assert ledger.record(record.job_id).status is status
    return record.job_id


class TestStateMachine:
    def test_submit_starts_submitted(self, ledger):
        record = ledger.submit(SPEC, now=3.0)
        assert record.status is JobStatus.SUBMITTED
        assert record.submitted_at == 3.0
        assert not record.terminal

    @pytest.mark.parametrize(
        "frm,to",
        [(f, t) for f, tos in LEGAL_TRANSITIONS.items() for t in tos],
        ids=lambda s: s.value if isinstance(s, JobStatus) else s,
    )
    def test_every_legal_transition(self, ledger, frm, to):
        job_id = bring_to(ledger, frm)
        updated = ledger.transition(job_id, to, now=5.0)
        assert updated.status is to
        assert updated.updated_at == 5.0

    @pytest.mark.parametrize(
        "frm,to",
        [
            (f, t)
            for f in JobStatus
            for t in JobStatus
            if t not in LEGAL_TRANSITIONS[f]
        ],
        ids=lambda s: s.value if isinstance(s, JobStatus) else s,
    )
    def test_every_illegal_transition_raises(self, ledger, frm, to):
        job_id = bring_to(ledger, frm)
        with pytest.raises(IllegalTransition) as excinfo:
            ledger.transition(job_id, to, now=5.0)
        assert excinfo.value.frm is frm
        assert excinfo.value.to is to
        # the failed transition changed nothing
        assert ledger.record(job_id).status is frm

    def test_terminal_states_have_no_exits(self):
        for status in TERMINAL_STATES:
            assert LEGAL_TRANSITIONS[status] == frozenset()

    def test_every_status_is_reachable(self):
        assert set(PATHS) == set(JobStatus)

    def test_unknown_job_raises_keyerror(self, ledger):
        with pytest.raises(KeyError):
            ledger.transition(999, JobStatus.MATCHED, now=1.0)
        with pytest.raises(KeyError):
            ledger.record(999)


class TestRecordFields:
    def test_node_id_kept_unless_overridden(self, ledger):
        job_id = bring_to(ledger, JobStatus.SUBMITTED)
        ledger.transition(job_id, JobStatus.MATCHED, now=1.0, node_id=17)
        running = ledger.transition(job_id, JobStatus.RUNNING, now=2.0)
        assert running.node_id == 17  # default: keep
        failed = ledger.transition(
            job_id, JobStatus.FAILED, now=3.0, node_id=None
        )
        assert failed.node_id is None  # explicit clear

    def test_attempts_and_detail(self, ledger):
        job_id = bring_to(ledger, JobStatus.SUBMITTED)
        updated = ledger.transition(
            job_id,
            JobStatus.RETRYING,
            now=1.0,
            attempts=3,
            detail="no capacity",
        )
        assert updated.attempts == 3
        assert updated.detail == "no capacity"

    def test_counts_partition_the_jobs(self, ledger):
        for status in (
            JobStatus.COMPLETED,
            JobStatus.COMPLETED,
            JobStatus.RUNNING,
            JobStatus.CANCELLED,
        ):
            bring_to(ledger, status)
        counts = ledger.counts()
        assert counts[JobStatus.COMPLETED] == 2
        assert counts[JobStatus.RUNNING] == 1
        assert counts[JobStatus.CANCELLED] == 1
        assert sum(counts.values()) == 4
        assert len(ledger.in_flight()) == 1  # only the RUNNING one

    def test_counts_equal_a_scan_of_the_records(self, ledger):
        """The ledger's count (GROUP BY) against the record scan
        it replaced; every status is present, zero or not."""
        assert ledger.counts() == {status: 0 for status in JobStatus}
        for status in [*PATHS, JobStatus.COMPLETED, JobStatus.RUNNING]:
            bring_to(ledger, status)
        scanned = {status: 0 for status in JobStatus}
        for record in ledger.records():
            scanned[record.status] += 1
        assert ledger.counts() == scanned
        assert scanned[JobStatus.COMPLETED] == 2

    def test_records_filter_by_status(self, ledger):
        bring_to(ledger, JobStatus.RUNNING)
        bring_to(ledger, JobStatus.COMPLETED)
        running = ledger.records(JobStatus.RUNNING)
        assert len(running) == 1
        assert running[0].status is JobStatus.RUNNING

    def test_completions_audit(self, ledger):
        done = bring_to(ledger, JobStatus.COMPLETED)
        live = bring_to(ledger, JobStatus.RUNNING)
        assert ledger.completions(done) == 1
        assert ledger.completions(live) == 0


class TestSqlitePersistence:
    def test_records_survive_reopen(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        led = open_ledger(path)
        done = bring_to(led, JobStatus.COMPLETED)
        orphan = bring_to(led, JobStatus.RUNNING)
        led.close()

        led2 = open_ledger(path)
        assert led2.record(done).status is JobStatus.COMPLETED
        rec = led2.record(orphan)
        assert rec.status is JobStatus.RUNNING
        assert rec.spec["base_duration"] == SPEC["base_duration"]
        assert [r.job_id for r in led2.in_flight()] == [orphan]
        # transition audit history survives too
        assert led2.completions(done) == 1
        led2.close()

    def test_job_ids_keep_increasing_after_reopen(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        led = open_ledger(path)
        first = led.submit(SPEC, now=0.0).job_id
        led.close()
        led2 = open_ledger(path)
        second = led2.submit(SPEC, now=1.0).job_id
        assert second > first
        led2.close()

    def test_wal_mode_is_active(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        led = open_ledger(path)
        mode = led._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode.lower() == "wal"
        led.close()

    def test_illegal_transition_not_persisted(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        led = open_ledger(path)
        job_id = bring_to(led, JobStatus.COMPLETED)
        with pytest.raises(IllegalTransition):
            led.transition(job_id, JobStatus.RUNNING, now=2.0)
        led.close()
        led2 = open_ledger(path)
        assert led2.record(job_id).status is JobStatus.COMPLETED
        led2.close()


def test_open_ledger_dispatches_backend(tmp_path):
    """No path is sqlite's in-memory database; a path is that file."""
    mem = open_ledger(None)
    assert mem.path == ":memory:"
    mem.close()
    path = str(tmp_path / "led.sqlite")
    disk = open_ledger(path)
    assert disk.path == path
    disk.submit(SPEC, now=0.0)
    disk.close()
    assert (tmp_path / "led.sqlite").exists()


@pytest.fixture
def contended():
    """Thread switches every microsecond, so a read and a write that are not
    one transaction interleave within a few hundred tries."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestConcurrentWrites:
    """Each write reads, checks and commits under one lock acquisition."""

    def test_concurrent_submits_get_distinct_ids(self, tmp_path, contended):
        led = open_ledger(str(tmp_path / "ledger.sqlite"))
        ids, errors = [], []

        def submit_many():
            try:
                ids.extend(led.submit(SPEC, now=0.0).job_id for _ in range(200))
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

        threads = [threading.Thread(target=submit_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sorted(ids) == list(range(1, 1601))
        assert sum(led.counts().values()) == 1600
        led.close()

    def test_racing_transitions_accept_exactly_one_edge(
        self, tmp_path, contended
    ):
        led = open_ledger(str(tmp_path / "ledger.sqlite"))

        def race(job_id, to, gate, won):
            gate.wait()
            try:
                won.append(led.transition(job_id, to, now=1.0).status)
            except IllegalTransition:
                pass

        for _ in range(300):
            job_id = led.submit(SPEC, now=0.0).job_id
            gate, won = threading.Barrier(2), []
            threads = [
                threading.Thread(target=race, args=(job_id, to, gate, won))
                for to in (JobStatus.MATCHED, JobStatus.CANCELLED)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # MATCHED -> CANCELLED is legal, so both racers may win one
            # after the other; what no serial order allows is two edges
            # out of SUBMITTED, or an edge that does not start where the
            # one before it ended
            edges = led.transitions(job_id)
            assert [t.frm for t in edges].count(JobStatus.SUBMITTED) == 1, edges
            assert all(
                later.frm is earlier.to for earlier, later in zip(edges, edges[1:])
            ), edges
            # ``won`` is in finishing order, the edges in commit order
            assert sorted(s.value for s in won) == sorted(
                t.to.value for t in edges[1:]
            ), (won, edges)
            assert led.record(job_id).status is edges[-1].to
        led.close()
