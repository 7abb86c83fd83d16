"""The persistent job ledger: one row per job, one audited status machine.

Real grid middleware keeps job state in a store that outlives the
scheduler process; the scheduler is a cache.  This module is that store
for :mod:`repro.service`:

* :class:`JobStatus` — the typed lifecycle::

      SUBMITTED ──> MATCHED ──> RUNNING ──> COMPLETED
          │  │         │           └──────> FAILED ──> RETRYING ──> MATCHED
          │  │         └──> FAILED             │           │  │
          │  └──> RETRYING (no capacity yet)   └─> ABANDONED  └─> ABANDONED
          └──> CANCELLED   (also from MATCHED / RETRYING)

  ``COMPLETED`` / ``ABANDONED`` / ``CANCELLED`` are terminal.  Transitions
  outside :data:`LEGAL_TRANSITIONS` raise :class:`IllegalTransition` — the
  ledger is the single source of truth, so an illegal transition is a bug
  in the caller, never something to paper over.

* :class:`JobLedger` — the state machine and its store, one sqlite3
  database (stdlib, WAL mode): a file, or ``":memory:"`` for ephemeral
  runs.  Each write reads the row, checks the edge and commits the row
  and its audit edge in one transaction, so a ``kill -9`` loses at most
  in-memory scheduling state, never job state, and two threads racing on
  one job cannot both win.

* crash recovery — :meth:`JobLedger.in_flight` returns every job the
  previous process still owed work for (anything non-terminal).  The
  service routes those through the existing
  :class:`~repro.gridsim.recovery.RecoveryLoop` at startup, exactly like
  jobs lost to a node crash mid-run.

Every transition is also appended to a ``transitions`` audit table; the
restart tests count ``RUNNING -> COMPLETED`` edges per job there to prove
zero duplicate executions across a kill/restart cycle.
"""

from __future__ import annotations

import enum
import json
import os
import sqlite3
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..obs.schema import SCHEMA_VERSION, check_schema_version

__all__ = [
    "JobStatus",
    "LEGAL_TRANSITIONS",
    "TERMINAL_STATES",
    "IllegalTransition",
    "JobRecord",
    "JobLedger",
    "open_ledger",
]


class JobStatus(str, enum.Enum):
    """Lifecycle states; the string values are the wire/database form."""

    SUBMITTED = "SUBMITTED"
    MATCHED = "MATCHED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    RETRYING = "RETRYING"
    ABANDONED = "ABANDONED"
    CANCELLED = "CANCELLED"


#: every legal edge of the status machine (see the module docstring)
LEGAL_TRANSITIONS: Dict[JobStatus, frozenset] = {
    JobStatus.SUBMITTED: frozenset(
        {JobStatus.MATCHED, JobStatus.RETRYING, JobStatus.CANCELLED}
    ),
    JobStatus.MATCHED: frozenset(
        {JobStatus.RUNNING, JobStatus.FAILED, JobStatus.CANCELLED}
    ),
    JobStatus.RUNNING: frozenset({JobStatus.COMPLETED, JobStatus.FAILED}),
    JobStatus.FAILED: frozenset({JobStatus.RETRYING, JobStatus.ABANDONED}),
    JobStatus.RETRYING: frozenset(
        {JobStatus.MATCHED, JobStatus.ABANDONED, JobStatus.CANCELLED}
    ),
    JobStatus.COMPLETED: frozenset(),
    JobStatus.ABANDONED: frozenset(),
    JobStatus.CANCELLED: frozenset(),
}

TERMINAL_STATES = frozenset(
    {JobStatus.COMPLETED, JobStatus.ABANDONED, JobStatus.CANCELLED}
)


class IllegalTransition(ValueError):
    """A status transition outside :data:`LEGAL_TRANSITIONS`."""

    def __init__(self, job_id: int, frm: JobStatus, to: JobStatus):
        super().__init__(
            f"job {job_id}: illegal transition {frm.value} -> {to.value}"
        )
        self.job_id = job_id
        self.frm = frm
        self.to = to


@dataclass(frozen=True)
class JobRecord:
    """One ledger row (immutable snapshot; the database holds the truth)."""

    job_id: int
    spec: Dict[str, Any]  # repro.workload.trace.job_to_dict form
    status: JobStatus
    node_id: Optional[int] = None
    attempts: int = 0
    submitted_at: float = 0.0
    updated_at: float = 0.0
    detail: str = ""

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec,
            "status": self.status.value,
            "node_id": self.node_id,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Transition:
    """One audit-table row."""

    job_id: int
    frm: Optional[JobStatus]  # None for the initial SUBMITTED insert
    to: JobStatus
    at: float
    node_id: Optional[int] = None


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id INTEGER PRIMARY KEY,
    spec TEXT NOT NULL,
    status TEXT NOT NULL,
    node_id INTEGER,
    attempts INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS transitions (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id INTEGER NOT NULL,
    frm TEXT,
    to_status TEXT NOT NULL,
    at REAL NOT NULL,
    node_id INTEGER
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);
CREATE INDEX IF NOT EXISTS idx_transitions_job ON transitions(job_id);
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT);
"""

_IN_FLIGHT = tuple(s.value for s in JobStatus if s not in TERMINAL_STATES)


def _row_to_record(row: Tuple) -> JobRecord:
    return JobRecord(
        job_id=int(row[0]),
        spec=json.loads(row[1]),
        status=JobStatus(row[2]),
        node_id=None if row[3] is None else int(row[3]),
        attempts=int(row[4]),
        submitted_at=float(row[5]),
        updated_at=float(row[6]),
        detail=row[7],
    )


class JobLedger:
    """The status state machine over one sqlite3 database in WAL mode.

    ``path`` is a file, or ``":memory:"`` for a ledger lost on exit.  WAL
    keeps readers and the single writer from blocking each other and — the
    property the restart tests depend on — makes every committed
    transition durable against ``kill -9``.  ``synchronous=NORMAL`` is the
    standard WAL pairing: fsync on checkpoint, not per commit; a process
    kill can never tear a transaction, only an OS crash can lose the tail.

    All mutation goes through :meth:`submit` and :meth:`transition`.  Each
    takes the lock once and reads, checks and writes in one transaction,
    so the asyncio gateway's handlers and any helper thread share the
    connection safely and a returned record is durable.
    """

    def __init__(self, path: str):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        with self._conn:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('schema_version', ?)",
                    (SCHEMA_VERSION,),
                )
            else:
                check_schema_version(row[0], f"ledger {path!r}")

    # -- mutation ---------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], now: float) -> JobRecord:
        """Insert a new job in ``SUBMITTED``; returns the durable record."""
        with self._lock, self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            (job_id,) = self._conn.execute(
                "SELECT COALESCE(MAX(job_id), 0) + 1 FROM jobs"
            ).fetchone()
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                status=JobStatus.SUBMITTED,
                submitted_at=now,
                updated_at=now,
            )
            self._conn.execute(
                "INSERT INTO jobs VALUES (?,?,?,?,?,?,?,?)",
                (
                    job_id,
                    json.dumps(spec, sort_keys=True),
                    record.status.value,
                    None,
                    0,
                    now,
                    now,
                    "",
                ),
            )
            self._audit(record, None)
        return record

    def transition(
        self,
        job_id: int,
        to: JobStatus,
        now: float,
        node_id: Optional[int] = ...,  # ... = keep current
        attempts: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> JobRecord:
        """Move ``job_id`` to ``to``; raises :class:`IllegalTransition`."""
        with self._lock, self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            record = self._get(job_id)
            if to not in LEGAL_TRANSITIONS[record.status]:
                raise IllegalTransition(job_id, record.status, to)
            updated = replace(
                record,
                status=to,
                updated_at=now,
                node_id=record.node_id if node_id is ... else node_id,
                attempts=record.attempts if attempts is None else attempts,
                detail=record.detail if detail is None else detail,
            )
            self._conn.execute(
                "UPDATE jobs SET status=?, node_id=?, attempts=?, "
                "updated_at=?, detail=? WHERE job_id=?",
                (
                    to.value,
                    updated.node_id,
                    updated.attempts,
                    now,
                    updated.detail,
                    job_id,
                ),
            )
            self._audit(updated, record.status)
        return updated

    def _audit(self, record: JobRecord, frm: Optional[JobStatus]) -> None:
        self._conn.execute(
            "INSERT INTO transitions (job_id, frm, to_status, at, node_id)"
            " VALUES (?,?,?,?,?)",
            (
                record.job_id,
                None if frm is None else frm.value,
                record.status.value,
                record.updated_at,
                record.node_id,
            ),
        )

    def _get(self, job_id: int) -> JobRecord:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id=?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"job {job_id} not in ledger")
        return _row_to_record(row)

    # -- queries ----------------------------------------------------------------
    def _select(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def record(self, job_id: int) -> JobRecord:
        with self._lock:
            return self._get(job_id)

    def _records(self, where: str = "", params: Tuple = ()) -> List[JobRecord]:
        rows = self._select(f"SELECT * FROM jobs {where} ORDER BY job_id", params)
        return [_row_to_record(row) for row in rows]

    def records(self, status: Optional[JobStatus] = None) -> List[JobRecord]:
        if status is None:
            return self._records()
        return self._records("WHERE status=?", (status.value,))

    def in_flight(self) -> List[JobRecord]:
        """Every job a restarted service still owes work for."""
        marks = ",".join("?" * len(_IN_FLIGHT))
        return self._records(f"WHERE status IN ({marks})", _IN_FLIGHT)

    def counts(self) -> Dict[JobStatus, int]:
        """Row count per status (every status present, zero or not)."""
        out = {status: 0 for status in JobStatus}
        for status, n in self._select(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            out[JobStatus(status)] = int(n)
        return out

    def transitions(self, job_id: int) -> List[Transition]:
        """``job_id``'s audit edges, in write order."""
        rows = self._select(
            "SELECT job_id, frm, to_status, at, node_id FROM transitions "
            "WHERE job_id=? ORDER BY seq",
            (job_id,),
        )
        return [
            Transition(
                job_id=int(r[0]),
                frm=None if r[1] is None else JobStatus(r[1]),
                to=JobStatus(r[2]),
                at=float(r[3]),
                node_id=None if r[4] is None else int(r[4]),
            )
            for r in rows
        ]

    def completions(self, job_id: int) -> int:
        """How many times ``job_id`` reached COMPLETED (must be <= 1)."""
        return sum(
            1 for t in self.transitions(job_id) if t.to is JobStatus.COMPLETED
        )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_ledger(path: Optional[str]) -> JobLedger:
    """``path=None`` -> in-memory sqlite (lost on exit); else WAL at ``path``."""
    return JobLedger(":memory:" if path is None else path)
