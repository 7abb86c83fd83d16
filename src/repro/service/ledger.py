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

* :class:`JobLedger` — the state machine enforced over a pluggable
  :class:`LedgerBackend`.  :class:`SqliteBackend` (WAL mode, stdlib
  ``sqlite3``) persists every transition before the caller proceeds, so a
  ``kill -9`` loses at most in-memory scheduling state, never job state;
  :class:`MemoryBackend` backs tests and ephemeral runs.

* crash recovery — :meth:`JobLedger.in_flight` returns every job the
  previous process still owed work for (anything non-terminal).  The
  service routes those through the existing
  :class:`~repro.gridsim.recovery.RetryPolicy` at startup, exactly like
  jobs lost to a node crash mid-run.

Every transition is also appended to a ``transitions`` audit table; the
restart tests count ``RUNNING -> COMPLETED`` edges per job there to prove
zero duplicate executions across a kill/restart cycle.
"""

from __future__ import annotations

import abc
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
    "LedgerBackend",
    "MemoryBackend",
    "SqliteBackend",
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
    """One ledger row (immutable snapshot; the backend holds the truth)."""

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


class LedgerBackend(abc.ABC):
    """Storage contract the ledger's state machine runs over.

    Backends store rows and the transition log; they enforce nothing —
    legality lives in :class:`JobLedger` so every backend behaves
    identically.
    """

    @abc.abstractmethod
    def next_job_id(self) -> int:
        """Allocate the next job id (monotonic across restarts)."""

    @abc.abstractmethod
    def insert(self, record: JobRecord) -> None: ...

    @abc.abstractmethod
    def update(self, record: JobRecord, frm: JobStatus) -> None:
        """Persist ``record`` and append the ``frm -> record.status`` edge."""

    @abc.abstractmethod
    def get(self, job_id: int) -> Optional[JobRecord]: ...

    @abc.abstractmethod
    def all_records(
        self, status: Optional[JobStatus] = None
    ) -> List[JobRecord]: ...

    @abc.abstractmethod
    def counts(self) -> Dict[JobStatus, int]:
        """Row count per status, every status present (zero or not)."""

    @abc.abstractmethod
    def transitions(self, job_id: Optional[int] = None) -> List[Transition]: ...

    @abc.abstractmethod
    def close(self) -> None: ...

    def __enter__(self) -> "LedgerBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryBackend(LedgerBackend):
    """Dict-backed backend: ephemeral gateways and fast unit tests."""

    def __init__(self) -> None:
        self._rows: Dict[int, JobRecord] = {}
        self._log: List[Transition] = []
        self._next_id = 1

    def next_job_id(self) -> int:
        nid, self._next_id = self._next_id, self._next_id + 1
        return nid

    def insert(self, record: JobRecord) -> None:
        if record.job_id in self._rows:
            raise ValueError(f"job {record.job_id} already in ledger")
        self._rows[record.job_id] = record
        self._next_id = max(self._next_id, record.job_id + 1)
        self._log.append(
            Transition(record.job_id, None, record.status, record.submitted_at)
        )

    def update(self, record: JobRecord, frm: JobStatus) -> None:
        self._rows[record.job_id] = record
        self._log.append(
            Transition(
                record.job_id,
                frm,
                record.status,
                record.updated_at,
                record.node_id,
            )
        )

    def get(self, job_id: int) -> Optional[JobRecord]:
        return self._rows.get(job_id)

    def all_records(
        self, status: Optional[JobStatus] = None
    ) -> List[JobRecord]:
        rows = sorted(self._rows.values(), key=lambda r: r.job_id)
        if status is None:
            return rows
        return [r for r in rows if r.status is status]

    def counts(self) -> Dict[JobStatus, int]:
        out = {status: 0 for status in JobStatus}
        for record in self._rows.values():
            out[record.status] += 1
        return out

    def transitions(self, job_id: Optional[int] = None) -> List[Transition]:
        if job_id is None:
            return list(self._log)
        return [t for t in self._log if t.job_id == job_id]

    def close(self) -> None:
        pass


class SqliteBackend(LedgerBackend):
    """sqlite3 persistence in WAL mode.

    WAL keeps readers and the single writer from blocking each other and —
    the property the restart tests depend on — makes every committed
    transition durable against ``kill -9``.  ``synchronous=NORMAL`` is the
    standard WAL pairing: fsync on checkpoint, not per commit; a process
    kill can never tear a transaction, only an OS crash can lose the tail.

    The backend serialises its own access with a lock so the asyncio
    gateway's handlers and any helper thread share one connection safely.
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
        self._init_schema()

    def _init_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS jobs (
                    job_id INTEGER PRIMARY KEY,
                    spec TEXT NOT NULL,
                    status TEXT NOT NULL,
                    node_id INTEGER,
                    attempts INTEGER NOT NULL DEFAULT 0,
                    submitted_at REAL NOT NULL,
                    updated_at REAL NOT NULL,
                    detail TEXT NOT NULL DEFAULT ''
                )
                """
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS transitions (
                    seq INTEGER PRIMARY KEY AUTOINCREMENT,
                    job_id INTEGER NOT NULL,
                    frm TEXT,
                    to_status TEXT NOT NULL,
                    at REAL NOT NULL,
                    node_id INTEGER
                )
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status)"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_transitions_job "
                "ON transitions(job_id)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('schema_version', ?)",
                    (SCHEMA_VERSION,),
                )
            else:
                check_schema_version(row[0], f"ledger {self.path!r}")

    def next_job_id(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(job_id), 0) + 1 FROM jobs"
            ).fetchone()
        return int(row[0])

    def insert(self, record: JobRecord) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO jobs VALUES (?,?,?,?,?,?,?,?)",
                (
                    record.job_id,
                    json.dumps(record.spec, sort_keys=True),
                    record.status.value,
                    record.node_id,
                    record.attempts,
                    record.submitted_at,
                    record.updated_at,
                    record.detail,
                ),
            )
            self._conn.execute(
                "INSERT INTO transitions (job_id, frm, to_status, at, node_id)"
                " VALUES (?,?,?,?,?)",
                (
                    record.job_id,
                    None,
                    record.status.value,
                    record.submitted_at,
                    record.node_id,
                ),
            )

    def update(self, record: JobRecord, frm: JobStatus) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE jobs SET status=?, node_id=?, attempts=?, "
                "updated_at=?, detail=? WHERE job_id=?",
                (
                    record.status.value,
                    record.node_id,
                    record.attempts,
                    record.updated_at,
                    record.detail,
                    record.job_id,
                ),
            )
            self._conn.execute(
                "INSERT INTO transitions (job_id, frm, to_status, at, node_id)"
                " VALUES (?,?,?,?,?)",
                (
                    record.job_id,
                    frm.value,
                    record.status.value,
                    record.updated_at,
                    record.node_id,
                ),
            )

    @staticmethod
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

    def get(self, job_id: int) -> Optional[JobRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id=?", (job_id,)
            ).fetchone()
        return None if row is None else self._row_to_record(row)

    def all_records(
        self, status: Optional[JobStatus] = None
    ) -> List[JobRecord]:
        with self._lock:
            if status is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY job_id"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE status=? ORDER BY job_id",
                    (status.value,),
                ).fetchall()
        return [self._row_to_record(row) for row in rows]

    def counts(self) -> Dict[JobStatus, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ).fetchall()
        out = {status: 0 for status in JobStatus}
        for status, n in rows:
            out[JobStatus(status)] = int(n)
        return out

    def transitions(self, job_id: Optional[int] = None) -> List[Transition]:
        with self._lock:
            if job_id is None:
                rows = self._conn.execute(
                    "SELECT job_id, frm, to_status, at, node_id "
                    "FROM transitions ORDER BY seq"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT job_id, frm, to_status, at, node_id "
                    "FROM transitions WHERE job_id=? ORDER BY seq",
                    (job_id,),
                ).fetchall()
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

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class JobLedger:
    """The status state machine, enforced over a backend.

    All mutation goes through :meth:`submit` and :meth:`transition`; both
    persist before returning, so callers can treat a returned record as
    durable.  ``tracer`` (optional :class:`repro.obs.Tracer`) gets one
    ``service.job_status`` event per transition — the usual
    zero-overhead-when-off guard applies.
    """

    def __init__(self, backend: LedgerBackend, tracer=None, clock=None):
        self.backend = backend
        self.tracer = tracer
        self.clock = clock

    def _t(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        return self.clock.now if self.clock is not None else 0.0

    # -- mutation ---------------------------------------------------------------
    def submit(
        self,
        spec: Dict[str, Any],
        now: Optional[float] = None,
        job_id: Optional[int] = None,
    ) -> JobRecord:
        """Insert a new job in ``SUBMITTED``; returns the durable record."""
        t = self._t(now)
        record = JobRecord(
            job_id=self.backend.next_job_id() if job_id is None else job_id,
            spec=spec,
            status=JobStatus.SUBMITTED,
            submitted_at=t,
            updated_at=t,
        )
        self.backend.insert(record)
        if self.tracer is not None:
            self.tracer.emit(
                t,
                "service.job_status",
                job=record.job_id,
                frm=None,
                to=JobStatus.SUBMITTED.value,
            )
        return record

    def transition(
        self,
        job_id: int,
        to: JobStatus,
        now: Optional[float] = None,
        node_id: Optional[int] = ...,  # ... = keep current
        attempts: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> JobRecord:
        """Move ``job_id`` to ``to``; raises :class:`IllegalTransition`."""
        record = self.backend.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} not in ledger")
        if to not in LEGAL_TRANSITIONS[record.status]:
            raise IllegalTransition(job_id, record.status, to)
        updated = replace(
            record,
            status=to,
            updated_at=self._t(now),
            node_id=record.node_id if node_id is ... else node_id,
            attempts=record.attempts if attempts is None else attempts,
            detail=record.detail if detail is None else detail,
        )
        self.backend.update(updated, record.status)
        if self.tracer is not None:
            self.tracer.emit(
                updated.updated_at,
                "service.job_status",
                job=job_id,
                frm=record.status.value,
                to=to.value,
                **({} if updated.node_id is None else {"node": updated.node_id}),
            )
        return updated

    # -- queries ----------------------------------------------------------------
    def record(self, job_id: int) -> JobRecord:
        rec = self.backend.get(job_id)
        if rec is None:
            raise KeyError(f"job {job_id} not in ledger")
        return rec

    def records(self, status: Optional[JobStatus] = None) -> List[JobRecord]:
        return self.backend.all_records(status)

    def in_flight(self) -> List[JobRecord]:
        """Every job a restarted service still owes work for."""
        return [r for r in self.backend.all_records() if not r.terminal]

    def counts(self) -> Dict[JobStatus, int]:
        """Row count per status (every status present, zero or not)."""
        return self.backend.counts()

    def completions(self, job_id: int) -> int:
        """How many times ``job_id`` reached COMPLETED (must be <= 1)."""
        return sum(
            1
            for t in self.backend.transitions(job_id)
            if t.to is JobStatus.COMPLETED
        )

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_ledger(
    path: Optional[str], tracer=None, clock=None
) -> JobLedger:
    """``path=None`` -> in-memory ledger; otherwise sqlite WAL at ``path``."""
    backend: LedgerBackend
    backend = MemoryBackend() if path is None else SqliteBackend(path)
    return JobLedger(backend, tracer=tracer, clock=clock)
