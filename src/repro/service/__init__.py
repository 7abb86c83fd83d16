"""repro.service — the live job-submission gateway over the protocol stack.

The batch simulator and this service share every protocol component
(overlay, heartbeat engine, matchmakers, recovery loop); what differs is the
clock they run on and where job state lives:

* :mod:`repro.service.aclock` — the wall-clock backend of the
  :class:`~repro.sim.clock.Clock` seam (asyncio, with time dilation);
* :mod:`repro.service.ledger` — the persistent job ledger (one sqlite
  WAL store, a file or ``:memory:``) whose status state machine is the
  single source of truth for job lifecycle;
* :mod:`repro.service.core` — :class:`GridService`, the clock-agnostic
  engine wiring matchmaker + aggregation + heartbeat + ledger together;
* :mod:`repro.service.gateway` — the asyncio JSON/REST front end
  (``python -m repro.service serve``);
* :mod:`repro.service.client` — the typed client library;
* :mod:`repro.service.replay` — record/replay of workload traces against
  a live gateway (``python -m repro.service replay``).
"""

from .aclock import AsyncioClock
from .client import JobView, ServiceClient, ServiceError
from .core import CancelError, GridService, ServiceConfig
from .gateway import Gateway
from .ledger import (
    TERMINAL_STATES,
    IllegalTransition,
    JobLedger,
    JobRecord,
    JobStatus,
    open_ledger,
)

__all__ = [
    "AsyncioClock",
    "CancelError",
    "Gateway",
    "GridService",
    "IllegalTransition",
    "JobLedger",
    "JobRecord",
    "JobStatus",
    "JobView",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TERMINAL_STATES",
    "open_ledger",
]
