"""Per-run manifests: everything needed to identify and replay a run.

A manifest is a small JSON file written next to an experiment's CSVs that
records *how* the numbers were produced: the configuration, the seeds, the
code version (``git describe``), wall-clock cost, and the event counts of
the accompanying trace.  The trace answers "what happened"; the manifest
answers "what run is this, and can I trust/reproduce it".

Schema (see DESIGN.md § Observability):

.. code-block:: json

    {
      "name": "fig7",
      "schema_version": "1.0",    // rejected by readers on major mismatch
      "config": {...},            // experiment knobs, JSON-able
      "seed": 20110926,           // null when the experiment default was used
      "git_describe": "ac1a93a",
      "python": "3.11.7",
      "started_at": "2026-08-06T12:00:00+00:00",
      "wall_seconds": 12.3,
      "event_counts": {"hb.round": 300, ...},
      "total_events": 20411,
      "metrics": {...},           // MetricsRegistry snapshot, optional
      "artifacts": ["fig7_broken_links.csv", "fig7_trace.jsonl"]
    }
"""

from __future__ import annotations

import dataclasses
import datetime
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional

from ..analysis.export import write_json
from .schema import SCHEMA_VERSION

__all__ = ["RunManifest", "git_describe"]


def git_describe() -> str:
    """``git describe --always --dirty`` or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclasses.dataclass
class RunManifest:
    """Mutable while the run executes; ``write`` freezes it to JSON."""

    name: str
    schema_version: str = SCHEMA_VERSION
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: Optional[int] = None
    git_describe: str = dataclasses.field(default_factory=git_describe)
    python: str = dataclasses.field(default_factory=platform.python_version)
    started_at: str = dataclasses.field(
        default_factory=lambda: datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds")
    )
    wall_seconds: Optional[float] = None
    event_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    artifacts: List[str] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def total_events(self) -> int:
        return sum(self.event_counts.values())

    def finish(self) -> None:
        """Stamp the wall-clock duration (idempotent once set)."""
        if self.wall_seconds is None:
            self.wall_seconds = round(time.monotonic() - self._t0, 3)

    def as_dict(self) -> Dict[str, Any]:
        d = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }
        d["total_events"] = self.total_events
        return d

    def write(self, path: str) -> str:
        """Atomically write the manifest JSON to ``path``."""
        self.finish()
        return write_json(path, self.as_dict())
