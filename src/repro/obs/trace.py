"""JSONL trace export and the per-run recording harness.

:class:`JsonlTraceWriter` is a bus subscriber that serialises every event
as one JSON object per line.  The first line is a schema header
(``{"schema_version": ..., "type": "trace.header"}``); readers use it to
reject traces written under an incompatible major version.  Serialisation
is canonical (sorted keys, compact separators), so a deterministic
simulation produces a byte-identical trace file — the determinism tests
diff the raw bytes.

:class:`RunRecorder` bundles what every experiment wants: a tracer wired
to a JSONL writer, plus a manifest that is finalised (event counts,
wall time, artifact list) and atomically written when the recorder closes.

Both are safe under abrupt shutdown — what an asyncio gateway killed by a
signal needs: every event is serialised and written in a *single*
``write`` call (a line is either fully present or absent, never torn),
``close`` is idempotent, and construction registers an ``atexit`` hook so
an un-closed writer still flushes its file and an un-closed recorder
still writes its manifest when the interpreter exits.
"""

from __future__ import annotations

import atexit
import gzip
import json
import os
from typing import Any, Dict, IO, Optional

from .events import TraceEvent, Tracer
from .manifest import RunManifest
from .schema import SCHEMA_VERSION, check_schema_version

__all__ = ["JsonlTraceWriter", "RunRecorder", "read_trace"]

#: canonical serialisation of the header line every trace file starts with
TRACE_HEADER = json.dumps(
    {"schema_version": SCHEMA_VERSION, "type": "trace.header"},
    sort_keys=True,
    separators=(",", ":"),
)


class JsonlTraceWriter:
    """Subscribe me to a bus; I stream events to a ``.jsonl`` file.

    ``lines`` counts *events*; the schema header line is not an event.
    """

    def __init__(self, path: str):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w")
        self._fh.write(TRACE_HEADER + "\n")
        self._closed = False
        self.lines = 0
        # a writer abandoned by a crash-path shutdown still flushes
        atexit.register(self.close)

    def __call__(self, event: TraceEvent) -> None:
        if self._closed:
            raise ValueError(f"trace writer for {self.path!r} is closed")
        line = (
            json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        # one write call per line: an interrupt between writes can drop
        # a trailing line but never leave a torn (unparseable) one
        self._fh.write(line)
        self.lines += 1

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.close()
        self._fh = None
        atexit.unregister(self.close)

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str):
    """Yield event dicts from a JSONL trace file.

    A leading ``trace.header`` record is version-checked and consumed, not
    yielded; header-less traces from before schema versioning still read.
    Raises :class:`ValueError` when the header's major version differs
    from ours.  ``.gz`` paths (a trace compressed with ``gzip``) are
    transparently decompressed.
    """
    first = True
    opener = gzip.open(path, "rt") if path.endswith(".gz") else open(path)
    with opener as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if first:
                first = False
                if record.get("type") == "trace.header":
                    check_schema_version(
                        record.get("schema_version"), f"trace {path!r}"
                    )
                    continue
            yield record


class RunRecorder:
    """Tracer + JSONL writer + manifest for one experiment invocation.

    >>> rec = RunRecorder("results", "fig7", seed=1, enabled=True)  # doctest: +SKIP
    >>> sim = ChurnSimulation(cfg, tracer=rec.tracer)               # doctest: +SKIP
    >>> rec.close(config={...})                                     # doctest: +SKIP

    When ``enabled`` is false every attribute still works but ``tracer``
    is ``None`` and nothing is written — callers can wire unconditionally.
    """

    def __init__(
        self,
        out_dir: str,
        name: str,
        seed: Optional[int],
        enabled: bool,
    ):
        self.out_dir = out_dir
        self.name = name
        self.enabled = enabled
        self.tracer: Optional[Tracer] = None
        self.writer: Optional[JsonlTraceWriter] = None
        self.manifest = RunManifest(name=name, seed=seed)
        self._closed = False
        if enabled:
            self.trace_path = os.path.join(out_dir, f"{name}_trace.jsonl")
            self.manifest_path = os.path.join(out_dir, f"{name}_run.manifest.json")
            self.writer = JsonlTraceWriter(self.trace_path)
            self.tracer = Tracer()
            self.tracer.subscribe(self.writer)
            # killed mid-run (signal unwinding, sys.exit in a handler):
            # still finalise the manifest so the trace is not orphaned
            atexit.register(self.close)
        else:
            self.trace_path = None
            self.manifest_path = None

    def run_start(self, label: str, **fields: Any) -> None:
        """Mark the start of one sub-run (e.g. one scheme) in the trace."""
        if self.tracer is not None:
            self.tracer.emit(0.0, "run.start", label=label, **fields)

    def run_end(self, label: str, t: float, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(t, "run.end", label=label, **fields)

    def close(
        self,
        config: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        artifacts: Optional[list] = None,
    ) -> Optional[str]:
        """Flush the trace and atomically write the manifest.

        Idempotent: a second close (e.g. the ``atexit`` safety net after
        a regular close) is a no-op returning the manifest path again.
        Returns ``None`` when recording is disabled.
        """
        if not self.enabled:
            return None
        if self._closed:
            return self.manifest_path
        self._closed = True
        atexit.unregister(self.close)
        if config:
            self.manifest.config.update(config)
        if metrics:
            self.manifest.metrics.update(metrics)
        if self.writer is not None:
            self.writer.close()
        self.manifest.event_counts = dict(sorted(self.tracer.counts.items()))
        self.manifest.artifacts = sorted(
            set(
                (artifacts or [])
                + [os.path.basename(self.trace_path)]
            )
        )
        return self.manifest.write(self.manifest_path)

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
