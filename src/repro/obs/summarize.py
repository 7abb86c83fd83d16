"""Offline trace analysis: ``python -m repro.obs summarize <trace.jsonl>``.

Reads a JSONL trace produced by :class:`~repro.obs.trace.JsonlTraceWriter`
and reports:

* per-event-type counts over the whole file;
* protocol message counts and byte volumes broken down by message type,
  grouped per run (a trace may hold several ``run.start``-delimited runs,
  e.g. one per heartbeat scheme in fig7);
* push-hop histograms from matchmaking placements.

A run's message numbers are the ``sent`` field of its last ``hb.round``:
every round carries the protocol's :class:`~repro.can.stats.MessageStats`
totals so far, so the last one *is* the ledger, by construction.  They are
the measurement window's totals — the window :meth:`MessageStats.rates`
divides by — so the sends of a warm-up that ``ChurnSimulation`` cleared
with ``reset_window`` are not in them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..analysis.tables import format_table
from .trace import read_trace

__all__ = ["TraceSummary", "summarize_events", "summarize_file", "render_summary"]


class TraceSummary:
    """Aggregates computed from one pass over an event stream."""

    def __init__(self) -> None:
        #: event-type -> count, whole file
        self.event_counts: Dict[str, int] = {}
        #: run label -> {"scheme": ..., "messages": {mtype: count},
        #:               "bytes": {mtype: bytes}}
        self.runs: Dict[str, Dict[str, Any]] = {}
        #: push-hop count -> number of placements
        self.hop_histogram: Dict[int, int] = {}
        self.total_events = 0

    # -- derived views ---------------------------------------------------------
    def heartbeat_volume_by_scheme(self) -> Dict[str, float]:
        """Scheme -> total heartbeat bytes (full + compact), summed over runs."""
        out: Dict[str, float] = {}
        for info in self.runs.values():
            scheme = str(info.get("scheme", "?"))
            hb = sum(
                b
                for mtype, b in info["bytes"].items()
                if mtype.startswith("heartbeat")
            )
            out[scheme] = out.get(scheme, 0.0) + hb
        return out


def summarize_events(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """One pass over decoded event dicts."""
    s = TraceSummary()
    current: Optional[Dict[str, Any]] = None
    for ev in events:
        etype = ev.get("type", "?")
        s.total_events += 1
        s.event_counts[etype] = s.event_counts.get(etype, 0) + 1
        if etype == "run.start":
            label = str(ev.get("label", f"run-{len(s.runs)}"))
            current = s.runs.setdefault(
                label,
                {"scheme": ev.get("scheme"), "messages": {}, "bytes": {}},
            )
        elif etype == "hb.round":
            if current is None:
                current = s.runs.setdefault(
                    "(unlabelled)", {"scheme": None, "messages": {}, "bytes": {}}
                )
            # running totals: each round's replace the last's
            sent = ev.get("sent", {})
            current["messages"] = {m: n for m, (n, _) in sent.items()}
            current["bytes"] = {m: b for m, (_, b) in sent.items()}
        elif etype == "mm.placed":
            hops = int(ev.get("hops", 0))
            s.hop_histogram[hops] = s.hop_histogram.get(hops, 0) + 1
    return s


def summarize_file(path: str) -> TraceSummary:
    return summarize_events(read_trace(path))


def render_summary(s: TraceSummary, path: str) -> str:
    """Human-readable report (tables share the repo's formatting)."""
    chunks: List[str] = []
    title = f"Trace summary — {path}"
    chunks.append(f"{title}\n{'=' * len(title)}")
    chunks.append(f"total events: {s.total_events}")

    chunks.append(
        format_table(
            ["event type", "count"],
            [[etype, count] for etype, count in sorted(s.event_counts.items())],
            title="Events by type",
        )
    )

    for label, info in s.runs.items():
        if not info["messages"]:
            continue
        rows = [
            [mtype, info["messages"][mtype], f"{info['bytes'][mtype] / 1024.0:.2f}"]
            for mtype in sorted(info["messages"])
        ]
        rows.append(
            [
                "TOTAL",
                sum(info["messages"].values()),
                f"{sum(info['bytes'].values()) / 1024.0:.2f}",
            ]
        )
        scheme = info.get("scheme")
        suffix = f" (scheme: {scheme})" if scheme else ""
        chunks.append(
            format_table(
                ["message type", "messages", "KB"],
                rows,
                title=f"Message volume — {label}{suffix}",
            )
        )

    by_scheme = {k: v for k, v in s.heartbeat_volume_by_scheme().items() if v}
    if by_scheme:
        chunks.append(
            format_table(
                ["scheme", "heartbeat KB"],
                [
                    [scheme, f"{b / 1024.0:.2f}"]
                    for scheme, b in sorted(by_scheme.items())
                ],
                title="Heartbeat volume by scheme",
            )
        )

    if s.hop_histogram:
        total = sum(s.hop_histogram.values())
        rows = [
            [hops, count, f"{100.0 * count / total:.1f}"]
            for hops, count in sorted(s.hop_histogram.items())
        ]
        chunks.append(
            format_table(
                ["push hops", "placements", "%"],
                rows,
                title="Push-hop histogram",
            )
        )
    return "\n\n".join(chunks)
