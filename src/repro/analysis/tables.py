"""Aligned text tables for experiment reports (no external deps)."""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6 or (abs(value) < 1e-3 and value != 0):
            return f"{value:.2e}"
        return f"{value:,.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str,
) -> str:
    """Render rows as a fixed-width table with a header rule."""
    rendered: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = [title]
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
