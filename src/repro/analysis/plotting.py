"""ASCII line plots — matplotlib is unavailable offline, and the figures
only need to show *shape* (who wins, growth order, plateaus)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ascii_plot"]

_MARKERS = "ox+*#%@&"

#: canvas columns of every plot
WIDTH = 72


def ascii_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    height: int,
    title: str,
    xlabel: str,
    ylabel: str,
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Plot named (x, y) series on a shared character canvas.

    Each series gets a marker from ``oxh+*...``; a legend line maps markers
    back to names.  Points landing on the same cell keep the first marker.
    """
    if not series:
        raise ValueError("no series to plot")
    xs_all = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    xs_all = xs_all[np.isfinite(xs_all)]
    ys_all = ys_all[np.isfinite(ys_all)]
    if xs_all.size == 0 or ys_all.size == 0:
        raise ValueError("series are empty")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo = float(ys_all.min()) if y_min is None else y_min
    y_hi = float(ys_all.max()) if y_max is None else y_max
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    canvas = [[" "] * WIDTH for _ in range(height)]
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            if not (np.isfinite(x) and np.isfinite(y)):
                continue
            col = int((x - x_lo) / (x_hi - x_lo) * (WIDTH - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            row = height - 1 - min(max(row, 0), height - 1)
            col = min(max(col, 0), WIDTH - 1)
            if canvas[row][col] == " ":
                canvas[row][col] = marker

    lines: List[str] = [title]
    top_label = f"{y_hi:,.6g}"
    bottom_label = f"{y_lo:,.6g}"
    label_w = max(len(top_label), len(bottom_label))
    for i, row in enumerate(canvas):
        if i == 0:
            prefix = top_label.rjust(label_w)
        elif i == height - 1:
            prefix = bottom_label.rjust(label_w)
        else:
            prefix = " " * label_w
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * WIDTH)
    x_axis = f"{x_lo:,.6g}".ljust(WIDTH // 2) + f"{x_hi:,.6g}".rjust(WIDTH - WIDTH // 2)
    lines.append(" " * (label_w + 2) + x_axis)
    lines.append(" " * (label_w + 2) + f"x: {xlabel}   y: {ylabel}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * (label_w + 2) + legend)
    return "\n".join(lines)
