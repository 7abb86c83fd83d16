"""CSV/JSON export for experiment results (stdlib only, ``results/`` dir).

All writers are *atomic*: content is staged in a temp file in the target
directory and ``os.replace``d into place, so an interrupted experiment can
never leave a truncated ``results/*.csv`` (or manifest) behind — readers
see either the previous complete file or the new complete file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Any, Iterable, Sequence

__all__ = ["write_csv", "write_json", "atomic_write_text"]


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    Parent directories are created.  The temp file lives in the same
    directory as the target so the final ``os.replace`` never crosses a
    filesystem boundary.
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def write_csv(
    path: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Atomically write rows to ``path`` (parent directories created)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        writer.writerow(row)
    return atomic_write_text(path, buf.getvalue())


def write_json(path: str, payload: Any) -> str:
    """Atomically write ``payload`` as pretty-printed, key-sorted JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    return atomic_write_text(path, text)
