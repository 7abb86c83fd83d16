"""Span tracing from outside the program.

The traced pass wraps the calls *into* each layer -- bound methods on the
objects the harness built, or a public class/module attribute where the
object is created inside a constructor -- and never edits ``src/``.  Spans
(name, start, end, parent, run id) stay in memory until the run ends.
Boundaries crossed more than ~100k times a run keep a count and a total
only.  A layer's self time is its spans' duration minus the part their
child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable
from typing import Any

_MISSING = object()


class Tracer:
    """Wraps callables and records one span per call, on one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (name, start, end, parent span index or -1), in start order
        self.spans: list[Any] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        #: open calls, innermost last: [child seconds, span index]
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def timed(
        self,
        fn: Callable,
        name: str,
        spans: bool = True,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded under ``name``.

        ``spans=False`` keeps count and totals only; ``on_result`` sees
        every return value (for ratios measured where the work happens).
        """
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, span_list, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if spans:
                index = len(span_list)
                span_list.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[0]
                if spans:
                    span_list[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its :meth:`timed` form until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.timed(getattr(owner, attr), name, **options))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self) -> float:
        """Self time summed over every layer: the attributed seconds."""
        return sum(t[2] for t in self.totals.values())

    def durations(
        self, name: str, parent: str | None = None, under: bool = True
    ) -> list[float]:
        """Seconds of each ``name`` span; with ``parent``, only those whose
        direct parent span is (``under``) or is not named ``parent``."""
        out = []
        for span in self.spans:
            if span[0] != name:
                continue
            if parent is not None:
                parent_name = self.spans[span[3]][0] if span[3] >= 0 else None
                if (parent_name == parent) != under:
                    continue
            out.append(span[2] - span[1])
        return out

    def layer_table(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": int(t[0]), "total_s": t[1], "self_s": t[2]}
            for name, t in sorted(self.totals.items())
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "layers": self.layer_table(),
                    "spans": [
                        {"id": i, "name": s[0], "start": s[1], "end": s[2],
                         "parent": s[3]}
                        for i, s in enumerate(self.spans)
                    ],
                },
                fh,
            )


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
