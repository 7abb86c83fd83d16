"""Reference seconds: host time with the box's own speed divided out.

The box this benchmark runs on is a shared two-core VM whose speed has two
modes, about 1.2x and 1.55x the time of its best, and flips between them
every few seconds to minutes (a neighbour on the sibling hardware thread).
A bare CPU loop summed over 10 s windows has a 6-14% quartile spread and its
median drifts by 20% between one ten-minute stretch and the next; nothing
inside the program shows which mode a stretch ran in.

So every timed stretch of the benchmark has a *reference unit* run next to
it -- a fixed piece of interpreter and numpy work of the kind the program
does -- and is reported in reference seconds::

    measured CPU seconds * (UNIT_S / CPU seconds the unit took then)

the time the stretch would take on a machine on which the unit takes
exactly ``UNIT_S``.  The unit is part of the benchmark's definition: change
it and every baseline is void.  Measured on ``match_paper``,
``churn_steady_1k`` and ``chord_churn_1k`` over six minutes each, one seed:
the quartile spread of a replay's total goes from 10-14% raw to 3-9%, and of
three replays taken together to 3-5%.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds one unit takes on the reference machine (this box, on average)
UNIT_S = 400e-6

#: CPU seconds of the calling thread: stolen time and other processes on the
#: same CPU are not in it, the box's slow mode is
clock = time.thread_time

_ARRAY = np.random.default_rng(0).random((256, 22))


class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value = 1.0
        self.seen: dict[int, float] = {}

    def step(self, i: int) -> float:
        self.seen[i & 255] = self.value
        self.value = self.value * 0.999 + i
        return self.value


_CELL = _Cell()


def unit() -> None:
    """About 0.3 ms of method calls, dict and list work, 0.1 ms of numpy."""
    cell = _CELL
    total = 0.0
    for i in range(1500):
        total += cell.step(i)
    pairs = [(i, total) for i in range(200)]
    pairs.sort(key=lambda pair: -pair[0])
    x = _ARRAY
    for _ in range(3):
        (x[:, :11] < x[:, 11:]).sum(axis=1)
        np.maximum(x, x[::-1]).min(axis=0)


def sample(budget_s: float = 0.0) -> float:
    """Run units for ``budget_s`` CPU seconds, at least one; mean unit seconds."""
    start = clock()
    units = 0
    while True:
        unit()
        units += 1
        now = clock()
        if now - start >= budget_s:
            return (now - start) / units


def at_reference_speed(measured_s: float, *unit_s: float) -> float:
    """``measured_s`` divided by the slowdown the ``unit_s`` samples show."""
    return measured_s * UNIT_S * len(unit_s) / sum(unit_s)


def reference_seconds(
    measured_s: list[float], unit_s: list[float], width: int
) -> list[float]:
    """Each stretch divided by the slowdown read around it.

    ``unit_s[i]`` is the sample taken right after stretch ``i``; the
    slowdown of a stretch is read from the samples at most ``width``
    positions away.
    """
    return [
        at_reference_speed(seconds, *unit_s[max(0, i - width) : i + width + 1])
        for i, seconds in enumerate(measured_s)
    ]
