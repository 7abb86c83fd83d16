"""Deterministic random-number management.

A simulation draws randomness for several independent purposes (workload
generation, virtual-dimension coordinates, probabilistic job pushing, churn
event timing).  Using a single generator couples them: adding one draw in the
workload shifts every later pushing decision.  :class:`RngRegistry` instead
derives an independent, reproducible :class:`numpy.random.Generator` per
named *stream* from a master seed, so experiments stay replayable and
components stay decoupled.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Named, independently-seeded random streams derived from one seed."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream seed is derived by hashing (master seed, name) through
        :class:`numpy.random.SeedSequence`, so distinct names yield
        statistically independent streams and the mapping is stable across
        runs and platforms.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            entropy = [self._seed] + [ord(c) for c in name]
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            self._streams[name] = gen
        return gen

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"
