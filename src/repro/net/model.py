"""Deterministic network-realism model: loss, latency, flapping links.

Every unreliable message in the maintenance protocols traverses one
:class:`NetworkModel` — the single channel abstraction that replaced the
scattered inline ``loss_rng.random() < loss_rate`` sites.  A model is
built from a frozen :class:`NetworkSpec` (so it can live inside frozen
simulation configs) and answers one question per send, through two entry
points that share one verdict order::

    latency = model.transmit(src, dst, now)         # None -> dropped
    latencies = model.transmit_many(src, dsts, now)  # the same, per dst

``transmit_many`` is a sender's whole turn (or a notify fan-out) decided
at once; ``transmit`` is the same for one destination.  A caller whose second
send depends on the verdict of its first (request/reply, forward/ack)
stays on ``transmit``.

The design constraint throughout is *determinism with order
independence*:

* **Loss** is the only feature that consumes the shared RNG stream, and
  it draws exactly one uniform per send that survived the cuts — the
  same draw pattern as the historical inline sites, so a loss-only model
  replays old seeded runs byte-for-byte.  A batch draws its survivors'
  uniforms in one ``Generator.random(k)``, which fills the array with
  the doubles ``k`` scalar calls would have returned, in order.
* **Flapping links** are a pure function of ``(src, dst, now)`` — no
  RNG at all.  Which links a flap storm affects and the phase of each
  link's up/down square wave come from a splitmix64 hash of the link
  pair, so two simulations that send in different orders still see
  identical link schedules.
* **Latency** is drawn per *directed* link pair from a hash-seeded
  uniform pair (never the shared stream) and cached by ``(src, dst)``,
  so a pair's latency is stable for the run and independent of when it
  is first used.

The :data:`IDENTITY` singleton is the ideal channel: protocols bypass it
entirely (no draws, no counters), which is what keeps the seeded goldens
and ``trace_sha256`` pins of loss-free runs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LatencySpec",
    "FlapSpec",
    "NetworkSpec",
    "NetworkModel",
    "IDENTITY",
]

_INF = math.inf


# ---------------------------------------------------------------- hashing --
def _splitmix64(x: int) -> int:
    """One splitmix64 round: cheap, well-mixed 64-bit hash step."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mix(*parts: int) -> int:
    """Hash a tuple of ints into a 64-bit value, order-sensitive."""
    h = 0x5851F42D4C957F2D
    for p in parts:
        h = _splitmix64(h ^ (p & 0xFFFFFFFFFFFFFFFF))
    return h


def _unit(h: int) -> float:
    """Map a 64-bit hash to a uniform in [0, 1)."""
    return (h >> 11) / float(1 << 53)


# ------------------------------------------------------------------ specs --
@dataclass(frozen=True)
class LatencySpec:
    """Per-link one-way latency distribution (seconds).

    ``constant`` uses ``low``; ``uniform`` draws from [low, high);
    ``lognormal`` draws exp(mu + sigma·z) with z standard normal — the
    classic heavy-tailed WAN latency shape.
    """

    kind: str = "constant"
    low: float = 0.0
    high: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform", "lognormal"):
            raise ValueError(f"unknown latency kind {self.kind!r}")
        if self.kind == "uniform" and self.high < self.low:
            raise ValueError("uniform latency needs high >= low")
        if self.low < 0.0:
            raise ValueError("latency cannot be negative")
        if self.kind == "lognormal" and self.sigma < 0.0:
            raise ValueError("lognormal sigma cannot be negative")

    def draw(self, u1: float, u2: float) -> float:
        """Latency from two unit uniforms (hash-derived, not the RNG)."""
        if self.kind == "constant":
            return self.low
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * u1
        # Box-Muller; clamp u1 away from 0 so log() is finite
        z = math.sqrt(-2.0 * math.log(max(u1, 1e-12))) * math.cos(
            2.0 * math.pi * u2
        )
        return math.exp(self.mu + self.sigma * z)


@dataclass(frozen=True)
class FlapSpec:
    """Flapping links: an up/down square wave over a window.

    During [start, end), a ``fraction`` of undirected link pairs flap:
    each affected link repeats ``down`` seconds unreachable then ``up``
    seconds fine, debounce-style — the link state only changes at
    schedule edges, never per message.  Which links flap and each link's
    phase offset are hashed from the (unordered) pair, so the same links
    flap with the same schedule regardless of traffic order.
    """

    down: float
    up: float
    fraction: float = 1.0
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.down <= 0.0 or self.up < 0.0:
            raise ValueError("flap needs down > 0 and up >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("flap fraction must be in (0, 1]")
        if self.end < self.start:
            raise ValueError("flap needs end >= start")

    def link_down(self, src: int, dst: int, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        a, b = (src, dst) if src <= dst else (dst, src)
        h = _mix(0, 0xF1A9, a, b)
        if self.fraction < 1.0 and _unit(h) >= self.fraction:
            return False  # this link sat the storm out
        cycle = self.down + self.up
        phase = _unit(_splitmix64(h)) * cycle
        return (now - self.start + phase) % cycle < self.down


@dataclass(frozen=True)
class NetworkSpec:
    """Frozen description of a network model; ``build()`` makes it live.

    ``loss`` is the uniform Bernoulli drop probability (closed interval
    [0, 1]: 1.0 is a total blackout).
    """

    loss: float = 0.0
    latency: Optional[LatencySpec] = None
    flaps: Tuple[FlapSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flaps", tuple(self.flaps))
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")

    @property
    def identity(self) -> bool:
        return self.loss == 0.0 and self.latency is None and not self.flaps

    def build(self, rng: Optional[np.random.Generator]) -> "NetworkModel":
        return NetworkModel(self, rng)


# ------------------------------------------------------------------ model --
class NetworkModel:
    """Live channel: per-send verdicts plus delivery accounting.

    Counters (``attempts``, ``delivered``, ``drops`` by reason) feed the
    mid-flight invariant checkers: every attempted send must be exactly
    one of delivered or dropped.
    """

    __slots__ = (
        "spec",
        "is_identity",
        "_rng",
        "_latency_cache",
        "attempts",
        "delivered",
        "drops",
    )

    def __init__(
        self,
        spec: NetworkSpec = NetworkSpec(),
        rng: Optional[np.random.Generator] = None,
    ):
        if spec.loss > 0.0 and rng is None:
            raise ValueError("message loss needs a seeded rng")
        self.spec = spec
        #: the spec is frozen, so whether this is the ideal channel is
        #: decided once (protocols ask before every send)
        self.is_identity = spec.identity
        self._rng = rng
        self._latency_cache: Dict[Tuple[int, int], float] = {}
        self.attempts = 0
        self.delivered = 0
        self.drops = {"loss": 0, "link_down": 0}

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    def transmit(self, src: int, dst: int, now: float) -> Optional[float]:
        """One attempted send: None when dropped, else one-way latency.

        :meth:`transmit_many` for one destination, kept as its own body:
        run as a batch of one, a send costs 1.5-2.8x as much (a list and a
        one-element array per call), which the request/reply and
        forward/ack pairs that have to ask send by send would pay.
        """
        if self.is_identity:
            return 0.0  # ideal channel: no draws, no accounting
        spec = self.spec
        self.attempts += 1
        if spec.flaps and self._cut(src, dst, now):
            return None
        if spec.loss > 0.0 and self._rng.random() < spec.loss:
            self.drops["loss"] += 1
            return None
        self.delivered += 1
        return 0.0 if spec.latency is None else self._latency(src, dst)

    def transmit_many(
        self, src: int, dsts: Sequence[int], now: float
    ) -> List[Optional[float]]:
        """``src``'s sends to ``dsts``, decided in order: per destination,
        None when dropped, else the one-way latency.

        Verdict order: link flap (RNG-free), then the Bernoulli loss draw,
        then the link latency — so deterministic cuts never consume the
        shared RNG stream, and a loss-only model draws exactly one uniform
        per send (the historical inline-site behaviour).  The sends that survive the cuts draw together: the
        verdicts, the counters and the generator state afterwards are
        those of a ``transmit`` call per destination.
        """
        spec = self.spec
        if self.is_identity:
            return [0.0] * len(dsts)  # ideal channel: no draws, no accounting
        out: List[Optional[float]] = [None] * len(dsts)
        self.attempts += len(dsts)
        #: positions in ``dsts`` still on their way
        alive: Sequence[int] = range(len(dsts))
        if spec.flaps:
            alive = [i for i in alive if not self._cut(src, dsts[i], now)]
        if spec.loss > 0.0:
            draws = self._rng.random(len(alive)).tolist()
            kept = [i for i, u in zip(alive, draws) if u >= spec.loss]
            self.drops["loss"] += len(alive) - len(kept)
            alive = kept
        self.delivered += len(alive)
        if spec.latency is None:
            for i in alive:
                out[i] = 0.0
        else:
            cached = self._latency_cache.get
            for i in alive:
                lat = cached((src, dsts[i]))
                out[i] = self._latency(src, dsts[i]) if lat is None else lat
        return out

    def _cut(self, src: int, dst: int, now: float) -> bool:
        """Is this send blocked by a down link?  Counted."""
        for flap in self.spec.flaps:
            if flap.link_down(src, dst, now):
                self.drops["link_down"] += 1
                return True
        return False

    def _latency(self, src: int, dst: int) -> float:
        """The directed link's latency: hash-seeded, drawn once, cached."""
        key = (src, dst)
        lat = self._latency_cache.get(key)
        if lat is None:
            h = _mix(0, 0x1A7E, src, dst)
            lat = self.spec.latency.draw(_unit(h), _unit(_splitmix64(h)))
            self._latency_cache[key] = lat
        return lat

    def counters(self) -> Dict[str, int]:
        """Accounting snapshot for invariants, traces, and reports."""
        out = {"attempts": self.attempts, "delivered": self.delivered}
        for reason, count in self.drops.items():
            out[f"dropped_{reason}"] = count
        return out


#: the ideal channel — shared, stateless in practice (protocols bypass it
#: before any counter could move)
IDENTITY = NetworkModel()
