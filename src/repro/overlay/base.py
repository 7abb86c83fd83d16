"""The overlay-substrate surface: what a DHT must provide to host the grid.

The matchmakers (:mod:`repro.sched`), the aggregation engine, and the
churn/fault simulations were written against the concrete surface of
:class:`~repro.can.overlay.CanOverlay`.  This module names that surface so
a rival substrate (``repro.chord``) can slot in underneath them unchanged:

* :class:`OverlaySubstrate` — the *ground-truth* structure: membership,
  coordinates, ownership of the resource space, neighbor queries, and the
  join/leave/fail/claim mutation surface.  CAN's "zone" vocabulary
  generalises: ``locate_owner`` maps a point of the
  :class:`~repro.can.space.ResourceSpace` to its owning node (CAN: the
  containing leaf's owner; Chord: the successor of the point's ring key),
  ``claim_zones`` executes the predetermined take-over of a dead member's
  region (CAN: split-history zone transfers; Chord: arc absorption by the
  successor), and ``check_invariants`` audits full coverage of the space
  (CAN: the zone partition; Chord: full-ring key coverage).  A
  :func:`typing.runtime_checkable` structural protocol — overlays conform
  without inheriting from anything here.

* :class:`MaintenanceProtocol` — the *information* plane: per-node believed
  state driven by heartbeat rounds, with failure detection, take-over
  execution, message accounting and the broken-link time series.  The
  paper's Section IV policy (heartbeat, time out, take over, repair on a
  detected broken link; vanilla / compact / adaptive) is one policy, so
  this is the concrete base class that implements the round once;
  substrates subclass it and supply only what is shaped like their beliefs
  (neighbor-zone tables for CAN, successor lists and fingers for Chord).
  :class:`~repro.gridsim.churn.ChurnSimulation`,
  :class:`~repro.gridsim.faulty.FaultyGridSimulation` and the invariant
  checkers drive either substrate through this one surface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..can.messages import MessageType, SizeModel
from ..can.stats import MessageStats
from ..net import IDENTITY, NetworkModel
from ..sim.monitor import TimeSeries

__all__ = [
    "OverlaySubstrate",
    "MaintenanceProtocol",
    "HeartbeatScheme",
    "ProtocolConfig",
    "SubstrateError",
]


class SubstrateError(Exception):
    """Structural overlay violation (bad join, unknown member, ...).

    Substrate implementations raise their own subclass
    (:class:`~repro.can.overlay.OverlayError`,
    :class:`~repro.chord.ring.ChordError`); substrate-generic callers
    catch this base.
    """


@runtime_checkable
class OverlaySubstrate(Protocol):
    """Ground-truth overlay structure over a :class:`ResourceSpace`.

    Implementations: :class:`~repro.can.overlay.CanOverlay`,
    :class:`~repro.chord.ring.ChordRing`.
    """

    #: the resource space whose points the overlay partitions
    space: Any
    #: bumped on every structural change; consumers key caches off it
    topology_version: int
    #: node_id -> member state; ``len`` counts dead-but-unclaimed too
    members: Dict[int, Any]

    # -- queries ------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of members, dead-but-unclaimed included."""
        ...

    def alive_ids(self) -> List[int]:
        """Ids of live members (insertion order is implementation-defined)."""
        ...

    def dead_ids(self) -> Set[int]:
        """Members still holding territory but no longer alive."""
        ...

    def is_alive(self, node_id: int) -> bool: ...

    def coordinate(self, node_id: int) -> Tuple[float, ...]:
        """The member's resource-space coordinate."""
        ...

    def neighbors(self, node_id: int) -> Set[int]:
        """Ground-truth routing neighbors (liveness not filtered)."""
        ...

    def neighbors_along(self, node_id: int, dim: int, direction: int) -> Set[int]:
        """Neighbors in the +1/-1 direction along resource dimension ``dim``.

        This is the query the directional aggregation flow and the
        matchmakers' push scopes are built on.
        """
        ...

    def locate_owner(self, point: Sequence[float]) -> int:
        """The member owning ``point`` (dead owners included: ghost regions
        remain registered to them until claimed)."""
        ...

    def takeover_targets(
        self, node_id: int, dead: Optional[Set[int]] = None
    ) -> Set[int]:
        """Who would absorb this node's territory if it vanished now."""
        ...

    # -- mutation -----------------------------------------------------------
    def add_node(self, node_id: int, coord: Sequence[float]) -> Any:
        """Bootstrap or join; returns a substrate-specific join summary.

        Raises :class:`SubstrateError` when the join cannot proceed (e.g.
        the target region belongs to a failed-but-unclaimed member).
        """
        ...

    def graceful_leave(self, node_id: int) -> List[Any]:
        """Voluntary departure; territory hands off immediately.

        Returns the list of transfers (substrate-specific records exposing
        at least ``from_node`` and ``to_node``).
        """
        ...

    def fail(self, node_id: int) -> None:
        """Silent crash: territory lingers with the ghost until claimed."""
        ...

    def claim_zones(self, dead_id: int) -> List[Any]:
        """Execute the predetermined take-over for a detected failure."""
        ...

    # -- audit --------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the overlay fully and
        consistently covers the resource space (CAN: zone partition with
        symmetric adjacency; Chord: sorted ring with full key coverage)."""
        ...


class HeartbeatScheme(enum.Enum):
    VANILLA = "vanilla"
    COMPACT = "compact"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the maintenance protocol."""

    scheme: HeartbeatScheme = HeartbeatScheme.VANILLA
    #: heartbeat period in simulated seconds
    period: float = 60.0
    #: a neighbor is declared failed after this many silent periods
    failure_timeout_periods: float = 2.5
    #: adaptive: how many consecutive rounds a node keeps re-requesting
    #: full updates while its detected gap persists before giving up
    gap_retry_rounds: int = 2
    #: adaptive: also run the coverage check every k rounds even without a
    #: local table change (0 disables the periodic check)
    periodic_gap_check_every: int = 0
    #: adaptive's gap detector: "coverage" runs the real local zone-face
    #: coverage computation over believed zones (repro.can.coverage);
    #: "oracle" compares against ground truth (an idealised upper bound)
    detection: str = "coverage"
    size_model: SizeModel = field(default_factory=SizeModel)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.failure_timeout_periods < 1:
            raise ValueError("failure timeout must be at least one period")
        if self.gap_retry_rounds < 0 or self.periodic_gap_check_every < 0:
            raise ValueError("retry/periodic settings must be non-negative")
        if self.detection not in ("coverage", "oracle"):
            raise ValueError(f"unknown detection mode {self.detection!r}")

    @property
    def failure_timeout(self) -> float:
        return self.period * self.failure_timeout_periods


class MaintenanceProtocol:
    """The maintenance round every substrate runs under churn.

    Owns the policy: phase order, what crosses the channel, when a late
    message lands and with which evidence stamp, when a crash counts as
    detected, when territory is claimed and stored state purged, and the
    adaptive request -> reply-next-round loop.  Subclasses
    (:class:`~repro.can.heartbeat.HeartbeatProtocol` and its array-engine
    subclass, :class:`~repro.chord.protocol.ChordMaintenanceProtocol`) own
    the believed-state representation and override the methods grouped
    under "substrate hooks" below; their per-node state objects expose
    ``node_id``, ``gap_dirty`` and ``gap_attempts``.

    Hooks fire per phase, per node a phase visits, or per repair/claim
    event — never per delivered heartbeat: the exchange loop belongs to the
    substrate whole, because that is where a round's time goes.
    """

    #: prefix of the substrate's membership trace events (``can.join`` ...)
    event_prefix = ""

    def __init__(
        self,
        overlay: OverlaySubstrate,
        config: ProtocolConfig,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ):
        self.overlay = overlay
        self.config = config
        #: optional repro.obs.Tracer; None keeps every emit site to a
        #: single attribute test (the default, benchmark-grade path)
        self.tracer = tracer
        #: optional repro.obs.MetricsRegistry; when present the protocol
        #: streams crash->detection latencies into a constant-memory
        #: quantile sketch under ``hb.detection_latency`` and one-way
        #: delivery latencies under ``net.delivery_latency``
        self.metrics = metrics
        self._detection_sketch = (
            metrics.scope("hb").quantile_sketch("detection_latency")
            if metrics is not None
            else None
        )
        self._net_sketch = (
            metrics.scope("net").quantile_sketch("delivery_latency")
            if metrics is not None
            else None
        )
        #: per-message-type counts and bytes (drives the fig8 rates)
        self.stats = MessageStats()
        #: node_id -> per-node protocol state, one entry per overlay member
        self.nodes: Dict[int, Any] = {}
        #: cached sorted member ids; None after any membership change
        self._nodes_order: Optional[List[int]] = None
        #: believed/ground-truth divergence over time (drives fig7)
        self.broken_links = TimeSeries("broken_links")
        #: the membership ledger
        self.events = {"joins": 0, "leaves": 0, "failures": 0, "claims": 0}
        #: crash time per failed-but-unclaimed member
        self._fail_times: Dict[int, float] = {}
        self._pending_joins: List[Tuple[int, Tuple[float, ...]]] = []
        self._round = 0
        self._now = 0.0
        #: full-update replies in flight, as (requester id, payload) — sent
        #: in one round, delivered with the next round's messages (one
        #: heartbeat period of latency)
        self._reply_queue: List[Tuple[int, Any]] = []
        #: reverse index of the per-node stored full-state copies: subject
        #: id -> ids of nodes holding a copy.  Lets a departure purge the
        #: subject's entries without sweeping the whole population.
        self._stored_in: Dict[int, Set[int]] = {}
        #: optional hook fired once per genuinely-failed node, the first
        #: time any live believer times it out (or at claim time, whichever
        #: comes first): ``fn(dead_id, now)``.  The faulty-grid layer hangs
        #: job resubmission off this, so recovery starts when the *protocol*
        #: notices a crash rather than after a modelled constant.
        self.on_failure_detected: Optional[Callable[[int, float], None]] = None
        #: failed ids already reported through on_failure_detected
        self._detected_failures: Set[int] = set()
        #: the network channel every unreliable send traverses (loss,
        #: partitions, flapping links, latency).  The IDENTITY default is
        #: bypassed entirely — no RNG draws — keeping seeded runs unchanged.
        self.net: NetworkModel = IDENTITY
        #: heartbeats in flight with super-period latency, as (arrival,
        #: kind, receiver id, sender id, payload, send time); drained by
        #: the first round at/after arrival
        self._deferred: List[Tuple[float, str, int, int, Any, float]] = []

    @classmethod
    def build(cls, overlay, config, network: Optional[NetworkModel] = None, **kwargs):
        """The substrate-factory form (``SubstrateDescriptor.make_protocol``):
        construct on ``network``, None being the ideal channel."""
        proto = cls(overlay, config, **kwargs)
        proto.set_network(network)
        return proto

    def _record(
        self, now: float, mtype: MessageType, size_bytes: int, copies: int = 1
    ) -> None:
        """Account a send in MessageStats and mirror it onto the tracer.

        Emitting from the same call site that feeds the stats keeps traces
        consistent with :class:`MessageStats` by construction.
        """
        self.stats.record(mtype, size_bytes, copies)
        if self.tracer is not None and copies:
            self.tracer.emit(
                now, "msg.sent", mtype=mtype.value, bytes=size_bytes, copies=copies
            )

    # ------------------------------------------------------------------ membership --
    def _make_node(self, node_id: int) -> Any:
        node = self.nodes[node_id] = self._new_node(node_id)
        self._nodes_order = None
        return node

    def _drop_node(self, node_id: int) -> None:
        del self.nodes[node_id]
        self._nodes_order = None
        # its stored copies went with it: the reverse index names live holders
        for holders in self._stored_in.values():
            holders.discard(node_id)

    def _sorted_node_ids(self) -> List[int]:
        """Sorted member ids, cached until the membership changes.

        Callers iterate but never mutate the returned list; any join or
        departure resets ``_nodes_order`` to None.
        """
        order = self._nodes_order
        if order is None:
            order = self._nodes_order = sorted(self.nodes)
        return order

    def bootstrap(self, node_id: int, coord: Sequence[float], now: float = 0.0) -> None:
        """Insert the very first member."""
        self.overlay.add_node(node_id, coord)
        self._make_node(node_id)

    def join(self, node_id: int, coord: Sequence[float], now: float) -> bool:
        """A node joins; returns False when deferred (target region in limbo)."""
        coord = tuple(coord)
        try:
            result = self.overlay.add_node(node_id, coord)
        except SubstrateError:
            # The containing region belongs to a failed-but-unclaimed node;
            # retry once the take-over has happened.
            self._pending_joins.append((node_id, coord))
            if self.tracer is not None:
                self.tracer.emit(
                    now, f"{self.event_prefix}.join_deferred", node=node_id
                )
            return False
        self.events["joins"] += 1
        if self.tracer is not None:
            self.tracer.emit(
                now,
                f"{self.event_prefix}.join",
                node=node_id,
                splitter=result.splitter_id,
            )
        self._joined(self._make_node(node_id), result, now)
        return True

    def _retry_pending_joins(self, now: float) -> int:
        """Retry deferred joins; returns how many went through."""
        pending, self._pending_joins = self._pending_joins, []
        return sum(self.join(node_id, coord, now) for node_id, coord in pending)

    def graceful_leave(self, node_id: int, now: float) -> None:
        """Voluntary departure with explicit hand-off of the territory."""
        leaver = self.nodes[node_id]
        transfers = self.overlay.graceful_leave(node_id)
        self.events["leaves"] += 1
        if self.tracer is not None:
            self.tracer.emit(now, f"{self.event_prefix}.leave", node=node_id)
        self._hand_off(leaver, transfers, now)
        self._drop_node(node_id)
        self._purge_stored(node_id)

    def fail(self, node_id: int, now: float) -> None:
        """Silent crash: no messages; believers find out via timeouts."""
        self.overlay.fail(node_id)
        self.events["failures"] += 1
        self._fail_times[node_id] = now
        if self.tracer is not None:
            self.tracer.emit(now, f"{self.event_prefix}.fail", node=node_id)

    def _purge_stored(self, gone_id: int) -> None:
        """Drop every stored copy of a departed node's state.

        Visits exactly the holders (the reverse index) instead of sweeping
        the whole population; runs on take-over *and* on graceful leave.
        """
        for holder_id in self._stored_in.pop(gone_id, ()):
            holder = self.nodes.get(holder_id)
            if holder is not None:
                self._discard_stored(holder, gone_id)

    # ------------------------------------------------------------------ the channel --
    def set_network(self, model: Optional[NetworkModel]) -> None:
        """Install the channel every unreliable send traverses.

        Heartbeats (full and compact), join/take-over notifies, and the
        adaptive scheme's full-update requests and replies all go through
        the model: a sender's turn of heartbeats and a notify fan-out as
        one ``transmit_many``, the request/reply pairs send by send.
        Connection-oriented handshakes stay reliable
        by design: the join reply and the graceful-leave hand-off model
        acknowledged transfers, not fire-and-forget datagrams.  ``None``
        (or the identity model) restores the ideal channel with no RNG
        draws at all.
        """
        self.net = IDENTITY if model is None else model

    def _transmit(self, src: int, dst: int, now: float) -> Optional[float]:
        """Send one message through the channel: None = dropped in flight.

        For a send whose verdict decides whether the next one happens (a
        request and its reply, a heartbeat and its ack); a fan-out asks
        ``net.transmit_many`` once and passes each verdict to
        :meth:`_report` where it handles that send, so traces read the
        same either way.
        """
        lat = self.net.transmit(src, dst, now)
        self._report(src, dst, lat, now)
        return lat

    def _report(self, src: int, dst: int, lat: Optional[float], now: float) -> None:
        """The obs wiring of one channel verdict, so every send path
        reports identically: a drop emits a ``net.drop`` trace event, a
        delivery streams its one-way latency into the
        ``net.delivery_latency`` sketch."""
        if lat is None:
            if self.tracer is not None:
                self.tracer.emit(now, "net.drop", src=src, dst=dst)
        elif self._net_sketch is not None:
            self._net_sketch.insert(lat)

    def _deliverable(self, node_id: int) -> Optional[Any]:
        """Target of a message: None when it is dead or gone (message lost)."""
        if not self.overlay.is_alive(node_id):
            return None
        return self.nodes.get(node_id)

    def _send(self, src: int, dst: int, now: float) -> Optional[Any]:
        """One request datagram: the live receiver it reached, or None.

        A lost datagram is not retried here: heartbeats converge the
        neighborhood, a believer times the ghost out, a gap stays dirty.
        """
        if not self.net.is_identity and self._transmit(src, dst, now) is None:
            return None
        return self._deliverable(dst)

    def _notify(
        self, mtype: MessageType, src: int, targets: Sequence[int], now: float
    ) -> Iterator[Any]:
        """Account a notify fan-out, then yield each live receiver it reaches.

        The whole fan-out's channel verdicts are drawn before the first
        receiver is yielded, so a caller must exhaust the iterator (all
        three do) and must not send in between.
        """
        self._record(
            now,
            mtype,
            self.config.size_model.notify_bytes(self.overlay.space.dims),
            len(targets),
        )
        lats = (
            None
            if self.net.is_identity
            else self.net.transmit_many(src, targets, now)
        )
        for i, target_id in enumerate(targets):
            if lats is not None:
                self._report(src, target_id, lats[i], now)
                if lats[i] is None:
                    continue  # lost in flight
            receiver = self._deliverable(target_id)
            if receiver is not None:
                yield receiver

    # ------------------------------------------------------------------ the round --
    def run_round(self, now: float) -> None:
        """One heartbeat period: exchange, detect, claim, repair, measure.

        Every phase is a method called through ``self``, so wrapping it on
        the instance from outside (``benchmarks/e2e/trace.py``'s
        ``Tracer.wrap``) times it; a phase inlined here would be invisible.
        """
        self._round += 1
        self._now = now
        population = len(self.overlay.alive_ids())
        self.stats.track_population(now, population)
        if not population:
            # nobody is left to send, to time a neighbor out or to take a
            # zone over: the round is counted and nothing else happens
            return
        # the one step of a round that changes who is alive
        population += self._retry_pending_joins(now)
        self._exchange_heartbeats(now)
        self._deliver_replies(now)
        self._detect_failures(now)
        self._claim_timed_out_zones(now)
        if self.config.scheme is HeartbeatScheme.ADAPTIVE:
            self._adaptive_gap_checks(now)
        broken = self.count_broken_links()
        self.broken_links.record(now, float(broken))
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "hb.round",
                round=self._round,
                population=population,
                broken_links=broken,
            )

    def _deliver_deferred(self, now: float) -> None:
        """Land heartbeats whose link latency outran the round period.

        A late heartbeat proves the sender was alive at *send* time, so
        :meth:`_land_late` advances freshness to the send stamp, not
        ``now`` — a message stuck behind a slow link cannot launder stale
        evidence into fresh evidence.
        """
        if not self._deferred:
            return
        due = [entry for entry in self._deferred if entry[0] <= now]
        if not due:
            return
        self._deferred = [entry for entry in self._deferred if entry[0] > now]
        due.sort(key=lambda entry: entry[0])  # stable: FIFO within a round
        for _arrival, _kind, receiver_id, sender_id, payload, sent_at in due:
            receiver = self._deliverable(receiver_id)
            if receiver is None:
                continue  # receiver died while the message was in flight
            if self.tracer is not None:
                self.tracer.emit(
                    now, "net.deliver_late", dst=receiver_id,
                    src=sender_id, sent_at=sent_at,
                )
            self._land_late(receiver, sender_id, payload, sent_at, now)
            if sender_id not in self.nodes:
                # the sender departed while its heartbeat was in flight: a
                # stored copy of its state would never be read or purged
                self._purge_stored(sender_id)

    def _deliver_replies(self, now: float) -> None:
        """Deliver last round's full-update replies, a requester at a time
        (its repair loop queued them next to each other)."""
        self._deliver_deferred(now)
        queue, self._reply_queue = self._reply_queue, []
        for receiver_id, group in groupby(queue, key=itemgetter(0)):
            receiver = self._deliverable(receiver_id)
            if receiver is not None:
                self._land_replies(receiver, [p for _, p in group], now)

    def _settle_gap(self, receiver: Any, now: float) -> None:
        """The gap verdict after a landing: a quiet detector clears the
        requester's flags (``hb.gap_repaired`` if they were set)."""
        if self._detects_gap(receiver.node_id):
            return
        if self.tracer is not None and (receiver.gap_attempts or receiver.gap_dirty):
            self.tracer.emit(now, "hb.gap_repaired", node=receiver.node_id)
        receiver.gap_attempts = 0
        receiver.gap_dirty = False

    # -- failure detection & take-over -------------------------------------------------
    def _detect_failures(self, now: float) -> None:
        timeout = self.config.failure_timeout
        for node_id in self._sorted_node_ids():
            if self.overlay.is_alive(node_id):
                self._detect_failures_at(self.nodes[node_id], now, timeout)

    def _believer_timed_out(self, node_id: int, stale_id: int, now: float) -> None:
        """``node_id`` just dropped ``stale_id`` after a silent timeout.

        The first believer to time out a *genuinely* failed node defines
        the protocol's detection instant.  Timeouts of live-but-silenced
        nodes (message loss) are just broken links, not detections.
        """
        if self.tracer is not None:
            self.tracer.emit(
                now, "hb.failure_detected", node=node_id, suspect=stale_id
            )
        if stale_id in self._fail_times:
            self._crash_noticed(stale_id, now)

    def _crash_noticed(self, dead_id: int, now: float) -> None:
        """Report a crash's detection once, however many notice it."""
        if dead_id in self._detected_failures:
            return
        self._detected_failures.add(dead_id)
        if self._detection_sketch is not None:
            self._detection_sketch.insert(now - self._fail_times[dead_id])
        if self.on_failure_detected is not None:
            self.on_failure_detected(dead_id, now)

    def _claim_timed_out_zones(self, now: float) -> None:
        """Execute predetermined take-overs for detected failures.

        The overlay performs the transfers at detection time regardless of
        scheme (territory reassignment always eventually happens); what
        differs per scheme is how much the claimant *knows* — whether it
        stored the dead node's state (from full heartbeats) and can notify
        the vacated territory's believers.
        """
        timeout = self.config.failure_timeout
        due = sorted(
            nid for nid, t in self._fail_times.items() if now - t >= timeout
        )
        for dead_id in due:
            # Fallback detection: a crash nobody's table timed out (e.g.
            # every believer died first) is noticed at claim time at the
            # latest, so the recovery layer never waits forever.
            self._crash_noticed(dead_id, now)
            self._detected_failures.discard(dead_id)
            transfers = self.overlay.claim_zones(dead_id)
            self.events["claims"] += 1
            for transfer in transfers:
                claimant = self._deliverable(transfer.to_node)
                if claimant is None:
                    continue  # the territory landed on a ghost; claimed later
                known = self._stored_copy(claimant, dead_id)
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "hb.takeover",
                        claimant=claimant.node_id,
                        dead=dead_id,
                        informed=known is not None,
                    )
                self._claim_zone(claimant, dead_id, transfer, known, now)
            del self._fail_times[dead_id]
            self._drop_node(dead_id)
            self._purge_stored(dead_id)

    # -- adaptive repair -----------------------------------------------------------------
    def _adaptive_gap_checks(self, now: float) -> None:
        config = self.config
        periodic = bool(
            config.periodic_gap_check_every
            and self._round % config.periodic_gap_check_every == 0
        )
        net_active = not self.net.is_identity
        # nothing the loop does changes who is alive or what anyone
        # believes (requests and replies only queue), so the candidates
        # and all their verdicts can be settled before it starts
        candidates = [
            pnode
            for pnode in map(self._deliverable, self._gap_candidates(periodic))
            if pnode is not None
        ]
        self._decide_gaps(candidates)
        for pnode in candidates:
            node_id = pnode.node_id
            if not self._needs_repair(pnode):
                pnode.gap_dirty = False
                pnode.gap_attempts = 0
                continue
            if self.tracer is not None:
                self.tracer.emit(
                    now, "hb.gap_found", node=node_id, attempt=pnode.gap_attempts + 1
                )
            # Broadcast a full-update request to every believed peer; each
            # live one answers with its full state.
            targets = self._repair_targets(pnode)
            self._record(
                now,
                MessageType.FULL_UPDATE_REQUEST,
                config.size_model.request_bytes(),
                len(targets),
            )
            for target_id in targets:
                # a lost request leaves the gap dirty; it is retried
                responder = self._send(node_id, target_id, now)
                if responder is None:
                    continue
                size, payload = self._full_update_reply(responder)
                self._record(now, MessageType.FULL_UPDATE_REPLY, size)
                if (
                    net_active
                    and self._transmit(target_id, node_id, now) is None
                ):
                    continue  # reply lost in flight (responder paid bytes)
                # The reply crosses the network; it lands next round.
                self._reply_queue.append((node_id, payload))
            pnode.gap_attempts += 1
            pnode.gap_dirty = pnode.gap_attempts < config.gap_retry_rounds

    # ------------------------------------------------------------------ substrate hooks --
    def _new_node(self, node_id: int) -> Any:
        """Create (not register) the per-node state of a new member."""
        raise NotImplementedError

    def _joined(self, newcomer: Any, result: Any, now: float) -> None:
        """The join handshake past the overlay split: reply, then notifies."""
        raise NotImplementedError

    def _hand_off(self, leaver: Any, transfers: List[Any], now: float) -> None:
        """A graceful leaver's acknowledged hand-off to each heir."""
        raise NotImplementedError

    def adopt_overlay(self, now: float = 0.0) -> None:
        """Warm-start believed state for an overlay built outside the
        protocol (grid bootstrap paths skip join-message accounting)."""
        raise NotImplementedError

    def _exchange_heartbeats(self, now: float) -> None:
        """Every live node's heartbeats for this round: account, transmit,
        apply; sends slower than the period go to ``_deferred``."""
        raise NotImplementedError

    def _land_late(
        self, receiver: Any, sender_id: int, payload: Any, sent_at: float, now: float
    ) -> None:
        """Apply a ``_deferred`` heartbeat with send-time evidence."""
        raise NotImplementedError

    def _land_replies(self, receiver: Any, payloads: List[Any], now: float) -> None:
        """Apply one requester's replies in queue order.  Default: a gap
        verdict after each (a landed CAN record may remove a neighbour)."""
        for payload in payloads:
            self._land_reply(receiver, payload, now)
            self._settle_gap(receiver, now)

    def _land_reply(self, receiver: Any, payload: Any, now: float) -> None:
        """Apply one reply (for the default :meth:`_land_replies`)."""
        raise NotImplementedError

    def _detect_failures_at(self, pnode: Any, now: float, timeout: float) -> None:
        """Drop each silent believed peer, then :meth:`_believer_timed_out`."""
        raise NotImplementedError

    def _stored_copy(self, holder: Any, subject_id: int) -> Optional[Any]:
        """The subject's full state as last stored at ``holder``, if any."""
        raise NotImplementedError

    def _discard_stored(self, holder: Any, subject_id: int) -> None:
        raise NotImplementedError

    def _claim_zone(
        self, claimant: Any, dead_id: int, transfer: Any, known: Optional[Any], now: float
    ) -> None:
        """The claimant absorbs what it ``known`` and notifies believers."""
        raise NotImplementedError

    def _gap_candidates(self, periodic: bool) -> Iterable[int]:
        """Ids to gap-check, sorted: the dirty ones, or all when periodic."""
        ids = self._sorted_node_ids()
        if periodic:
            return ids
        return [nid for nid in ids if self.nodes[nid].gap_dirty]

    def _decide_gaps(self, pnodes: Sequence[Any]) -> None:
        """Called with every live candidate before the repair loop asks
        :meth:`_needs_repair` of each: a substrate whose verdicts are
        cheaper by the batch decides them here and memoises (default:
        nothing, each is decided when asked)."""

    def _needs_repair(self, pnode: Any) -> bool:
        """Should this candidate request full updates?  Asked in candidate
        order, after :meth:`_decide_gaps` saw all of them."""
        return self._detects_gap(pnode.node_id)

    def _repair_targets(self, pnode: Any) -> Sequence[int]:
        raise NotImplementedError

    def _full_update_reply(self, responder: Any) -> Tuple[int, Any]:
        """Wire size of the responder's full state and a snapshot of it,
        frozen at request time, for :meth:`_land_replies`."""
        raise NotImplementedError

    def _detects_gap(self, node_id: int) -> bool:
        """Would this node's local broken-link detector fire right now?"""
        raise NotImplementedError

    def count_broken_links(self) -> int:
        """Directed count of ground-truth links missing from beliefs."""
        raise NotImplementedError
