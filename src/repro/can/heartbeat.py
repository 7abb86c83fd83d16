"""The CAN maintenance protocol: heartbeats, failures, take-overs, repair.

This engine simulates the *information* plane of the CAN.  Ground truth
(zones, ownership) lives in :class:`~repro.can.overlay.CanOverlay`; each
node's believed neighbor table lives in a :class:`ProtocolNode` and changes
only when messages deliver.  Three heartbeat schemes are implemented
(paper, Section IV):

* **vanilla** — every heartbeat carries the sender's full neighbor table;
  receivers can repair broken links from third-party records (Figure 2) at
  O(d²) volume per node.
* **compact** — full tables go only to the sender's predetermined take-over
  node(s) (from the zone split history); everyone else gets the sender's own
  record plus O(d) aggregated load info.  Volume drops to O(d) but mutual
  broken links can no longer self-heal.
* **adaptive** — compact, plus an on-demand *full-update request* broadcast
  to all neighbors when a node detects a broken link (a coverage gap around
  its zone); neighbors answer with their full tables.

Message *timing* is simplified to synchronous rounds every ``period``
seconds (all nodes share the heartbeat period), which is the granularity the
paper's experiments use; joins/leaves/failures occur at arbitrary simulated
times between rounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..net import IDENTITY, NetworkModel, NetworkSpec
from ..obs.profiling import NULL_PROFILER
from ..sim.monitor import TimeSeries
from .coverage import has_gap
from .messages import MessageType, SizeModel
from .neighbor import _NEG_INF, BeliefRecord, NeighborTable, TableSnapshot
from .overlay import CanOverlay, OverlayError, Transfer
from .stats import MessageStats

__all__ = ["HeartbeatScheme", "ProtocolConfig", "HeartbeatProtocol", "ProtocolNode"]

#: sentinel distinguishing "not resolved yet" from "resolved to undeliverable"
_MISS = object()


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
    #: adaptive: probability that a real coverage gap is noticed by the
    #: local coverage computation in a given round.  In high dimension a
    #: stale believed zone can spuriously cover a vacated area, hiding the
    #: gap — 1.0 models a perfect checker (see DESIGN.md)
    gap_detection_prob: float = 1.0
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
        if not 0.0 <= self.gap_detection_prob <= 1.0:
            raise ValueError("gap_detection_prob must be a probability")
        if self.detection not in ("coverage", "oracle"):
            raise ValueError(f"unknown detection mode {self.detection!r}")

    @property
    def failure_timeout(self) -> float:
        return self.period * self.failure_timeout_periods


class ProtocolNode:
    """Per-node protocol state: believed table, stored tables, gap flags."""

    __slots__ = (
        "node_id",
        "table",
        "own_version",
        "stored_tables",
        "processed_epoch",
        "_gap_dirty",
        "_gap_registry",
        "gap_attempts",
        "_record_cache",
        "_record_cache_version",
        "_non_abutting",
        "_wire_cache",
        "_gap_memo",
        "_broken_cache",
        "_version_sink",
    )

    def __init__(
        self,
        node_id: int,
        freshness_ttl: float = float("inf"),
        gap_registry: Optional[Set[int]] = None,
        table: Optional[NeighborTable] = None,
    ):
        self.node_id = node_id
        #: protocol-level set mirroring gap_dirty flags (see the gap_dirty
        #: property) — None for a node used outside a protocol
        self._gap_registry = gap_registry
        self.table = table if table is not None else NeighborTable(freshness_ttl)
        #: optional callable invoked with the new version on every bump;
        #: the array engine mirrors own_version into its row arrays here
        self._version_sink: Optional[Callable[[int], None]] = None
        self.own_version = 0
        #: full tables received from other nodes (vanilla: every neighbor;
        #: compact/adaptive: only nodes whose take-over target we are) —
        #: this is what makes a take-over possible after a silent failure
        self.stored_tables: Dict[int, TableSnapshot] = {}
        #: (sender table epoch, our own version, our table epoch) at the
        #: last full-table merge per sender — re-merge when any changed:
        #: our zone changes alter which records abut us, and our own table
        #: changes (e.g. a removal) alter what a merge would contribute
        self.processed_epoch: Dict[int, Tuple[int, int, int]] = {}
        self._gap_dirty = False
        self.gap_attempts = 0
        self._record_cache: Optional[BeliefRecord] = None
        self._record_cache_version = -1
        #: negative abutment memo: (node_id, version) -> our own_version at
        #: test time.  Gossip keeps re-sending the same far-away records;
        #: re-testing zone abutment for each would dominate the run time.
        self._non_abutting: Dict[Tuple[int, int], int] = {}
        #: memoized heartbeat wire sizes: ((table epoch, own zone count),
        #: full size, compact size)
        self._wire_cache: Optional[Tuple[Tuple[int, int], int, int]] = None
        #: memoized gap-detector verdict: (key, bool) — see _detects_gap
        self._gap_memo: Optional[Tuple[Tuple, bool]] = None
        #: memoized broken-link count: ((neighborhood stamp, table epoch), n)
        self._broken_cache: Optional[Tuple[Tuple[int, int], int]] = None

    @property
    def gap_dirty(self) -> bool:
        """Should the adaptive scheme re-check this node's zone coverage?

        Setting the flag keeps the owning protocol's dirty-id set in sync,
        so the per-round check visits only flagged nodes instead of
        scanning the population.
        """
        return self._gap_dirty

    @gap_dirty.setter
    def gap_dirty(self, flag: bool) -> None:
        self._gap_dirty = flag
        registry = self._gap_registry
        if registry is not None:
            if flag:
                registry.add(self.node_id)
            else:
                registry.discard(self.node_id)

    def bump_version(self) -> None:
        self.own_version += 1
        self._record_cache = None
        if self._version_sink is not None:
            self._version_sink(self.own_version)

    def own_record(self, overlay: CanOverlay) -> BeliefRecord:
        if self._record_cache is None or self._record_cache_version != self.own_version:
            self._record_cache = BeliefRecord(
                node_id=self.node_id,
                version=self.own_version,
                zones=tuple(overlay.zones_of(self.node_id)),
                coord=overlay.coordinate(self.node_id),
            )
            self._record_cache_version = self.own_version
        return self._record_cache


class HeartbeatProtocol:
    """Drives rounds of heartbeats plus the join/leave/failure protocol."""

    def __init__(
        self,
        overlay: CanOverlay,
        config: ProtocolConfig,
        rng: Optional["np.random.Generator"] = None,
        tracer: Optional[object] = None,
        profiler: Optional[object] = None,
        metrics: Optional[object] = None,
    ):
        self.overlay = overlay
        self.config = config
        self._rng = rng
        #: optional repro.obs.Tracer; None keeps every emit site to a
        #: single attribute test (the default, benchmark-grade path)
        self.tracer = tracer
        #: optional repro.obs.MetricsRegistry; when present the protocol
        #: streams crash->detection latencies into a constant-memory
        #: quantile sketch under ``hb.detection_latency``
        self.metrics = metrics
        self._detection_sketch = (
            metrics.scope("hb").quantile_sketch("detection_latency")
            if metrics is not None
            else None
        )
        #: optional repro.obs.Profiler; run_round wraps its phases in
        #: scopes (a handful of no-op context managers per round when off)
        self.profiler = profiler
        self.stats = MessageStats()
        self.nodes: Dict[int, ProtocolNode] = {}
        self.broken_links = TimeSeries("broken_links")
        self._fail_times: Dict[int, float] = {}
        self._pending_joins: List[Tuple[int, Tuple[float, ...]]] = []
        self._round = 0
        self._now = 0.0
        self._takeover_cache: Tuple[int, Dict[int, Set[int]]] = (-1, {})
        #: full-update replies in flight: (receiver id, responder record,
        #: responder table snapshot) — sent in one round, delivered with the
        #: next round's messages (one heartbeat period of latency)
        self._reply_queue: List[Tuple[int, BeliefRecord, TableSnapshot]] = []
        self.events = {"joins": 0, "leaves": 0, "failures": 0, "claims": 0}
        #: reverse index of ProtocolNode.stored_tables: sender id -> ids of
        #: nodes holding a stored copy of its table.  Lets a take-over purge
        #: the dead node's entries without sweeping the whole population.
        self._stored_in: Dict[int, Set[int]] = {}
        #: ids with gap_dirty set — the only nodes the adaptive scheme's
        #: per-round coverage check needs to visit (kept in lock-step with
        #: the per-node flags by the ProtocolNode.gap_dirty property)
        self._gap_dirty_ids: Set[int] = set()
        #: cached sorted member ids; None after any membership change
        self._nodes_order: Optional[List[int]] = None
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
        #: heartbeats in flight with super-period latency, as
        #: (arrival, kind, receiver id, sender record, snapshot|None,
        #: send time); drained by the first round at/after arrival
        self._deferred: List[
            Tuple[float, str, int, BeliefRecord, Optional[TableSnapshot], float]
        ] = []
        self._net_sketch = (
            metrics.scope("net").quantile_sketch("delivery_latency")
            if metrics is not None
            else None
        )

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

    # ------------------------------------------------------------------ topology --
    def _make_node(self, node_id: int) -> ProtocolNode:
        """Create per-node protocol state (the array engine overrides this)."""
        node = ProtocolNode(
            node_id, self.config.failure_timeout, self._gap_dirty_ids
        )
        self.nodes[node_id] = node
        self._nodes_order = None
        return node

    def _drop_node(self, node_id: int) -> None:
        """Discard per-node protocol state (the array engine overrides this)."""
        del self.nodes[node_id]
        self._nodes_order = None
        self._gap_dirty_ids.discard(node_id)

    def bootstrap(self, node_id: int, coord: Sequence[float], now: float = 0.0) -> None:
        """Insert the very first CAN member."""
        self.overlay.add_node(node_id, coord)
        self._make_node(node_id)

    def join(self, node_id: int, coord: Sequence[float], now: float) -> bool:
        """A node joins; returns False when deferred (target zone in limbo)."""
        coord = tuple(coord)
        try:
            result = self.overlay.add_node(node_id, coord)
        except OverlayError:
            # The containing zone belongs to a failed-but-unclaimed node;
            # retry once the take-over has happened.
            self._pending_joins.append((node_id, coord))
            if self.tracer is not None:
                self.tracer.emit(now, "can.join_deferred", node=node_id)
            return False
        self.events["joins"] += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, "can.join", node=node_id, splitter=result.splitter_id
            )
        newcomer = self._make_node(node_id)
        splitter = self.nodes[result.splitter_id]
        splitter.bump_version()

        model = self.config.size_model
        dims = self.overlay.space.dims
        new_zones = self.overlay.zones_of(node_id)

        # Join reply: the splitter hands the newcomer its own record plus the
        # slice of its believed table relevant to the newcomer's zone.
        slice_records = [
            (rec, heard_at)
            for rec, heard_at in splitter.table.snapshot().pairs()
            if self._record_relevant(newcomer, rec, new_zones)
        ]
        self._record(
            now,
            MessageType.JOIN_REPLY,
            model.table_bytes(dims, [r.zone_count for r, _ in slice_records] + [1]),
        )
        for rec, heard_at in slice_records:
            newcomer.table.upsert(rec, now, heard_at=heard_at)
        newcomer.table.upsert(splitter.own_record(self.overlay), now)
        newcomer.gap_dirty = True

        # The splitter's zone shrank: drop neighbors now adjacent only to
        # the newcomer, and add the newcomer itself.
        notify_ids = splitter.table.sorted_ids()
        splitter_zones = self.overlay.zones_of(splitter.node_id)
        for rec in splitter.table.records():
            if not self._record_relevant(splitter, rec, splitter_zones):
                splitter.table.remove(rec.node_id)
        new_record = newcomer.own_record(self.overlay)
        if self._record_relevant(splitter, new_record, splitter_zones):
            splitter.table.upsert(new_record, now)
        splitter.gap_dirty = True

        # Join notify: splitter announces its new zone and the newcomer to
        # its (pre-split) believed neighbors.
        self._record(
            now, MessageType.JOIN_NOTIFY, model.notify_bytes(dims), len(notify_ids)
        )
        splitter_record = splitter.own_record(self.overlay)
        net_active = not self.net.is_identity
        for target_id in notify_ids:
            if (
                net_active
                and self._transmit(splitter.node_id, target_id, now) is None
            ):
                continue  # notify lost; heartbeats converge the neighborhood
            target = self._deliverable(target_id)
            if target is None:
                continue
            self._receive_record(target, splitter_record, now)
            self._receive_record(target, new_record, now)
        return True

    def graceful_leave(self, node_id: int, now: float) -> None:
        """Voluntary departure with explicit hand-off to take-over nodes."""
        leaver = self.nodes[node_id]
        transfers = self.overlay.graceful_leave(node_id)
        self.events["leaves"] += 1
        if self.tracer is not None:
            self.tracer.emit(now, "can.leave", node=node_id)
        model = self.config.size_model
        dims = self.overlay.space.dims
        leaver_table = leaver.table.snapshot()
        handoff_size = model.table_bytes_from_totals(
            dims, len(leaver_table), leaver_table.total_zones
        )
        for transfer in transfers:
            claimant = self.nodes[transfer.to_node]
            claimant.bump_version()
            self._record(now, MessageType.HANDOFF, handoff_size)
            self._absorb_table(claimant, leaver_table, now)
            claimant.table.remove(node_id)
            claimant.gap_dirty = True
            self._notify_takeover(claimant, node_id, transfer, leaver_table, now)
        self._drop_node(node_id)

    def fail(self, node_id: int, now: float) -> None:
        """Silent crash: no messages; neighbors find out via timeouts."""
        self.overlay.fail(node_id)
        self.events["failures"] += 1
        self._fail_times[node_id] = now
        if self.tracer is not None:
            self.tracer.emit(now, "can.fail", node=node_id)

    def adopt_overlay(self, now: float = 0.0) -> None:
        """Warm-start protocol state for an overlay built outside it.

        The grid simulations construct their CAN via
        :func:`~repro.gridsim.simulation.build_grid` (no per-join message
        accounting wanted for the bootstrap).  Adoption creates a
        :class:`ProtocolNode` for every member and seeds each believed
        table with its ground-truth neighbors, all freshly heard at
        ``now`` — the state a long-converged protocol would be in.
        """
        for node_id in sorted(self.overlay.members):
            if node_id not in self.nodes:
                self._make_node(node_id)
        for node_id, pnode in self.nodes.items():
            for nid in sorted(self.overlay.neighbor_set(node_id)):
                other = self.nodes.get(nid)
                if other is not None:
                    pnode.table.upsert(other.own_record(self.overlay), now)
        self._nodes_order = None

    def set_network(self, model: Optional[NetworkModel]) -> None:
        """Install the channel every unreliable send traverses.

        Heartbeats (full and compact), join/take-over notifies, and the
        adaptive scheme's full-update requests and replies all go through
        ``model.transmit``.  Connection-oriented handshakes stay reliable
        by design: the join reply and the graceful-leave hand-off model
        acknowledged transfers, not fire-and-forget datagrams.  ``None``
        (or the identity model) restores the ideal channel with no RNG
        draws at all.
        """
        self.net = IDENTITY if model is None else model

    def set_message_loss(
        self, rate: float, rng: Optional["np.random.Generator"]
    ) -> None:
        """Drop each unreliable delivery independently with ``rate``.

        Compatibility wrapper over :meth:`set_network`: fault injection
        for the recovery experiments, where loss starves believed tables
        of freshness evidence so detection (and the repair each scheme
        can or cannot perform) degrades differently per scheme.
        ``rate == 0`` restores the loss-free path with no RNG draws;
        ``rate == 1`` is a total blackout (every send dropped).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        if rate == 0.0:
            self.net = IDENTITY
        else:
            self.net = NetworkModel(NetworkSpec(loss=rate), rng)

    def _transmit(self, src: int, dst: int, now: float) -> Optional[float]:
        """Send one message through the channel: None = dropped in flight.

        The obs wiring lives here so every send path reports identically:
        drops emit a ``net.drop`` trace event, deliveries stream their
        one-way latency into the ``net.delivery_latency`` sketch.
        """
        lat = self.net.transmit(src, dst, now)
        if lat is None:
            if self.tracer is not None:
                self.tracer.emit(now, "net.drop", src=src, dst=dst)
            return None
        if self._net_sketch is not None:
            self._net_sketch.insert(lat)
        return lat

    # ------------------------------------------------------------------ the round --
    def run_round(self, now: float) -> None:
        """One heartbeat period: exchange, detect, claim, repair, measure.

        Each phase runs under a profiler scope named for the scheme
        (``hb.round.vanilla/hb.exchange`` ...), so per-scheme heartbeat
        generation/processing cost is separable in bench profiles.
        """
        prof = self.profiler if self.profiler is not None else NULL_PROFILER
        self._round += 1
        self._now = now
        self.stats.track_population(now, len(self.overlay.alive_ids()))
        with prof.scope(f"hb.round.{self.config.scheme.value}"):
            with prof.scope("hb.retry_joins"):
                self._retry_pending_joins(now)
            with prof.scope("hb.exchange"):
                self._exchange_heartbeats(now)
            with prof.scope("hb.deliver_replies"):
                self._deliver_replies(now)
            with prof.scope("hb.detect_failures"):
                self._detect_failures(now)
            with prof.scope("hb.claim_zones"):
                self._claim_timed_out_zones(now)
            if self.config.scheme is HeartbeatScheme.ADAPTIVE:
                with prof.scope("hb.gap_checks"):
                    self._adaptive_gap_checks(now)
            with prof.scope("hb.count_broken_links"):
                broken = self.count_broken_links()
        self.broken_links.record(now, float(broken))
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "hb.round",
                round=self._round,
                population=len(self.overlay.alive_ids()),
                broken_links=broken,
            )

    # -- heartbeat exchange ---------------------------------------------------------
    def _exchange_heartbeats(self, now: float) -> None:
        vanilla = self.config.scheme is HeartbeatScheme.VANILLA
        takeovers = self._takeover_targets_map() if not vanilla else {}
        # membership and liveness are fixed for the duration of the
        # exchange, so target resolution is shared across all senders
        deliverable: Dict[int, Optional[ProtocolNode]] = {}
        net = self.net if not self.net.is_identity else None
        for node_id in self._sorted_node_ids():
            if not self.overlay.is_alive(node_id):
                continue  # ghosts are silent
            self._exchange_one_sender(
                self.nodes[node_id],
                takeovers,
                vanilla,
                now,
                deliverable,
                net,
            )

    def _exchange_one_sender(
        self,
        sender: ProtocolNode,
        takeovers: Dict[int, Set[int]],
        vanilla: bool,
        now: float,
        deliverable: Dict[int, Optional[ProtocolNode]],
        net: Optional[NetworkModel],
    ) -> None:
        """Send one node's heartbeats for this round (account + deliver).

        Shared by both engines: the object engine calls it for every alive
        sender, the array engine only for senders whose deliveries need the
        full structural path (the rest advance in one bulk kernel).
        """
        node_id = sender.node_id
        targets = sender.table.sorted_ids()
        if not targets:
            return
        own = sender.own_record(self.overlay)
        full_size, compact_size = self._heartbeat_sizes(sender, own)
        if vanilla:
            full_targets, compact_targets = targets, ()
        else:
            tset = takeovers.get(node_id, set())
            full_targets = [t for t in targets if t in tset]
            compact_targets = [t for t in targets if t not in tset]
        self._record(
            now, MessageType.HEARTBEAT_FULL, full_size, len(full_targets)
        )
        self._record(
            now, MessageType.HEARTBEAT, compact_size, len(compact_targets)
        )
        miss = _MISS
        period = self.config.period
        for target_id in full_targets:
            if net is not None:
                lat = self._transmit(node_id, target_id, now)
                if lat is None:
                    continue  # dropped in flight (sender still paid bytes)
                if lat > period:
                    # slower than the round granularity: lands later, with
                    # the evidence it carried at send time
                    self._deferred.append(
                        (now + lat, "full", target_id, own,
                         sender.table.snapshot(), now)
                    )
                    continue
            receiver = deliverable.get(target_id, miss)
            if receiver is miss:
                receiver = self._deliverable(target_id)
                deliverable[target_id] = receiver
            if receiver is None:
                continue
            if not receiver.table.heard_from(own, now):
                self._receive_record(receiver, own, now, heard=True)
            self._merge_full_table(receiver, sender, now)
        for target_id in compact_targets:
            if net is not None:
                lat = self._transmit(node_id, target_id, now)
                if lat is None:
                    continue
                if lat > period:
                    self._deferred.append(
                        (now + lat, "compact", target_id, own, None, now)
                    )
                    continue
            receiver = deliverable.get(target_id, miss)
            if receiver is miss:
                receiver = self._deliverable(target_id)
                deliverable[target_id] = receiver
            if receiver is None:
                continue
            if not receiver.table.heard_from(own, now):
                self._receive_record(receiver, own, now, heard=True)

    def _heartbeat_sizes(self, sender: ProtocolNode, own: BeliefRecord) -> Tuple[int, int]:
        """(full, compact) heartbeat sizes, memoized per table/zone state."""
        key = (sender.table.epoch, own.zone_count)
        cached = sender._wire_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        model = self.config.size_model
        dims = self.overlay.space.dims
        full = model.heartbeat_bytes_from_totals(
            dims, own.zone_count, len(sender.table), sender.table.total_zones()
        )
        compact = model.heartbeat_bytes(dims, own.zone_count, None)
        sender._wire_cache = (key, full, compact)
        return full, compact

    def _merge_full_table(
        self, receiver: ProtocolNode, sender: ProtocolNode, now: float
    ) -> None:
        """Process a full neighbor table, skipping unchanged re-sends."""
        key = (
            sender.table.epoch,
            receiver.own_version,
            receiver.table.removals_epoch,
        )
        last = receiver.processed_epoch.get(sender.node_id)
        if last is None:
            # first table stored from this sender: index the holder so a
            # later take-over can purge it without a population sweep
            self._stored_in.setdefault(sender.node_id, set()).add(
                receiver.node_id
            )
        snap = sender.table.snapshot()
        receiver.stored_tables[sender.node_id] = snap
        if last == key:
            return
        if last is not None and last[1:] == key[1:]:
            # Only the sender's table advanced: merging the delta suffices.
            # (Local removals or zone changes force a full re-merge below —
            # an unchanged remote record may then become relevant again.)
            own_zones = self.overlay.zones_of(receiver.node_id)
            for rec, heard_at in sender.table.records_since(last[0]):
                if rec.node_id != receiver.node_id:
                    self._receive_record(
                        receiver, rec, now, heard_at=heard_at,
                        own_zones=own_zones,
                    )
        else:
            self._absorb_table(receiver, snap, now)
        receiver.processed_epoch[sender.node_id] = key

    def _absorb_table(
        self,
        receiver: ProtocolNode,
        table: TableSnapshot,
        now: float,
    ) -> None:
        """Merge third-party records that abut the receiver's zones.

        The dominant case by far is a record the receiver already believes
        at the same version — nothing structural to learn — so that branch
        of :meth:`_receive_record` is inlined here.  Binding the believed
        dict once is safe: only the record id being processed can mutate
        (and rebind) it, and every id appears at most once per snapshot.
        """
        own_zones = self.overlay.zones_of(receiver.node_id)
        receiver_id = receiver.node_id
        receive = self._receive_record
        rtable = receiver.table
        believed_get = rtable._records.get
        advance = rtable.advance_freshness
        heard_get = table.heard.get
        for nid, rec in table.records.items():
            if nid == receiver_id:
                continue
            existing = believed_get(nid)
            if existing is not None and rec.version <= existing.version:
                advance(nid, heard_get(nid, _NEG_INF))
            else:
                receive(
                    receiver, rec, now,
                    heard_at=heard_get(nid, _NEG_INF), own_zones=own_zones,
                )

    def _receive_record(
        self,
        receiver: ProtocolNode,
        record: BeliefRecord,
        now: float,
        heard: bool = False,
        heard_at: Optional[float] = None,
        own_zones: Optional[List] = None,
    ) -> None:
        """Apply one advertised record to a believed table.

        Records that no longer abut the receiver's zones remove any existing
        entry (the sender moved away); new abutting records repair broken
        links.  Only *direct* heartbeats refresh liveness (``heard``), so
        gossip about a dead node cannot suppress its failure detection.
        """
        if record.node_id == receiver.node_id:
            return
        existing = receiver.table.get(record.node_id)
        if existing is not None and record.version <= existing.version:
            # Nothing structural to learn (same or older zones — abutment
            # cannot have changed); just move liveness evidence forward.
            # This is the hot path: most gossiped records are already known.
            receiver.table.advance_freshness(
                record.node_id, now if heard else heard_at
            )
            return
        memo_key = (record.node_id, record.version)
        if (
            existing is None
            and receiver._non_abutting.get(memo_key) == receiver.own_version
        ):
            return  # same record, same zones: still not our neighbor
        if own_zones is None:
            own_zones = self.overlay.zones_of(receiver.node_id)
        if not self._record_relevant(receiver, record, own_zones):
            if existing is not None:
                receiver.table.remove(record.node_id)
                receiver.gap_dirty = True
            else:
                receiver._non_abutting[memo_key] = receiver.own_version
            return
        # NOTE: plain inserts/updates never *open* a coverage gap at the
        # receiver, so they do not trigger the adaptive gap check; removals
        # and local zone changes do (set by the callers concerned).
        receiver.table.upsert(record, now, heard=heard, heard_at=heard_at)

    def _record_relevant(
        self,
        receiver: ProtocolNode,
        record: BeliefRecord,
        own_zones: List,
    ) -> bool:
        """Does this record's subject abut the receiver's zones?

        When the record carries the subject's *current* version and the
        subject still holds zones in the overlay, the record's zones are by
        construction the subject's ground-truth zones (overlay mutation
        always precedes the version bump), so abutment reduces to a lookup
        in the overlay's leaf-adjacency index.  Stale records (an old
        version, or a subject whose zones were handed off) fall back to the
        geometric scan — their zones exist nowhere but in the record.
        """
        subject = self.nodes.get(record.node_id)
        if (
            subject is not None
            and subject.own_version == record.version
            and record.node_id in self.overlay.members
        ):
            return record.node_id in self.overlay.neighbor_set(receiver.node_id)
        return record.abuts_any(own_zones)

    # -- failure detection & take-over -------------------------------------------------
    def _detect_failures(self, now: float) -> None:
        timeout = self.config.failure_timeout
        for node_id in self._sorted_node_ids():
            if not self.overlay.is_alive(node_id):
                continue
            self._detect_failures_at(self.nodes[node_id], now, timeout)

    def _detect_failures_at(
        self, pnode: ProtocolNode, now: float, timeout: float
    ) -> None:
        """Time out this node's silent believed neighbors (both engines)."""
        node_id = pnode.node_id
        for stale_id in pnode.table.stale_ids(now, timeout):
            pnode.table.remove(stale_id, now)
            pnode.gap_dirty = True
            if self.tracer is not None:
                self.tracer.emit(
                    now, "hb.failure_detected", node=node_id, suspect=stale_id
                )
            # First believer to time out a *genuinely* failed node
            # defines the protocol's detection instant.  Timeouts of
            # live-but-silenced nodes (message loss) are just broken
            # links, not detections.
            if (
                stale_id in self._fail_times
                and stale_id not in self._detected_failures
            ):
                self._detected_failures.add(stale_id)
                if self._detection_sketch is not None:
                    self._detection_sketch.insert(
                        now - self._fail_times[stale_id]
                    )
                if self.on_failure_detected is not None:
                    self.on_failure_detected(stale_id, now)

    def _claim_timed_out_zones(self, now: float) -> None:
        """Execute predetermined take-overs for detected failures.

        The overlay performs the transfers at detection time regardless of
        scheme (zone reassignment always eventually happens in a CAN); what
        differs per scheme is how much the claimant *knows* — whether it has
        the dead node's table to notify the vacated zone's neighbors.
        """
        timeout = self.config.failure_timeout
        due = sorted(
            nid for nid, t in self._fail_times.items() if now - t >= timeout
        )
        for dead_id in due:
            # Fallback detection: a crash nobody's table timed out (e.g.
            # every believer died first) is noticed at claim time at the
            # latest, so the recovery layer never waits forever.
            if dead_id not in self._detected_failures:
                if self._detection_sketch is not None:
                    self._detection_sketch.insert(
                        now - self._fail_times[dead_id]
                    )
                if self.on_failure_detected is not None:
                    self.on_failure_detected(dead_id, now)
            self._detected_failures.discard(dead_id)
            dead_table = self.nodes[dead_id].table.snapshot()
            transfers = self.overlay.claim_zones(dead_id)
            self.events["claims"] += 1
            for transfer in transfers:
                claimant = self.nodes.get(transfer.to_node)
                if claimant is None:
                    continue  # claimant itself died in the same window
                claimant.bump_version()
                known_table = claimant.stored_tables.get(dead_id)
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "hb.takeover",
                        claimant=claimant.node_id,
                        dead=dead_id,
                        informed=known_table is not None,
                    )
                self._claim_zone(claimant, dead_id, transfer, known_table, now)
            del self._fail_times[dead_id]
            self._drop_node(dead_id)
            # purge exactly the nodes holding the dead node's table (the
            # reverse index), instead of sweeping the whole population
            for holder_id in self._stored_in.pop(dead_id, ()):
                holder = self.nodes.get(holder_id)
                if holder is not None:
                    holder.stored_tables.pop(dead_id, None)
                    holder.processed_epoch.pop(dead_id, None)

    def _claim_zone(
        self,
        claimant: ProtocolNode,
        dead_id: int,
        transfer: Transfer,
        known_table: Optional[TableSnapshot],
        now: float,
    ) -> None:
        claimant.table.remove(dead_id)
        claimant.gap_dirty = True
        if known_table:
            self._absorb_table(claimant, known_table, now)
            claimant.table.remove(dead_id)
        self._notify_takeover(claimant, dead_id, transfer, known_table or {}, now)

    def _notify_takeover(
        self,
        claimant: ProtocolNode,
        vacated_id: int,
        transfer: Transfer,
        source_table: TableSnapshot,
        now: float,
    ) -> None:
        """Announce the new ownership to everyone the claimant knows about."""
        model = self.config.size_model
        dims = self.overlay.space.dims
        candidates: Dict[int, BeliefRecord] = {
            nid: rec for nid, (rec, _) in source_table.items()
        }
        for rec in claimant.table.records():
            candidates.setdefault(rec.node_id, rec)
        targets = sorted(
            rec.node_id
            for rec in candidates.values()
            if rec.node_id not in (claimant.node_id, vacated_id)
            and any(z.abuts(transfer.zone) for z in rec.zones)
        )
        self._record(
            now, MessageType.TAKEOVER_NOTIFY, model.notify_bytes(dims), len(targets)
        )
        claim_record = claimant.own_record(self.overlay)
        net_active = not self.net.is_identity
        for target_id in targets:
            if (
                net_active
                and self._transmit(claimant.node_id, target_id, now) is None
            ):
                continue  # notify lost; the believer times the ghost out
            receiver = self._deliverable(target_id)
            if receiver is None:
                continue
            if receiver.table.remove(vacated_id, now):
                receiver.gap_dirty = True
            self._receive_record(receiver, claim_record, now)

    # -- adaptive repair -----------------------------------------------------------------
    def _adaptive_gap_checks(self, now: float) -> None:
        model = self.config.size_model
        dims = self.overlay.space.dims
        periodic = (
            self.config.periodic_gap_check_every
            and self._round % self.config.periodic_gap_check_every == 0
        )
        # Without the periodic sweep only dirty nodes can pass the filter
        # below, so visiting sorted(dirty) instead of sorted(all) reaches
        # the same nodes in the same order (RNG draw order included).
        candidates = (
            self._sorted_node_ids() if periodic else sorted(self._gap_dirty_ids)
        )
        for node_id in candidates:
            pnode = self.nodes.get(node_id)
            if pnode is None or not self.overlay.is_alive(node_id):
                continue
            if not (pnode.gap_dirty or periodic):
                continue
            if self.config.gap_detection_prob < 1.0 and self._rng is not None:
                if self._rng.random() >= self.config.gap_detection_prob:
                    continue  # the coverage check missed the gap this round
            if not self._detects_gap(node_id):
                pnode.gap_dirty = False
                pnode.gap_attempts = 0
                continue
            if self.tracer is not None:
                self.tracer.emit(
                    now, "hb.gap_found", node=node_id, attempt=pnode.gap_attempts + 1
                )
            # Broadcast a full-update request to every believed neighbor;
            # each live one answers with its full table.
            targets = pnode.table.sorted_ids()
            self._record(
                now,
                MessageType.FULL_UPDATE_REQUEST,
                model.request_bytes(),
                len(targets),
            )
            net_active = not self.net.is_identity
            for target_id in targets:
                if (
                    net_active
                    and self._transmit(node_id, target_id, now) is None
                ):
                    continue  # request lost; the gap stays dirty, retried
                responder = self._deliverable(target_id)
                if responder is None:
                    continue
                self._record(
                    now,
                    MessageType.FULL_UPDATE_REPLY,
                    model.table_bytes_from_totals(
                        dims,
                        len(responder.table) + 1,
                        responder.table.total_zones() + 1,
                    ),
                )
                if (
                    net_active
                    and self._transmit(target_id, node_id, now) is None
                ):
                    continue  # reply lost in flight (responder paid bytes)
                # The reply crosses the network; it lands next round.
                self._reply_queue.append(
                    (
                        node_id,
                        responder.own_record(self.overlay),
                        responder.table.snapshot(),
                    )
                )
            pnode.gap_attempts += 1
            pnode.gap_dirty = (
                pnode.gap_attempts < self.config.gap_retry_rounds
            )

    def _deliver_deferred(self, now: float) -> None:
        """Land heartbeats whose link latency outran the round period.

        A late heartbeat proves the sender was alive at *send* time, so
        deliveries advance freshness to the send stamp, not ``now`` — a
        message stuck behind a slow link cannot launder stale evidence
        into fresh evidence.
        """
        if not self._deferred:
            return
        due = [entry for entry in self._deferred if entry[0] <= now]
        if not due:
            return
        self._deferred = [entry for entry in self._deferred if entry[0] > now]
        due.sort(key=lambda entry: entry[0])  # stable: FIFO within a round
        for arrival, kind, receiver_id, own, snapshot, sent_at in due:
            receiver = self._deliverable(receiver_id)
            if receiver is None:
                continue  # receiver died while the message was in flight
            if self.tracer is not None:
                self.tracer.emit(
                    now, "net.deliver_late", dst=receiver_id,
                    src=own.node_id, sent_at=sent_at,
                )
            if not receiver.table.heard_from(own, sent_at):
                self._receive_record(receiver, own, now, heard_at=sent_at)
            if kind == "full" and snapshot is not None:
                # the stored-table copy still serves a later take-over;
                # skip the processed-epoch memo — it tracks *current*
                # tables and this one is stale by construction
                self._stored_in.setdefault(own.node_id, set()).add(
                    receiver_id
                )
                receiver.stored_tables[own.node_id] = snapshot
                self._absorb_table(receiver, snapshot, now)

    def _deliver_replies(self, now: float) -> None:
        """Deliver last round's full-update replies to their requesters."""
        self._deliver_deferred(now)
        queue, self._reply_queue = self._reply_queue, []
        for receiver_id, own_record, snapshot in queue:
            receiver = self._deliverable(receiver_id)
            if receiver is None:
                continue
            self._receive_record(receiver, own_record, now)
            self._absorb_table(receiver, snapshot, now)
            if not self._detects_gap(receiver_id):
                if (
                    self.tracer is not None
                    and (receiver.gap_attempts or receiver.gap_dirty)
                ):
                    self.tracer.emit(now, "hb.gap_repaired", node=receiver_id)
                receiver.gap_attempts = 0
                receiver.gap_dirty = False

    def _detects_gap(self, node_id: int) -> bool:
        """Would this node's local broken-link detector fire right now?

        ``coverage`` mode runs the real algorithm: check that the believed
        neighbor zones tile every interior face of the node's zones.  It
        can miss gaps hidden behind stale believed zones — the honest
        failure mode of a local checker.  ``oracle`` mode compares with
        ground truth (never misses).

        The verdict is a pure function of (time, overlay topology, believed
        table state, own zones), so it is memoized on that key: the adaptive
        scheme re-asks after every delivered reply in a round, and most
        replies change none of the inputs.
        """
        pnode = self.nodes[node_id]
        key = (
            self._now,
            self.overlay.topology_version,
            pnode.table.epoch,
            pnode.own_version,
        )
        memo = pnode._gap_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        verdict = self._detects_gap_uncached(node_id, pnode)
        pnode._gap_memo = (key, verdict)
        return verdict

    def _detects_gap_uncached(self, node_id: int, pnode: ProtocolNode) -> bool:
        if self.config.detection == "oracle":
            return bool(self._missing_neighbors(node_id))
        believed = [z for rec in pnode.table.records() for z in rec.zones]
        # a just-removed (suspected-failed) neighbor's zone is not a broken
        # link yet: its predetermined take-over is in flight
        believed += pnode.table.grace_zones(
            self._now, self.config.failure_timeout
        )
        dims = self.overlay.space.dims
        return has_gap(
            self.overlay.zones_of(node_id),
            believed,
            [0.0] * dims,
            [1.0] * dims,
        )

    # -- metrics -----------------------------------------------------------------------
    def _missing_neighbors(self, node_id: int) -> Set[int]:
        truth = {
            nid
            for nid in self.overlay.neighbor_set(node_id)
            if self.overlay.is_alive(nid)
        }
        return truth - self.nodes[node_id].table.ids()

    def count_broken_links(self) -> int:
        """Directed count of ground-truth neighbors missing from beliefs.

        Per-node counts are cached against (neighborhood stamp, table
        epoch): a node whose surroundings and beliefs did not change since
        the last round contributes its previous count without recomputation.
        """
        overlay = self.overlay
        alive = overlay.is_alive
        total = 0
        for node_id, pnode in self.nodes.items():
            if not alive(node_id):
                continue
            key = (overlay.neighborhood_stamp(node_id), pnode.table.epoch)
            cached = pnode._broken_cache
            if cached is not None and cached[0] == key:
                total += cached[1]
                continue
            believed = pnode.table.ids_view()
            missing = 0
            for nid in overlay.neighbor_set(node_id):
                if nid not in believed and alive(nid):
                    missing += 1
            pnode._broken_cache = (key, missing)
            total += missing
        return total

    # -- plumbing ----------------------------------------------------------------------
    def _sorted_node_ids(self) -> List[int]:
        """Sorted member ids, cached until the membership changes.

        Callers iterate but never mutate the returned list; any join or
        departure resets ``_nodes_order`` to None.
        """
        order = self._nodes_order
        if order is None:
            order = self._nodes_order = sorted(self.nodes)
        return order

    def _deliverable(self, node_id: int) -> Optional[ProtocolNode]:
        """Target of a message: None when it is dead or gone (message lost)."""
        if not self.overlay.is_alive(node_id):
            return None
        return self.nodes.get(node_id)

    def _retry_pending_joins(self, now: float) -> None:
        pending, self._pending_joins = self._pending_joins, []
        for node_id, coord in pending:
            self.join(node_id, coord, now)

    def _takeover_targets_map(self) -> Dict[int, Set[int]]:
        version = self.overlay.topology_version
        cached_version, cached = self._takeover_cache
        if cached_version == version:
            return cached
        dead = self.overlay.dead_ids()
        fresh = {
            nid: self.overlay.takeover_targets(nid, dead)
            for nid in self.overlay.alive_ids()
        }
        self._takeover_cache = (version, fresh)
        return fresh
