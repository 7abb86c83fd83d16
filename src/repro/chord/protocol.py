"""The Chord maintenance protocol: heartbeats, failures, take-overs, repair.

The information-plane rival of :class:`~repro.can.heartbeat
.HeartbeatProtocol`: both subclass :class:`~repro.overlay
.MaintenanceProtocol`, which runs the round, so the churn/fault
simulations and invariant checkers drive either substrate identically.
Ground truth (ring order, arc ownership) lives in
:class:`~repro.chord.ring.ChordRing`; what each node *believes* lives here.

A node's believed state is a set of known peers with last-heard evidence;
its successor list, predecessor and finger table are *derived* from that
set by ring order (the same computation a real Chord node performs over
learned peer keys).  Peers that fall out of the derived structure are
pruned — believed state stays O(successors + fingers), the ring analogue
of CAN tables keeping only abutting records.

The three heartbeat schemes mirror the paper's Section IV semantics:

* **vanilla** — every heartbeat carries the sender's full peer list;
  receivers repair their structure from third-party entries.
* **compact** — the full list goes only to the sender's believed first
  successor (its predetermined take-over node); everyone else gets a bare
  heartbeat.  Mutual losses can no longer self-heal.
* **adaptive** — compact, plus an on-demand full-update request broadcast
  when the local detector notices a structural gap (successor list shorter
  than configured; the ring analogue of CAN's zone-coverage check).

Heartbeats are *round-trip probes*, as Chord's stabilize/fix-fingers RPCs
are: a delivered heartbeat refreshes the receiver's evidence of the sender
AND the sender's evidence of the target (the ack — tiny, untallied), so
every node directly monitors its whole believed peer set and a dead peer
goes silent to all its believers at once.  Third-party gossip carries the
*source's* evidence timestamps, never fresher, so a gossip cycle cannot
keep a dead node believed-alive.  A compact heartbeat also doubles as
Chord's *notify*: hearing from an unknown peer inserts it into the
receiver's known set, where derivation keeps it iff it improves the
predecessor/successor structure.

Failure handling is the shared round's two-phase model: believers' timeouts
notice a silent crash, and after ``failure_timeout`` the vacated arc merges
into the successor, which notifies the dead node's believers from the state
it stored via full heartbeats.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..can.messages import SIZE_MODEL, MessageType
from ..overlay.base import HeartbeatScheme, MaintenanceProtocol
from .keyspace import RING_BITS, RING_SIZE
from .ring import ChordRing

__all__ = ["ChordMaintenanceProtocol", "ChordProtocolNode"]


class DerivedStructure(NamedTuple):
    """A node's believed ring structure, derived from its known peers.

    Distances are clockwise from the node's own key.  The last three
    fields are all it takes to tell whether one more known id would be
    selected (see :meth:`ChordMaintenanceProtocol._derived`).
    """

    successors: Tuple[int, ...]
    predecessor: Optional[int]
    fingers: Tuple[int, ...]
    peers: Tuple[int, ...]  # deduped successors + predecessor + fingers
    #: the heartbeat send plan: ``peers`` in id order, and the same without
    #: the first successor (the one target that gets full state when the
    #: scheme is not vanilla)
    targets: Tuple[int, ...]
    compact_targets: Tuple[int, ...]
    #: an id closer than this joins the successor list
    successor_span: int
    #: an id at least this far replaces the predecessor
    predecessor_distance: int
    #: finger rank -> the nearest known distance of that rank; a nearer id
    #: of the same rank takes over a finger target
    finger_floor: Dict[int, int]


_EMPTY = DerivedStructure(
    successors=(),
    predecessor=None,
    fingers=(),
    peers=(),
    targets=(),
    compact_targets=(),
    successor_span=RING_SIZE,  # whatever comes first is a successor
    predecessor_distance=0,
    finger_floor={},
)
_KEY_MASK = RING_SIZE - 1


class ChordProtocolNode:
    """Per-node protocol state: known peers, stored peer lists, gap flags."""

    __slots__ = (
        "node_id",
        "known",
        "epoch",
        "stored_state",
        "gap_dirty",
        "gap_attempts",
        "_derived_cache",
        "_derived_epoch",
        "_added",
    )

    def __init__(self, node_id: int):
        self.node_id = node_id
        #: believed peer -> last-heard time (direct messages stamp ``now``;
        #: gossip carries the sender's evidence, never fresher)
        self.known: Dict[int, float] = {}
        #: bumped on every structural change of ``known`` (id added/removed)
        self.epoch = 0
        #: peer -> snapshot of its known map (from full heartbeats) — what
        #: makes an informed take-over notification possible
        self.stored_state: Dict[int, Dict[int, float]] = {}
        self.gap_dirty = False
        self.gap_attempts = 0
        self._derived_cache: Optional[DerivedStructure] = None
        self._derived_epoch = -1
        #: ids :meth:`~ChordMaintenanceProtocol._hear`/``_absorb`` inserted
        #: since the cached derivation; when they account for every epoch
        #: bump since, nothing else happened to ``known``
        self._added: List[int] = []


class ChordMaintenanceProtocol(MaintenanceProtocol):
    """The maintenance round over believed ring peers."""

    event_prefix = "chord"

    def __init__(self, overlay: ChordRing, *args, **kwargs):
        super().__init__(overlay, *args, **kwargs)
        #: append-only id -> ring key (node keys never change; believed
        #: records outliving the member still resolve)
        self._key: Dict[int, int] = {}
        #: bit length of a clockwise distance -> how many configured
        #: finger exponents ``e`` have ``2**e`` <= that distance
        exponents = set(overlay.finger_exponents)
        self._finger_rank: Tuple[int, ...] = tuple(
            accumulate((e in exponents for e in range(RING_BITS)), initial=0)
        )

    # ------------------------------------------------------------------ derived state --
    def key_of(self, node_id: int) -> int:
        """Ring key of any id ever seen (members and former members)."""
        return self._key[node_id]

    def _derived(self, pnode: ChordProtocolNode) -> DerivedStructure:
        """Believed structure from known peers, pruning irrelevant ids.

        Selection is by position in clockwise-distance order — the first
        ``successor_list_size`` ids, the last one, and per configured
        exponent ``e`` the first id at distance >= ``2**e`` — so removing
        an id that was not selected leaves every selected id's claim
        intact: the structure over the kept peers *is* the structure over
        the full known set.  One derivation, one prune, one epoch bump.

        The same argument run backwards is the fast path.  When ``known``
        only gained ids since the cached derivation and none of them would
        be selected next to the cached peers (each is tested on its own:
        an id that loses to the cached peers loses to any superset), the
        cached structure still stands and the gained ids are exactly what
        a fresh derivation would prune.  Either way pruning happens here
        and nowhere else, because ``known`` is observable between
        derivations (reply sizes, gossip, stored state, broken links).
        """
        cached = pnode._derived_cache
        if cached is not None and pnode._derived_epoch == pnode.epoch:
            return cached
        known = pnode.known
        added = pnode._added
        drop: Sequence[int] = ()
        if (
            cached is not None
            and pnode.epoch - pnode._derived_epoch == len(added)
            and not self._any_selected(pnode, cached)
        ):
            derived, drop = cached, added
        else:
            derived = pnode._derived_cache = self._compute_derived(pnode)
            if len(known) > len(derived.peers):
                keep = set(derived.peers)
                drop = [nid for nid in known if nid not in keep]
        if drop:
            for nid in drop:
                del known[nid]
            pnode.epoch += 1
        added.clear()
        pnode._derived_epoch = pnode.epoch
        return derived

    def _any_selected(
        self, pnode: ChordProtocolNode, cached: DerivedStructure
    ) -> bool:
        """Would any id inserted since ``cached`` enter its structure?

        Equal distances resolve as the stable sort in
        :meth:`_compute_derived` would: the later insertion sorts last.
        """
        key = self._key
        own_key = key[pnode.node_id]
        span = cached.successor_span
        farthest = cached.predecessor_distance
        floor = cached.finger_floor
        rank = self._finger_rank
        for nid in pnode._added:
            d = (key[nid] - own_key) & _KEY_MASK
            if (
                d < span
                or d >= farthest
                or d < floor.get(rank[d.bit_length()], RING_SIZE)
            ):
                return True
        return False

    def _compute_derived(self, pnode: ChordProtocolNode) -> DerivedStructure:
        """One pass over the known ids in clockwise-distance order.

        ``successor(own + 2**e)`` is the first id at distance >= ``2**e``,
        so id *i* holds a finger target iff a configured ``2**e`` lies in
        ``(d[i-1], d[i]]``, i.e. iff the finger rank rises from ``d[i-1]``
        to ``d[i]``.  Walking *i* downwards lists fingers highest exponent
        first; ids already in the structure as successors (the low end)
        or predecessor (the far end) are not listed again.  A target past
        every known id wraps to the first successor.
        """
        if not pnode.known:
            return _EMPTY
        key = self._key
        own_key = key[pnode.node_id]
        distance = {
            nid: (key[nid] - own_key) & _KEY_MASK for nid in pnode.known
        }
        ids = sorted(distance, key=distance.__getitem__)
        dists = [distance[nid] for nid in ids]
        rank = self._finger_rank
        ranks = [rank[d.bit_length()] for d in dists]
        n = len(ids)
        k = self.overlay.successor_list_size
        successors = tuple(ids[:k])
        predecessor = ids[-1]
        fingers = tuple(
            [ids[i] for i in range(n - 2, k - 1, -1) if ranks[i] > ranks[i - 1]]
        )
        # with n <= k the predecessor is the last successor
        peers = successors + (predecessor,) + fingers if n > k else successors
        targets = tuple(sorted(peers))
        heir = successors[0]
        return DerivedStructure(
            successors=successors,
            predecessor=predecessor,
            fingers=fingers,
            peers=peers,
            targets=targets,
            compact_targets=tuple([t for t in targets if t != heir]),
            successor_span=dists[k - 1] if n >= k else RING_SIZE,
            predecessor_distance=dists[-1],
            # ascending distances, so the nearest of each rank is kept
            finger_floor=dict(zip(reversed(ranks), reversed(dists))),
        )

    def believed_peers(self, node_id: int) -> Tuple[int, ...]:
        """The node's believed routing peers (successors, pred, fingers)."""
        return self._derived(self.nodes[node_id]).peers

    def believed_successors(self, node_id: int) -> Tuple[int, ...]:
        return self._derived(self.nodes[node_id]).successors

    # ------------------------------------------------------------------ belief edits --
    def _hear(self, pnode: ChordProtocolNode, sender_id: int, now: float) -> None:
        """A direct message from ``sender_id`` arrived: fresh evidence."""
        if sender_id == pnode.node_id:
            return
        if sender_id not in pnode.known:
            pnode.epoch += 1
            pnode._added.append(sender_id)
        pnode.known[sender_id] = now

    def _absorb(
        self, pnode: ChordProtocolNode, entries: Dict[int, float]
    ) -> None:
        """Third-party entries arrived: evidence capped at the source's.
        Self is skipped; a known id keeps the larger stamp."""
        known = pnode.known
        get = known.get
        for subject_id, heard_at in entries.items():
            existing = get(subject_id)
            if existing is None:
                if subject_id != pnode.node_id:
                    known[subject_id] = heard_at
                    pnode.epoch += 1
                    pnode._added.append(subject_id)
            elif heard_at > existing:
                known[subject_id] = heard_at

    def _forget(self, pnode: ChordProtocolNode, subject_id: int) -> bool:
        if subject_id in pnode.known:
            del pnode.known[subject_id]
            pnode.epoch += 1
            pnode.gap_dirty = True
            return True
        return False

    # ------------------------------------------------------------------ membership --
    def _new_node(self, node_id: int) -> ChordProtocolNode:
        self._key[node_id] = self.overlay.key_of(node_id)
        return ChordProtocolNode(node_id)

    def _state_bytes(self, known: Dict[int, float]) -> int:
        """Wire size of a full peer list plus its owner's own entry."""
        entries = len(known) + 1
        return SIZE_MODEL.table_bytes_from_totals(
            self.overlay.space.dims, entries, entries
        )

    def _joined(self, newcomer: ChordProtocolNode, result, now: float) -> None:
        node_id = newcomer.node_id
        if result.splitter_id is None:
            return
        splitter = self.nodes[result.splitter_id]

        # Join reply: the prior arc owner hands the newcomer its own entry
        # plus its full peer list — the newcomer derives its structure from
        # that (Chord's join-by-successor bootstrapping).
        self.stats.record(
            MessageType.JOIN_REPLY, self._state_bytes(splitter.known)
        )
        self._absorb(newcomer, splitter.known)
        self._hear(newcomer, splitter.node_id, now)
        newcomer.gap_dirty = True
        self._hear(splitter, node_id, now)
        splitter.gap_dirty = True

        # Join notify: the splitter announces the newcomer to its believed
        # peers so predecessors/fingers can adopt it.
        targets = [
            t for t in self._derived(splitter).targets if t != node_id
        ]
        newcomer_entry = {node_id: now}
        for receiver in self._notify(
            MessageType.JOIN_NOTIFY, splitter.node_id, targets, now
        ):
            self._hear(receiver, splitter.node_id, now)
            self._absorb(receiver, newcomer_entry)

    def _hand_off(
        self, leaver: ChordProtocolNode, transfers: List, now: float
    ) -> None:
        node_id = leaver.node_id
        leaver_known = dict(leaver.known)
        handoff_size = self._state_bytes(leaver_known)
        for transfer in transfers:
            heir = self._deliverable(transfer.to_node)
            if heir is None:
                continue  # the arc landed on a ghost; claimed later
            self.stats.record(MessageType.HANDOFF, handoff_size)
            self._absorb(heir, leaver_known)
            self._forget(heir, node_id)
            heir.gap_dirty = True
            self._notify_takeover(heir, node_id, leaver_known, now)

    def adopt_overlay(self, now: float = 0.0) -> None:
        """Warm-start believed state for a ring built outside the protocol.

        Every member gets a protocol node whose known set is seeded with
        its ground-truth predecessor, successor list and fingers, freshly
        heard at ``now`` — the state a long-converged protocol would be in.
        """
        for node_id in sorted(self.overlay.members):
            if node_id not in self.nodes:
                self._make_node(node_id)
        for node_id, pnode in self.nodes.items():
            seeds: Set[int] = set(self.overlay.successor_list(node_id))
            pred = self.overlay.predecessor(node_id)
            if pred is not None:
                seeds.add(pred)
            seeds.update(self.overlay.fingers(node_id))
            seeds.discard(node_id)
            for nid in sorted(seeds):
                if nid in self.nodes:
                    self._hear(pnode, nid, now)

    # -- heartbeat exchange -------------------------------------------------
    def _exchange_heartbeats(self, now: float) -> None:
        vanilla = self.config.scheme is HeartbeatScheme.VANILLA
        dims = self.overlay.space.dims
        compact_size = SIZE_MODEL.heartbeat_bytes(dims, 1)
        net = self.net if not self.net.is_identity else None
        period = self.config.period
        # nothing a turn does changes who is alive: one read of the ring
        is_alive = self.overlay.is_alive
        live = {nid: pnode for nid, pnode in self.nodes.items() if is_alive(nid)}
        hear, absorb, stored_in = self._hear, self._absorb, self._stored_in
        for node_id in self._sorted_node_ids():
            sender = live.get(node_id)
            if sender is None:
                continue  # ghosts are silent
            derived = self._derived(sender)
            if not derived.targets:
                continue
            # after _derived, targets <= peers <= known: an ack never
            # inserts, it only stamps
            known = sender.known
            full_size = SIZE_MODEL.heartbeat_bytes_from_totals(
                dims, 1, len(known), len(known)
            )
            if vanilla:
                full_targets = derived.targets
                compact_targets: Tuple[int, ...] = ()
            else:
                # full state only to the believed take-over node: the first
                # believed successor, which would absorb this node's arc
                full_targets = derived.successors[:1]
                compact_targets = derived.compact_targets
            self.stats.record(
                MessageType.HEARTBEAT_FULL, full_size, len(full_targets)
            )
            self.stats.record(
                MessageType.HEARTBEAT, compact_size, len(compact_targets)
            )
            for target_id in full_targets:
                if net is not None:
                    lat = self._transmit(node_id, target_id, now)
                    if lat is None:
                        continue  # dropped in flight (sender paid bytes)
                    if lat > period:
                        # slower than the round granularity: lands later
                        # (the ack shares the forward message's fate)
                        self._deferred.append(
                            (now + lat, "full", target_id, node_id,
                             dict(known), now)
                        )
                        continue
                receiver = live.get(target_id)
                if receiver is None:
                    continue  # dead target: no ack, sender's evidence ages
                hear(receiver, node_id, now)
                # the (untallied) ack travels the reverse link, so a cut
                # of target->sender starves the sender's evidence even
                # when the forward direction delivers; ack latency is a
                # sub-round detail (evidence is stamped at send time)
                if net is None or self._transmit(
                    target_id, node_id, now
                ) is not None:
                    known[target_id] = now
                snapshot = receiver.stored_state[node_id] = dict(known)
                stored_in.setdefault(node_id, set()).add(target_id)
                absorb(receiver, snapshot)
            for target_id in compact_targets:
                if net is not None:
                    lat = self._transmit(node_id, target_id, now)
                    if lat is None:
                        continue
                    if lat > period:
                        self._deferred.append(
                            (now + lat, "compact", target_id, node_id,
                             None, now)
                        )
                        continue
                receiver = live.get(target_id)
                if receiver is None:
                    continue  # dead target: no ack, sender's evidence ages
                # doubles as stabilize/notify: an unknown sender enters the
                # receiver's known set and survives iff it improves the
                # derived predecessor/successor structure
                hear(receiver, node_id, now)
                if net is None or self._transmit(
                    target_id, node_id, now
                ) is not None:
                    known[target_id] = now  # the (untallied) ack

    def _land_late(
        self,
        receiver: ChordProtocolNode,
        sender_id: int,
        snapshot: Optional[Dict[int, float]],
        sent_at: float,
        now: float,
    ) -> None:
        """Evidence — including the ack the sender gets back — is stamped
        with the send time: slow links delay detection-relevant freshness
        instead of forging it."""
        receiver_id = receiver.node_id
        self._absorb(receiver, {sender_id: sent_at})
        sender = self._deliverable(sender_id)
        if sender is not None and self._transmit(
            receiver_id, sender_id, now
        ) is not None:
            self._absorb(sender, {receiver_id: sent_at})  # the late ack
        if snapshot is not None:
            receiver.stored_state[sender_id] = snapshot
            self._stored_in.setdefault(sender_id, set()).add(receiver_id)
            self._absorb(receiver, snapshot)

    # -- failure detection & take-over --------------------------------------
    def _detect_failures_at(
        self, pnode: ChordProtocolNode, now: float, timeout: float
    ) -> None:
        known = pnode.known
        if not known or now - min(known.values()) <= timeout:
            return  # the oldest evidence is fresh enough: nothing is stale
        stale = sorted(
            nid for nid, heard_at in known.items() if now - heard_at > timeout
        )
        for stale_id in stale:
            self._forget(pnode, stale_id)
            self._believer_timed_out(pnode.node_id, stale_id, now)

    def _stored_copy(
        self, holder: ChordProtocolNode, subject_id: int
    ) -> Optional[Dict[int, float]]:
        return holder.stored_state.get(subject_id)

    def _discard_stored(self, holder: ChordProtocolNode, subject_id: int) -> None:
        holder.stored_state.pop(subject_id, None)

    def _claim_zone(
        self,
        claimant: ChordProtocolNode,
        dead_id: int,
        transfer,
        known_state: Optional[Dict[int, float]],
        now: float,
    ) -> None:
        self._forget(claimant, dead_id)
        if known_state:
            self._absorb(claimant, known_state)
        self._notify_takeover(claimant, dead_id, known_state or {}, now)

    def _notify_takeover(
        self,
        claimant: ChordProtocolNode,
        vacated_id: int,
        source_known: Dict[int, float],
        now: float,
    ) -> None:
        """Announce the new arc ownership to everyone the claimant knows."""
        candidates = set(self._derived(claimant).peers)
        candidates.update(source_known)
        candidates.discard(claimant.node_id)
        candidates.discard(vacated_id)
        for receiver in self._notify(
            MessageType.TAKEOVER_NOTIFY, claimant.node_id, sorted(candidates), now
        ):
            self._forget(receiver, vacated_id)
            self._hear(receiver, claimant.node_id, now)

    # -- adaptive repair -----------------------------------------------------
    def _needs_repair(self, pnode: ChordProtocolNode) -> bool:
        # A dirty node just forgot a believed peer — that removal is
        # local knowledge, so it requests repair even when its derived
        # successor list has refilled to full length from farther ids
        # (a substitution gap the length check cannot see).
        return pnode.gap_dirty or self._detects_gap(pnode.node_id)

    def _repair_targets(self, pnode: ChordProtocolNode) -> Tuple[int, ...]:
        return self._derived(pnode).targets

    def _full_update_reply(self, responder: ChordProtocolNode) -> Tuple[int, tuple]:
        known = responder.known
        return self._state_bytes(known), (responder.node_id, dict(known))

    def _land_replies(
        self,
        receiver: ChordProtocolNode,
        payloads: List[Tuple[int, Dict[int, float]]],
        now: float,
    ) -> None:
        """Land all of a requester's replies, then take one gap verdict —
        exact against a verdict after each (``sel(S | R) == sel(sel(S) |
        R)``, and neither detector reopens a gap as ``known`` grows; see
        DESIGN.md, "How believed structure is derived")."""
        for responder_id, snapshot in payloads:
            self._hear(receiver, responder_id, now)
            self._absorb(receiver, snapshot)
        grown = len(receiver.known)
        self._settle_gap(receiver, now)
        if 2 * len(receiver.known) < grown:
            # the prune dropped more than it kept, and a dict never gives
            # back the table it grew to: rebuild it (order kept)
            receiver.known = dict(receiver.known)

    def _detects_gap(self, node_id: int) -> bool:
        """Would this node's local structure detector fire right now?

        The honest local check: the believed successor list is shorter
        than configured (a removal punched a hole the node cannot refill
        from what it knows).
        """
        pnode = self.nodes[node_id]
        derived = self._derived(pnode)
        if not derived.successors:
            return True
        return len(derived.successors) < self.overlay.successor_list_size

    # -- metrics -------------------------------------------------------------
    # Truth is the ring's link table (by id); ``known`` is read through
    # ``self.nodes`` each time, because a reply batch may replace the dict.
    def count_broken_links(self) -> int:
        """Directed count of ground-truth ring links (alive successors and
        predecessor; fingers are performance state) missing from beliefs."""
        nodes = self.nodes
        total = 0
        for node_id, links in self.overlay.live_links().items():
            known = nodes[node_id].known
            for nid in links:
                if nid not in known:
                    total += 1
        return total
