"""Struct-of-arrays hot state for the heartbeat protocol (the array engine).

The object engine (:mod:`repro.can.heartbeat`) keeps per-node believed
tables as dict-of-dict freshness bookkeeping; every heartbeat round then
walks O(nodes x degree) Python dict entries just to advance last-heard
timestamps and scan for timeouts.  This module keeps the same *semantics*
but moves the per-edge hot state — freshness, believed versions, reverse
adjacency — into flat numpy arrays shared by all tables, so the per-round
work becomes a handful of vectorised kernels plus a short Python loop over
the exceptional cases.

Design in brief:

* :class:`EdgeStore` owns slot arrays indexed by *edge* (one slot per
  believed-table entry: ``owner`` believes ``subject``): ``eh`` (last
  heard), ``owner_row``/``subj_row`` (node row indices), ``rev`` (the
  reverse edge's slot, -1 when the belief is not mutual), and
  ``edge_version`` (the believed record's version).  Per-node rows carry
  ``alive`` and ``own_version``.  Node rows are allocated monotonically
  and never reused (node ids never recur), so a stale ``subj_row`` always
  points at a permanently-dead row.

* :class:`ArrayNeighborTable` subclasses
  :class:`~repro.can.neighbor.NeighborTable` and reroutes every freshness
  access to the store's arrays; the structural side (records, epochs,
  copy-on-write snapshots) keeps the parent's dict machinery.  Because the
  whole protocol manipulates tables through this interface, the object
  engine's code paths (joins, claims, gap repair, message loss) run
  unchanged — and byte-identically — on array-backed state.

* :class:`ArrayHeartbeatProtocol` replaces the two per-round hot phases.
  The exchange phase computes, per round, the set of *exceptional* edges
  ``X`` (reverse belief missing or version-stale: exactly the deliveries
  that can mutate a receiver's table) and marks their senders suspect;
  every other alive sender's deliveries are pure freshness advances, which
  a single bulk kernel applies at the end of the exchange.  Reads during
  the exchange see position-filtered values (``now`` iff the subject
  already took its turn), so mid-round snapshots match the object engine
  exactly.  The detection phase becomes one vectorised timeout scan that
  falls back to the shared per-node path only for flagged owners.

* A *settled streak* removes the per-sender loop from a quiet round.  After
  a round in which every alive sender was clean, every full-table delivery
  hit the ``processed_epoch`` skip and every receiver was deliverable, the
  same will hold for as long as the structural state stands still
  (``struct_gen``, the sender-order list, the topology version), so such a
  round re-adds the captured byte totals, freezes one array of what every
  owner's table reads at its own turn, and runs the bulk advance.  The
  stored full tables the loop would have re-written each round are written
  once, from the last frozen array, when the streak ends or a stored copy
  is asked for.

* A *batched merge* decides a sender's whole turn of full-table merges at
  once.  The loop it replaces visits every record of the table at every
  receiver, and nearly always does one of two things that need no Python:
  a freshness max on a record the receiver already believes, or nothing,
  for a record it memoised as not abutting.  The sender's records go into a
  store-owned row -> column scratch; each receiver's cached view (subject
  rows with the slot it holds or the version it memoised) is gathered
  through it into one receivers x records matrix; the two cheap cases are a
  compare and one masked store into ``eh``; the cells left over go to the
  inherited ``_receive_record`` in the loop's order.  Receivers that only
  lack what the sender's table changed since an epoch visit those few
  records directly.  This is what vanilla's every-delivery merge needed to
  stop losing to dict-backed tables (DESIGN.md, "Object or array").

Equivalence is pinned by the seeded goldens in ``tests/can/hb_golden.py``
(both engines must produce byte-identical accounting and traces), by a
hypothesis property test driving random churn through both engines, and by
``tests/can/test_merge_kernel.py``, which runs the batched merge against
the loop it replaces on identical array-backed state.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..net import NetworkModel
from .heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
    ProtocolNode,
)
from .messages import MessageType
from .neighbor import _NEG_INF, BeliefRecord, NeighborTable, TableSnapshot
from .overlay import CanOverlay

__all__ = [
    "EdgeStore",
    "ArrayNeighborTable",
    "ArrayHeartbeatProtocol",
    "protocol_class",
    "build_protocol",
]

#: sentinel distinguishing "not resolved yet" from "resolved to undeliverable"
_MISS = object()

_POS_MAX = np.iinfo(np.int64).max

#: what a merge reads where a receiver holds no slot for a sender's record:
#: nothing known, or (``_MEMO - version``, so anything at or below it) a
#: version memoised as not abutting
_UNKNOWN, _MEMO = -1, -2


def _grown(arr: np.ndarray, new_cap: int, fill) -> np.ndarray:
    out = np.full(new_cap, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class EdgeStore:
    """Shared slot arrays for every believed-table entry of one protocol."""

    def __init__(self, slot_capacity: int = 1024, row_capacity: int = 256):
        # -- per-edge slots (owner believes subject) -------------------------
        self.n_slots = 0  # high-water mark; freed slots are recycled
        self._slot_cap = slot_capacity
        self.eh = np.full(slot_capacity, _NEG_INF, dtype=np.float64)
        self.owner_row = np.zeros(slot_capacity, dtype=np.int32)
        self.subj_row = np.full(slot_capacity, -1, dtype=np.int32)
        self.rev = np.full(slot_capacity, -1, dtype=np.int32)
        self.edge_version = np.zeros(slot_capacity, dtype=np.int64)
        self.active = np.zeros(slot_capacity, dtype=bool)
        self.free_slots: List[int] = []
        #: live slots whose subject has no row (a record gossiped about a
        #: node that already left); the merge kernel steps aside for them
        self.rowless = 0
        # -- per-node rows (allocated monotonically, never reused) -----------
        self.n_rows = 0
        self._row_cap = row_capacity
        self.alive = np.zeros(row_capacity, dtype=bool)
        self.own_version = np.zeros(row_capacity, dtype=np.int64)
        #: row -> position in the table being merged, -1 elsewhere: a merge
        #: scatters the sender's record positions in, gathers at each
        #: receiver's subject rows, and wipes it again
        self.col_of_row = np.full(row_capacity, -1, dtype=np.int64)
        self.row_of: Dict[int, int] = {}
        self.node_of_row: List[int] = []
        self.tables_by_row: List[Optional["ArrayNeighborTable"]] = []
        # -- round-local exchange state --------------------------------------
        #: slots whose freshness advances to ``round_now`` at exchange end
        self.adv_mask: Optional[np.ndarray] = None
        #: per-row position in this round's sender order
        self.pos_of_row: Optional[np.ndarray] = None
        #: per-slot sender position after which the slot reads as ``now``
        #: (``_POS_MAX`` for slots outside the bulk advance); sized to the
        #: full slot capacity so mid-round gathers never go out of range
        self.avail_pos: Optional[np.ndarray] = None
        #: position of the sender currently being processed
        self.cur_pos: int = -1
        self.round_now: float = 0.0
        #: bumped whenever a bulk write lands (snapshot caches key off it)
        self.heard_gen: int = 0
        #: bumped on every write to a prescan-mask input (slot allocation,
        #: edge/own version, liveness); the exchange kernel reuses its
        #: whole prescan across rounds while this stands still
        self.struct_gen: int = 0
        #: rows whose tables mutated since the current exchange began —
        #: senders re-check this instead of rescanning epoch arrays
        self.mut_rows: set = set()

    # -- rows -----------------------------------------------------------------
    def alloc_row(self, node_id: int) -> int:
        row = self.n_rows
        if row >= self._row_cap:
            new_cap = self._row_cap * 2
            self.alive = _grown(self.alive, new_cap, False)
            self.own_version = _grown(self.own_version, new_cap, 0)
            self.col_of_row = _grown(self.col_of_row, new_cap, -1)
            self._row_cap = new_cap
        self.n_rows = row + 1
        self.alive[row] = True
        self.own_version[row] = 0
        self.row_of[node_id] = row
        self.node_of_row.append(node_id)
        self.tables_by_row.append(None)
        self.struct_gen += 1
        return row

    def table_for(self, node_id: int) -> Optional["ArrayNeighborTable"]:
        row = self.row_of.get(node_id)
        if row is None:
            return None
        return self.tables_by_row[row]

    # -- slots ----------------------------------------------------------------
    def alloc_slot(
        self,
        owner_row: int,
        subject_id: int,
        partner: int = -1,
        version: int = 0,
        heard: float = _NEG_INF,
    ) -> int:
        """A slot for ``owner_row`` believing ``subject_id``, fully written.

        ``partner`` is the reverse edge's slot (-1: the belief is not
        mutual); both ends get linked.
        """
        free = self.free_slots
        if free:
            s = free.pop()
        else:
            s = self.n_slots
            if s >= self._slot_cap:
                new_cap = self._slot_cap * 2
                self.eh = _grown(self.eh, new_cap, _NEG_INF)
                self.owner_row = _grown(self.owner_row, new_cap, 0)
                self.subj_row = _grown(self.subj_row, new_cap, -1)
                self.rev = _grown(self.rev, new_cap, -1)
                self.edge_version = _grown(self.edge_version, new_cap, 0)
                self.active = _grown(self.active, new_cap, False)
                if self.avail_pos is not None:
                    self.avail_pos = _grown(self.avail_pos, new_cap, _POS_MAX)
                self._slot_cap = new_cap
            self.n_slots = s + 1
        srow = self.row_of.get(subject_id, -1)
        if srow < 0:
            self.rowless += 1
        self.owner_row[s] = owner_row
        self.subj_row[s] = srow
        self.rev[s] = partner
        if partner >= 0:
            self.rev[partner] = s
        self.edge_version[s] = version
        self.eh[s] = heard
        self.active[s] = True
        self.struct_gen += 1
        self.mut_rows.add(owner_row)
        return s

    def free_slot(self, s: int) -> None:
        r = self.rev[s]
        if r >= 0:
            self.rev[r] = -1
            self.rev[s] = -1
        self.active[s] = False
        self.eh[s] = _NEG_INF
        if self.subj_row[s] < 0:
            self.rowless -= 1
        # a slot freed mid-exchange must not receive the end-of-round bulk
        # write (or read as advanced) if it gets reused for a different edge
        mask = self.adv_mask
        if mask is not None and s < mask.shape[0]:
            mask[s] = False
        if self.avail_pos is not None:
            self.avail_pos[s] = _POS_MAX
        self.free_slots.append(s)
        self.struct_gen += 1
        self.mut_rows.add(int(self.owner_row[s]))

    # -- exchange round state -------------------------------------------------
    def begin_exchange(
        self,
        now: float,
        adv_mask: np.ndarray,
        pos_of_row: np.ndarray,
        avail_pos: np.ndarray,
    ) -> None:
        self.round_now = now
        self.adv_mask = adv_mask
        self.pos_of_row = pos_of_row
        self.avail_pos = avail_pos
        self.cur_pos = -1
        self.mut_rows.clear()

    def end_exchange(self) -> None:
        mask = self.adv_mask
        if mask is not None:
            # all evidence is <= sim time, so a plain assign is the max
            self.eh[: mask.shape[0]][mask] = self.round_now
        self.adv_mask = None
        self.pos_of_row = None
        self.avail_pos = None
        self.cur_pos = -1
        self.heard_gen += 1

    def heard_value(self, s: int) -> float:
        """Freshness of a slot as the object engine would see it *right now*.

        During the exchange, a slot flagged for the bulk advance reads as
        ``now`` once its subject's turn has passed (the object engine would
        have written it at that turn); otherwise the raw array value.
        """
        avail = self.avail_pos
        if avail is not None and avail[s] < self.cur_pos:
            return self.round_now
        return self.eh[s]


class _LazyHeard(Mapping):
    """Snapshot ``heard`` dict materialised on first read.

    Stored-table snapshots are taken on every full-table delivery but read
    only on the rare absorb (take-over, gap reply), so the per-snapshot
    cost must be the bare freeze: two array gathers.  The keys come from
    the snapshot's record dict, which copy-on-write already froze in
    matching insertion order.
    """

    __slots__ = ("_records", "_raw", "_avail", "_cur", "_now", "_d")

    def __init__(self, records, raw, avail, cur, now):
        self._records = records
        self._raw = raw
        self._avail = avail
        self._cur = cur
        self._now = now
        self._d: Optional[Dict[int, float]] = None

    def array(self) -> np.ndarray:
        """The values, in record order, without building the dict."""
        if self._avail is not None:
            # the mid-exchange position filter, applied once
            self._raw = np.where(self._avail < self._cur, self._now, self._raw)
            self._avail = None
        return self._raw

    def _dict(self) -> Dict[int, float]:
        d = self._d
        if d is None:
            d = self._d = dict(zip(self._records, self.array().tolist()))
        return d

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def __contains__(self, key):
        return key in self._records

    def get(self, key, default=None):
        return self._dict().get(key, default)

    def __eq__(self, other):
        if isinstance(other, _LazyHeard):
            other = other._dict()
        return self._dict() == other

    __hash__ = None


class ArrayNeighborTable(NeighborTable):
    """A believed table whose freshness lives in :class:`EdgeStore` arrays.

    Structural state (records, epochs, COW snapshots of the record dict)
    reuses the parent; every last-heard access goes to the store.  The
    parent's ``_last_heard`` dict stays empty.
    """

    def __init__(
        self,
        freshness_ttl: float,
        store: EdgeStore,
        node_id: int,
        row: int,
    ):
        super().__init__(freshness_ttl)
        self._store = store
        self._node_id = node_id
        self._row = row
        #: subject id -> slot, in insertion order (mirrors ``_records``)
        self._slots: Dict[int, int] = {}
        #: bumped on any per-slot freshness write or slot change here
        self._heard_gen = 0
        self._snap_key: Optional[Tuple] = None
        #: cached ``np.fromiter(_slots.values())``; None after slot changes
        self._slots_vec: Optional[np.ndarray] = None
        #: (slot vector, its subjects' rows)
        self._rows_vec: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: what a batched merge reads of this table as a *sender*
        #: (``merge_source``), less the freshness: (epoch, ...)
        self._epoch_src: Optional[Tuple] = None
        #: and as a *receiver* (``merge_view``); None after a slot, memo or
        #: own-version change
        self._merge_view: Optional[Tuple] = None
        #: the owner's ``_non_abutting`` memo as parallel arrays (subject row,
        #: ``_MEMO - version``), for the one ``own_version`` they were
        #: collected at; a subset of the dict's current entries, which is
        #: all a memo has to be
        self._memo_version = -1
        self._memo_rows = self._memo_vals = None

    # -- freshness ------------------------------------------------------------
    def advance_freshness(self, node_id: int, evidence: Optional[float]) -> None:
        if evidence is None:
            return
        s = self._slots.get(node_id)
        if s is None:
            return
        store = self._store
        if evidence > store.eh[s]:
            store.eh[s] = evidence
            self._heard_gen += 1

    def heard_from(self, record: BeliefRecord, now: float) -> bool:
        current = self._records.get(record.node_id)
        if current is None or record.version > current.version:
            return False
        s = self._slots[record.node_id]
        store = self._store
        if now > store.eh[s]:
            store.eh[s] = now
            self._heard_gen += 1
        return True

    # -- updates --------------------------------------------------------------
    def upsert(
        self,
        record: BeliefRecord,
        now: float,
        heard: bool = False,
        heard_at: Optional[float] = None,
    ) -> bool:
        evidence = now if heard else (heard_at if heard_at is not None else now)
        nid = record.node_id
        current = self._records.get(nid)
        store = self._store
        if current is None:
            if not heard and now - evidence > self.freshness_ttl:
                return False  # too stale to (re-)introduce
            self._own_records()
            self._records[nid] = record
            partner = store.table_for(nid)
            self._slots[nid] = store.alloc_slot(
                self._row,
                nid,
                -1 if partner is None else partner._slots.get(self._node_id, -1),
                record.version,
                evidence,
            )
            self._heard_gen += 1
            self._slots_vec = self._merge_view = None
            self._total_zones += max(len(record.zones), 1)
            self.epoch += 1
            self._record_seq[nid] = self.epoch
            return True
        s = self._slots[nid]
        if evidence > store.eh[s]:
            store.eh[s] = evidence
            self._heard_gen += 1
        if current.version > record.version or current == record:
            return False
        self._own_records()
        self._records[nid] = record
        store.edge_version[s] = record.version
        store.struct_gen += 1
        store.mut_rows.add(self._row)
        self._total_zones += max(len(record.zones), 1) - max(
            len(current.zones), 1
        )
        self.epoch += 1
        self._record_seq[nid] = self.epoch
        return True

    def remove(self, node_id: int, now: Optional[float] = None) -> bool:
        record = self._records.get(node_id)
        if record is None:
            return False
        self._own_records()
        del self._records[node_id]
        if now is not None:
            self._recent_removals[node_id] = (record.zones, now)
        store = self._store
        store.free_slot(self._slots.pop(node_id))
        self._heard_gen += 1
        self._slots_vec = self._merge_view = None
        self._record_seq.pop(node_id, None)
        self._total_zones -= max(len(record.zones), 1)
        self.epoch += 1
        self.removals_epoch += 1
        return True

    def release(self) -> None:
        """Free every slot (the owning node left the protocol)."""
        store = self._store
        for s in self._slots.values():
            store.free_slot(s)
        self._slots.clear()
        self._heard_gen += 1
        self._slots_vec = self._merge_view = None

    # -- reads ----------------------------------------------------------------
    def records_since(self, epoch: int) -> List[Tuple[BeliefRecord, float]]:
        store = self._store
        slots = self._slots
        records = self._records
        if store.adv_mask is not None:
            hv = store.heard_value
            return [
                (records[nid], hv(slots[nid]))
                for nid, seq in self._record_seq.items()
                if seq > epoch
            ]
        eh = store.eh
        return [
            (records[nid], eh[slots[nid]])
            for nid, seq in self._record_seq.items()
            if seq > epoch
        ]

    def last_heard(self, node_id: int) -> float:
        s = self._slots.get(node_id)
        if s is None:
            return _NEG_INF
        return float(self._store.heard_value(s))

    # -- array views for the batched merge --------------------------------------
    def slot_vector(self) -> np.ndarray:
        """The slots, in record order."""
        vec = self._slots_vec
        if vec is None:
            slots = self._slots
            vec = self._slots_vec = np.fromiter(
                slots.values(), dtype=np.int64, count=len(slots)
            )
        return vec

    def slot_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """(slots, their subjects' rows), in record order."""
        vec = self.slot_vector()
        cached = self._rows_vec
        if cached is None or cached[0] is not vec:
            # as wide as an index: these rows index the merge scratch
            cached = self._rows_vec = (
                vec, self._store.subj_row[vec].astype(np.int64)
            )
        return cached

    def merge_source(self, snap: TableSnapshot) -> Tuple:
        """The sender side of a batched merge of ``snap``, a snapshot just
        taken of this table, all in record order: (subject rows, the epoch
        each record last changed at, versions, what a memo of each version
        reads, frozen freshness).  The last three carry one spare entry —
        the merge matrix's spare column — newer than anything believed and
        never heard."""
        by_epoch = self._epoch_src
        if by_epoch is None or by_epoch[0] != self.epoch:
            vec, rows = self.slot_rows()
            n = len(vec)
            versions = np.empty(n + 1, dtype=np.int64)
            versions[:n] = self._store.edge_version[vec]
            versions[n] = _POS_MAX
            by_epoch = self._epoch_src = (
                self.epoch,
                rows,
                # ``_record_seq`` mirrors the record dict's insertion order
                np.fromiter(self._record_seq.values(), dtype=np.int64, count=n),
                versions,
                _MEMO - versions,
            )
        heard = np.empty(len(by_epoch[1]) + 1)
        heard[:-1] = snap.heard.array()
        heard[-1] = _NEG_INF
        return by_epoch[1:] + (heard,)

    def merge_view(self, own_version: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """The receiver side: what the owner (at ``own_version``) knows of
        every subject it knows anything of — (rows, values, how many).

        A value is the slot of a believed record, or ``_MEMO - version`` for
        a record version memoised as not abutting; the owner's own row
        reads as its current version memoised (a merge skips that record).
        Memo entries come first: where a subject has both, the later store —
        the believed slot — is the one that stays.
        """
        if self._memo_version != own_version:
            # zones changed: every earlier verdict is about other zones
            self._memo_version = own_version
            self._memo_rows = np.array([self._row], dtype=np.int64)
            self._memo_vals = np.array([_MEMO - own_version], dtype=np.int64)
        vec, rows = self.slot_rows()
        rows = np.concatenate((self._memo_rows, rows))
        view = self._merge_view = (
            rows, np.concatenate((self._memo_vals, vec)), len(rows)
        )
        return view

    def memoise(self, rows: np.ndarray, memo_values: np.ndarray) -> None:
        self._memo_rows = np.concatenate((self._memo_rows, rows))
        self._memo_vals = np.concatenate((self._memo_vals, memo_values))
        self._merge_view = None

    def stale_ids(self, now: float, timeout: float) -> List[int]:
        stale = now - self._store.eh[self.slot_vector()] > timeout
        return [nid for nid, late in zip(self._slots, stale.tolist()) if late]

    def snapshot(self) -> TableSnapshot:
        store = self._store
        key = (
            self.epoch,
            self._heard_gen,
            store.heard_gen,
            store.cur_pos if store.adv_mask is not None else -1,
        )
        snap = self._snap_cache
        if snap is not None and self._snap_key == key:
            return snap
        vec = self.slot_vector()
        if not len(vec):
            heard = {}
        else:
            # freeze the two mutable inputs now (eh advances in later
            # rounds; avail_pos flips on mid-round slot frees) and defer
            # the heard_value filter + dict build to first read.  avail_pos
            # is _POS_MAX outside the bulk advance and sized to capacity,
            # so the gather stays in bounds for mid-round slots.
            avail = store.avail_pos
            heard = _LazyHeard(
                self._records,
                store.eh[vec],
                None if avail is None else avail[vec],
                store.cur_pos,
                store.round_now,
            )
        snap = TableSnapshot(self._records, heard, self._total_zones)
        # the record dict is shared with the snapshot (COW as the parent);
        # the heard mapping is freshly frozen, so never shared
        self._records_shared = True
        self._snap_cache = snap
        self._snap_key = key
        return snap


class _Streak(NamedTuple):
    """What a round that was clean throughout decided for the ones after it."""

    gen: int  # the structural state it holds for: struct_gen, ...
    order: List[int]
    topology_version: int
    #: that round's accounting: full bytes, full count, compact bytes, count
    totals: Tuple[int, int, int, int]
    turn: np.ndarray  # per slot: the subject's turn comes before the owner's
    #: flat, four entries a clean sender with full-table targets:
    #: sender id, target ids, its snapshot, its slot vector
    senders: list


class ArrayHeartbeatProtocol(HeartbeatProtocol):
    """The heartbeat protocol with batched per-round kernels.

    Behaviourally identical to :class:`HeartbeatProtocol` (the goldens pin
    byte-identical seeded accounting); only the round's hot phases and a
    turn's full-table merges run as array kernels.  A non-identity network
    channel (``set_network``) falls back to the inherited per-delivery
    exchange, which runs exactly on array-backed tables via the
    :class:`ArrayNeighborTable` interface.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = EdgeStore()
        #: node id -> (table epoch, sorted take-over full_ids); valid for
        #: one topology version (the take-over map's own cache key)
        self._fid_cache: Dict[int, Tuple[int, List[int]]] = {}
        self._fid_cache_tv: int = -1
        #: rows aligned with the cached ``_sorted_node_ids()`` list; a
        #: node's row never changes while it lives, so the gather is valid
        #: for exactly as long as the order list object itself
        self._order_rows: Optional[np.ndarray] = None
        self._order_rows_for: Optional[List[int]] = None
        #: (struct_gen, order, pos, adv, avail, suspect_l, alive_l)
        self._prescan_cache: Optional[Tuple] = None
        self._streak: Optional[_Streak] = None
        #: per-slot freshness as each owner read it at its turn in the last
        #: settled round; None until the streak has had one
        self._streak_seen: Optional[np.ndarray] = None
        #: rounds whose exchange ran without the per-sender loop
        self.settled_rounds = 0
        #: ((topology version, struct_gen), total) of the last broken-link
        #: count — see :meth:`count_broken_links`
        self._broken_total: Optional[Tuple[Tuple[int, int], int]] = None

    # -- node lifecycle -------------------------------------------------------
    def _new_node(self, node_id: int) -> ProtocolNode:
        store = self.store
        row = store.alloc_row(node_id)
        table = ArrayNeighborTable(
            self.config.failure_timeout, store, node_id, row
        )
        store.tables_by_row[row] = table
        node = ProtocolNode(
            node_id, self.config.failure_timeout, self._gap_dirty_ids,
            table=table,
        )

        # resolve the array through the store on every call: alloc_row
        # reallocates own_version when the rows grow, and a closure holding
        # the old array would silently write to abandoned storage
        def sink(version: int, _store=store, _row=row) -> None:
            _store.own_version[_row] = version
            _store.struct_gen += 1
            _store.mut_rows.add(_row)
            table._merge_view = None  # it reads the owner at one version

        node._version_sink = sink
        return node

    def _drop_node(self, node_id: int) -> None:
        store = self.store
        table = self.nodes[node_id].table
        table.release()
        row = store.row_of.pop(node_id)
        store.alive[row] = False
        store.struct_gen += 1
        store.tables_by_row[row] = None
        super()._drop_node(node_id)

    def fail(self, node_id: int, now: float) -> None:
        super().fail(node_id, now)
        store = self.store
        store.alive[store.row_of[node_id]] = False
        store.struct_gen += 1

    # -- the exchange kernel --------------------------------------------------
    def _exchange_heartbeats(self, now: float) -> None:
        if not self.net.is_identity:
            # per-delivery channel verdicts (loss draws, partition/flap
            # checks, latency): the inherited object path runs exactly on
            # array-backed tables, so both engines share one RNG stream
            self._end_streak()  # the channel changed under a streak
            return super()._exchange_heartbeats(now)
        store = self.store
        vanilla = self.config.scheme is HeartbeatScheme.VANILLA
        takeovers = {} if vanilla else self._takeover_targets_map()
        tv = self.overlay.topology_version
        if self._fid_cache_tv != tv:
            self._fid_cache.clear()
            self._fid_cache_tv = tv
        fid_cache = self._fid_cache
        order = self._sorted_node_ids()
        streak = self._streak
        if (
            streak is not None
            and streak.gen == store.struct_gen
            and streak.order is order
            and streak.topology_version == tv
        ):
            self._settled_exchange(now, streak)
            return
        # not kept bound through the loop below: the snapshots it holds
        # would outlive their replacements, all garbage-collector work
        del streak
        self._end_streak()
        # the masks are pure functions of the store's structural state
        # and the sender order, so a settled CAN (no joins, versions,
        # suspects, or slot churn since last round) reuses last round's
        # prescan wholesale — only freshness moved, and freshness is
        # not a mask input
        cache = self._prescan_cache
        if (
            cache is not None
            and cache[0] == store.struct_gen
            and cache[1] is order
        ):
            _, _, pos, adv, avail, suspect_l, alive_l = cache
        else:
            n = store.n_slots
            nrows = store.n_rows
            pos = np.full(nrows, _POS_MAX, dtype=np.int64)
            if self._order_rows_for is not order:
                row_of = store.row_of
                self._order_rows = np.fromiter(
                    (row_of[nid] for nid in order),
                    dtype=np.int64,
                    count=len(order),
                )
                self._order_rows_for = order
            pos[self._order_rows] = np.arange(len(order), dtype=np.int64)
            active = store.active[:n]
            owner = store.owner_row[:n]
            subj = store.subj_row[:n]
            rev = store.rev[:n]
            edge_ver = store.edge_version[:n]
            alive = store.alive[:nrows]
            own_ver = store.own_version[:nrows]
            subj_ok = subj >= 0
            subj_idx = np.where(subj_ok, subj, 0)
            live_edge = active & alive[owner] & subj_ok & alive[subj_idx]
            # X: sender-side slots whose reverse belief is missing or
            # version-stale — exactly the deliveries that can mutate the
            # receiver's table.  Their senders run the full object path.
            rev_idx = np.where(rev >= 0, rev, 0)
            x_mask = live_edge & (
                (rev < 0) | (edge_ver[rev_idx] < own_ver[owner])
            )
            suspect = np.zeros(nrows, dtype=bool)
            if x_mask.any():
                suspect[owner[x_mask]] = True
            # every other delivery is a pure freshness advance: mutual,
            # version-current edges between live endpoints whose
            # subject's sends need no structural handling
            adv = (
                live_edge
                & (rev >= 0)
                & ~suspect[subj_idx]
                & (edge_ver == own_ver[subj_idx])
            )
            avail = np.full(store.eh.shape[0], _POS_MAX, dtype=np.int64)
            avail[:n] = np.where(adv, pos[subj_idx], _POS_MAX)
            # plain lists: the senders loop reads these once per sender,
            # where a numpy scalar index costs several times a list one
            suspect_l = suspect.tolist()
            alive_l = alive.tolist()
            self._prescan_cache = (
                store.struct_gen, order, pos, adv, avail,
                suspect_l, alive_l,
            )
        store.begin_exchange(now, adv, pos, avail)
        deliverable: Dict[int, Optional[ProtocolNode]] = {}
        miss = _MISS
        full_count = full_bytes = comp_count = comp_bytes = 0
        gen = store.struct_gen
        #: clean senders' deferred stored-table writes, should this round
        #: begin a streak; None once any delivery needed real handling
        streak_senders: Optional[list] = []
        nodes = self.nodes
        mut_rows = store.mut_rows
        #: a clean sender's full-table deliveries that need a merge,
        #: and from which sender-table epoch on (-1: all of it)
        merge_at: List[ProtocolNode] = []
        merge_since: List[int] = []
        for i, node_id in enumerate(order):
            sender = nodes[node_id]
            table = sender.table
            row = table._row
            # the store's alive flags mirror overlay liveness for every
            # protocol member (the kernels above already rely on it)
            if not alive_l[row]:
                continue  # ghosts are silent
            if not table._records:
                continue
            store.cur_pos = i
            if suspect_l[row] or row in mut_rows:
                # pre-round exceptional edges, or mutated mid-round by
                # an earlier sender's merge: full object path
                self._exchange_one_sender(
                    sender, takeovers, vanilla, now, deliverable, None
                )
                streak_senders = None
                continue
            own = sender.own_record(self.overlay)
            # inlined _heartbeat_sizes memo hit (the overwhelming case)
            wc = sender._wire_cache
            if wc is not None and wc[0] == (table.epoch, own.zone_count):
                full_size, compact_size = wc[1], wc[2]
            else:
                full_size, compact_size = self._heartbeat_sizes(
                    sender, own
                )
            if vanilla:
                full_ids = table.sorted_ids()
                n_full = len(full_ids)
            elif takeovers.get(node_id):
                cached = fid_cache.get(node_id)
                if cached is not None and cached[0] == table.epoch:
                    full_ids = cached[1]
                else:
                    full_ids = sorted(
                        t
                        for t in takeovers[node_id]
                        if t in table._records
                    )
                    fid_cache[node_id] = (table.epoch, full_ids)
                n_full = len(full_ids)
            else:
                full_ids = ()
                n_full = 0
            n_comp = len(table._records) - n_full
            full_count += n_full
            full_bytes += full_size * n_full
            comp_count += n_comp
            comp_bytes += compact_size * n_comp
            # a clean sender's targets all hold its record at the
            # current version (anything else is an X edge), so direct
            # freshness is covered by the bulk advance; only the
            # full-table merges remain.  The dominant case — the target
            # already processed this exact table state — is inlined:
            # nothing can change mid-loop (merges only mutate the
            # receiver, and run when the loop is over), so one snapshot
            # serves every target.
            snap = None
            epoch = table.epoch
            for target_id in full_ids:
                receiver = deliverable.get(target_id, miss)
                if receiver is miss:
                    receiver = self._deliverable(target_id)
                    deliverable[target_id] = receiver
                if receiver is None:
                    streak_senders = None
                    continue
                if snap is None:
                    snap = table.snapshot()
                receiver.stored_tables[node_id] = snap
                key = (
                    epoch, receiver.own_version, receiver.table.removals_epoch
                )
                last = receiver.processed_epoch.get(node_id)
                if last == key:
                    continue
                # the rest of _deliver_full_table, inlined with it
                if last is None:
                    self._stored_in.setdefault(node_id, set()).add(target_id)
                receiver.processed_epoch[node_id] = key
                merge_at.append(receiver)
                delta = last is not None and last[1:] == key[1:]
                merge_since.append(last[0] if delta else -1)
            if merge_at:
                self._merge_live(sender, snap, merge_at, merge_since, now)
                merge_at.clear()
                merge_since.clear()
                streak_senders = None
            if snap is not None and streak_senders is not None:
                # four fields flat, not a tuple a sender: an allocation
                # a sender a round is what sets off the cyclic collector
                add = streak_senders.append
                add(node_id)
                add(full_ids)
                add(snap)
                add(table._slots_vec)
        if streak_senders is not None:
            n = store.n_slots
            self._streak = _Streak(
                gen, order, tv,
                (full_bytes, full_count, comp_bytes, comp_count),
                avail[:n] < pos[store.owner_row[:n]],
                streak_senders,
            )
        self.stats.record_bulk(
            MessageType.HEARTBEAT_FULL, full_bytes, full_count
        )
        self.stats.record_bulk(MessageType.HEARTBEAT, comp_bytes, comp_count)
        store.end_exchange()

    # -- the merge kernel -----------------------------------------------------
    def _merge_live(
        self,
        sender: ProtocolNode,
        snap: TableSnapshot,
        receivers: List[ProtocolNode],
        sinces: List[int],
        now: float,
    ) -> None:
        """The inherited per-record merge, decided for a whole turn at once.

        A receiver that only lacks what the sender's table changed since an
        epoch visits those few records as the loop would.  The others — all
        of the table each — are one matrix, a cell per (receiver, record),
        and per cell the loop does one of three things, of which two are
        data-parallel.  *Believed at this version or a newer one*: a
        freshness max, one masked store into ``eh``.  *Unknown, and memoised
        as non-abutting at the receiver's current* ``own_version``: nothing.
        Whatever is left — a newer version, an unknown record never tested
        against these zones — goes to :meth:`_receive_record` cell by cell,
        receivers in delivery order and records in snapshot order, which is
        the only place a table, an epoch or a memo can change.
        """
        if (
            # one row does not pay for setting the matrix up (compact and
            # adaptive senders, which have a take-over target or two)
            sinces.count(-1) < 2
            # a subject without a row cannot be found through the scratch
            or self.store.rowless
        ):
            return super()._merge_live(sender, snap, receivers, sinces, now)
        srow, schanged, sver, smemo, sheard = sender.table.merge_source(snap)
        recs = list(snap.records.values())
        heard_at = sheard.tolist()
        #: (receiver, record) positions left to the per-record path
        rest: List[Tuple[int, int]] = []
        full: List[int] = []
        changed: Dict[int, List[int]] = {}
        for j, since in enumerate(sinces):
            if since < 0:
                full.append(j)
                continue
            cols = changed.get(since)
            if cols is None:
                cols = changed[since] = np.flatnonzero(schanged > since).tolist()
            receiver = receivers[j]
            table = receiver.table
            believed_get = table._records.get
            for i in cols:
                rec = recs[i]
                existing = believed_get(rec.node_id)
                if existing is None or rec.version > existing.version:
                    rest.append((j, i))
                else:
                    table.advance_freshness(rec.node_id, heard_at[i])
        #: the matrix's share of them: unknown or outdated at its receiver
        undecided: List[Tuple[int, int]] = []
        if full:
            undecided = [
                (full[j], i)
                for j, i in self._merge_matrix(
                    [receivers[j] for j in full], srow, sver, smemo, sheard
                )
            ]
            if undecided:
                rest = sorted(rest + undecided) if rest else undecided
        receive = self._receive_record
        for j, i in rest:
            receive(receivers[j], recs[i], now, heard_at=heard_at[i])
        # what the loop just tested and memoised joins the memo arrays
        new: Dict[int, List[int]] = {}
        for j, i in undecided:
            receiver, rec = receivers[j], recs[i]
            if (
                receiver._non_abutting.get((rec.node_id, rec.version))
                == receiver.own_version
            ):
                new.setdefault(j, []).append(i)
        for j, at in new.items():
            receivers[j].table.memoise(srow[at], smemo[at])

    def _merge_matrix(
        self,
        receivers: List[ProtocolNode],
        srow: np.ndarray,
        sver: np.ndarray,
        smemo: np.ndarray,
        sheard: np.ndarray,
    ) -> List[Tuple[int, int]]:
        """Merge a whole table (``merge_source``'s arrays) at each receiver;
        return the cells the arrays cannot decide, in row-major order."""
        store = self.store
        views = [
            receiver.table._merge_view
            or receiver.table.merge_view(receiver.own_version)
            for receiver in receivers
        ]
        k, m = len(receivers), len(srow)
        # what receiver j knows of sender record i.  A subject that is not in
        # the sender's table reads -1 in the scratch, which lands it in the
        # spare last column of the row before.
        width = m + 1
        col = store.col_of_row
        col[srow] = np.arange(m)
        at = col[np.concatenate([view[0] for view in views])]
        col[srow] = -1
        at += np.repeat(
            np.arange(0, k * width, width), [view[2] for view in views]
        )
        known = np.empty(k * width, dtype=np.int64)
        known.fill(_UNKNOWN)
        known[at] = np.concatenate([view[1] for view in views])
        slot = np.maximum(known, 0)  # where a slot is known; anything elsewhere
        known = known.reshape(k, width)
        believed = (known >= 0) & (sver <= store.edge_version[slot].reshape(k, width))
        eh = store.eh
        fresher = np.flatnonzero(believed & (sheard > eh[slot].reshape(k, width)))
        if len(fresher):
            eh[slot[fresher]] = sheard[fresher % width]
            for j, n in enumerate(np.bincount(fresher // width).tolist()):
                receivers[j].table._heard_gen += n
        rest = ~believed & (known != smemo)
        rest[:, m] = False
        rest = np.flatnonzero(rest)
        if not len(rest):
            return []
        rest_j, rest_i = np.divmod(rest, width)
        return list(zip(rest_j.tolist(), rest_i.tolist()))

    # -- the settled streak ---------------------------------------------------
    def _settled_exchange(self, now: float, streak: _Streak) -> None:
        """The exchange of a round the streak's first round already decided."""
        store = self.store
        _, _, pos, adv, avail, _, _ = self._prescan_cache
        full_bytes, full_count, comp_bytes, comp_count = streak.totals
        self.stats.record_bulk(MessageType.HEARTBEAT_FULL, full_bytes, full_count)
        self.stats.record_bulk(MessageType.HEARTBEAT, comp_bytes, comp_count)
        turn = streak.turn
        # what _LazyHeard would have frozen per sender, for all of them
        self._streak_seen = np.where(turn, now, store.eh[: turn.shape[0]])
        store.begin_exchange(now, adv, pos, avail)
        store.end_exchange()
        self.settled_rounds += 1

    def _end_streak(self) -> None:
        """Write the stored tables the settled rounds deferred; forget the streak.

        A holder that departed, or whose copy of the sender was purged in
        between (the sender left), gets nothing: a purged copy stays purged.
        """
        streak, seen = self._streak, self._streak_seen
        self._streak = self._streak_seen = None
        if seen is None:
            return
        nodes = self.nodes
        fields = iter(streak.senders)
        for node_id, full_ids, snap, vec in zip(fields, fields, fields, fields):
            records = snap.records
            frozen = TableSnapshot(
                records,
                _LazyHeard(records, seen[vec], None, -1, 0.0),
                snap.total_zones,
            )
            for holder_id in full_ids:
                holder = nodes.get(holder_id)
                if holder is not None and node_id in holder.processed_epoch:
                    holder.stored_tables[node_id] = frozen

    def _stored_copy(
        self, holder: ProtocolNode, subject_id: int
    ) -> Optional[TableSnapshot]:
        self._end_streak()
        return super()._stored_copy(holder, subject_id)

    # -- the detection kernel -------------------------------------------------
    def _detect_failures(self, now: float) -> None:
        store = self.store
        timeout = self.config.failure_timeout
        n = store.n_slots
        if not n:
            return
        stale = store.active[:n] & ((now - store.eh[:n]) > timeout)
        if not stale.any():
            return
        # not np.unique: its first call in a process imports numpy.ma,
        # milliseconds inside the first round that detects a failure
        node_of_row = store.node_of_row
        flagged = sorted(
            {node_of_row[r] for r in store.owner_row[:n][stale].tolist()}
        )
        overlay_alive = self.overlay.is_alive
        for node_id in flagged:
            if not overlay_alive(node_id):
                continue
            pnode = self.nodes.get(node_id)
            if pnode is not None:
                self._detect_failures_at(pnode, now, timeout)

    # -- metrics --------------------------------------------------------------
    def count_broken_links(self) -> int:
        """The inherited count, skipped while nothing it reads can have moved.

        It reads who is a member and who is alive, the ground-truth
        neighborhoods, and which ids each table believes.  The overlay bumps
        ``topology_version`` on every join, crash and transfer; the store
        bumps ``struct_gen`` on every row or slot allocated or freed.
        """
        key = (self.overlay.topology_version, self.store.struct_gen)
        cached = self._broken_total
        if cached is None or cached[0] != key:
            cached = self._broken_total = (key, super().count_broken_links())
        return cached[1]


def protocol_class(network: Optional[NetworkModel]) -> type:
    """Which heartbeat implementation a run gets: the measured crossover.

    The array class iff the channel is the identity: its round is a few
    kernels, a settled one has no loop over senders at all, and a turn's
    full-table merges are one matrix, whatever the scheme.  Any loss,
    latency, partition or flap needs a verdict per delivery, which the
    inherited per-sender loop gives faster on dict-backed tables.  Numbers,
    and why no population threshold: DESIGN.md, "Object or array: the
    crossover".
    """
    if network is None or network.is_identity:
        return ArrayHeartbeatProtocol
    return HeartbeatProtocol


def build_protocol(
    overlay: CanOverlay,
    config: ProtocolConfig,
    network: Optional[NetworkModel] = None,
    **kwargs,
) -> HeartbeatProtocol:
    """Construct CAN's heartbeat protocol on ``network`` (None = ideal)."""
    return protocol_class(network).build(overlay, config, network, **kwargs)
