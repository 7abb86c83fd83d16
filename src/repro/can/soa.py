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
  engine's code paths (joins, claims, gap repair) run unchanged — and
  byte-identically — on array-backed state.

* :class:`ArrayHeartbeatProtocol` is the class CAN's substrate builds on
  every channel.  On any channel but the ideal one it never leaves plain
  :class:`~repro.can.neighbor.NeighborTable` state: loss, latency and
  flaps need a verdict per delivery, which the inherited per-sender
  exchange gives, and the class runs that exchange unchanged.

* On the ideal channel the tables move into the store once, at the first
  exchange.  Before it no kernel reads a slot, so the class holds plain
  tables and runs the object engine's own joins, leaves, crashes and
  ``adopt_overlay``: a bootstrap pays no slot upkeep per believed entry.
  The move (:meth:`ArrayHeartbeatProtocol._move_to_arrays`) is one pass:
  rows in ``nodes`` order, each table's slots in record order, one array
  assignment per column, reverse slots matched by sorting the edges on
  their unordered (owner, subject) pair, and every node's table swapped
  for an :class:`ArrayNeighborTable` that takes the plain one over.
  Joins after it allocate their slots one at a time
  (:meth:`EdgeStore.alloc_slot`).

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

* A *worklist* limits the per-sender loop to the senders whose inputs
  moved.  A turn reads the sender's table epoch, zones and take-over set,
  and per full target that target's version, removals and liveness; every
  write to one of them puts its row in ``EdgeStore.mut_rows`` (and in
  ``rekeyed`` for the last three).  A sender whose last clean turn left a
  memo and whose inputs stand still is *quiet*: the loop never visits it,
  its byte totals stay in a running sum, and its stored copies are written
  later (:meth:`_flush`) from freshness frozen as of its own turn.  No turn
  between two turns that write freshness writes any, so one gather per
  writing turn freezes every quiet sender before it.  A round whose
  worklist is empty (a *settled* round) is a bulk total, one frozen array
  and the bulk advance.

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
hypothesis property test driving random churn through both engines, by
``tests/can/test_merge_kernel.py``, which runs the batched merge against
the loop it replaces on identical array-backed state, and by
``tests/can/test_store_move.py``, which holds the one-pass move against
the slot-by-slot path.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from itertools import chain, count, repeat
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .heartbeat import HeartbeatProtocol, HeartbeatScheme, ProtocolNode
from .messages import MessageType
from .neighbor import _NEG_INF, BeliefRecord, NeighborTable, TableSnapshot

__all__ = [
    "EdgeStore",
    "ArrayNeighborTable",
    "ArrayHeartbeatProtocol",
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


#: an empty store's slot and row capacities; each doubles when full
SLOT_CAPACITY = 1024
ROW_CAPACITY = 256


class EdgeStore:
    """Shared slot arrays for every believed-table entry of one protocol."""

    def __init__(self):
        # -- per-edge slots (owner believes subject) -------------------------
        self.n_slots = 0  # high-water mark; freed slots are recycled
        self._slot_cap = SLOT_CAPACITY
        self.eh = np.full(SLOT_CAPACITY, _NEG_INF, dtype=np.float64)
        # as wide as an index: the prescan gathers through all three, and
        # numpy gathers through an int32 index several times slower
        self.owner_row = np.zeros(SLOT_CAPACITY, dtype=np.int64)
        self.subj_row = np.full(SLOT_CAPACITY, -1, dtype=np.int64)
        self.rev = np.full(SLOT_CAPACITY, -1, dtype=np.int64)
        self.edge_version = np.zeros(SLOT_CAPACITY, dtype=np.int64)
        self.active = np.zeros(SLOT_CAPACITY, dtype=bool)
        self.free_slots: List[int] = []
        #: live slots whose subject has no row (a record gossiped about a
        #: node that already left); the merge kernel steps aside for them
        self.rowless = 0
        # -- per-node rows (allocated monotonically, never reused) -----------
        self.n_rows = 0
        self._row_cap = ROW_CAPACITY
        self.alive = np.zeros(ROW_CAPACITY, dtype=bool)
        self.own_version = np.zeros(ROW_CAPACITY, dtype=np.int64)
        #: row -> position in the table being merged, -1 elsewhere: a merge
        #: scatters the sender's record positions in, gathers at each
        #: receiver's subject rows, and wipes it again
        self.col_of_row = np.full(ROW_CAPACITY, -1, dtype=np.int64)
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
        #: rows whose table, version or liveness changed since the current
        #: exchange began — senders re-check this instead of rescanning
        #: epoch arrays, and the next exchange's worklist starts from it —
        self.mut_rows: set = set()
        #: ... and of those, the rows whose version, removals or liveness
        #: changed: what a full-table delivery *to* them is keyed on
        self.rekeyed: set = set()

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
        self.mut_rows.add(row)
        return row

    def load_slots(
        self,
        counts: List[int],
        subj_rows: np.ndarray,
        versions: np.ndarray,
        heard: np.ndarray,
    ) -> None:
        """Give row ``r`` of a store without slots ``counts[r]`` consecutive
        ones, rows in order, each written from the next entry of the three
        columns (subject row -1: a subject with no row).

        One array assignment per column, and the reverse slots matched by
        sorting the edges on their unordered (owner, subject) pair, so that
        an edge and its partner sort next to each other: what
        :meth:`alloc_slot` would leave for the same entries, less the slot
        numbering and the free list.  A subject that left before the load
        has no row, so its slots count in :attr:`rowless`; slots allocated
        before it left keep pointing at its dead row instead.
        """
        assert not self.n_slots, "slots are loaded into an empty store"
        m, n = len(subj_rows), self.n_rows
        self._reserve_slots(m)
        self.n_slots = m
        owner = self.owner_row[:m]
        owner[:] = np.repeat(np.arange(n, dtype=np.int64), counts)
        srow = self.subj_row[:m]
        srow[:] = subj_rows
        self.edge_version[:m] = versions
        self.eh[:m] = heard
        self.active[:m] = True
        linked = np.flatnonzero(srow >= 0)
        self.rowless = m - len(linked)
        o, r = owner[linked], srow[linked]
        # a table believes a subject once, so a pair is held at most twice
        pair = np.minimum(o, r) * n + np.maximum(o, r)
        by_pair = np.argsort(pair)
        pair = pair[by_pair]
        first = np.flatnonzero(pair[1:] == pair[:-1])
        a, b = linked[by_pair[first]], linked[by_pair[first + 1]]
        self.rev[a] = b
        self.rev[b] = a
        self.struct_gen += 1

    # -- slots ----------------------------------------------------------------
    def alloc_slot(
        self,
        owner_row: int,
        srow: int,
        partner: int,
        version: int,
        heard: float,
    ) -> int:
        """A slot for ``owner_row`` believing the subject at row ``srow``
        (-1: a subject with no row), fully written.

        ``partner`` is the reverse edge's slot (-1: the belief is not
        mutual); both ends get linked.
        """
        free = self.free_slots
        if free:
            s = free.pop()
        else:
            s = self.n_slots
            if s >= self._slot_cap:
                self._reserve_slots(s + 1)
            self.n_slots = s + 1
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

    def _reserve_slots(self, need: int) -> None:
        """Double the slot arrays until ``need`` slots fit."""
        new_cap = self._slot_cap
        while new_cap < need:
            new_cap *= 2
        if new_cap == self._slot_cap:
            return
        self.eh = _grown(self.eh, new_cap, _NEG_INF)
        self.owner_row = _grown(self.owner_row, new_cap, 0)
        self.subj_row = _grown(self.subj_row, new_cap, -1)
        self.rev = _grown(self.rev, new_cap, -1)
        self.edge_version = _grown(self.edge_version, new_cap, 0)
        self.active = _grown(self.active, new_cap, False)
        if self.avail_pos is not None:
            self.avail_pos = _grown(self.avail_pos, new_cap, _POS_MAX)
        self._slot_cap = new_cap

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
        row = int(self.owner_row[s])
        self.mut_rows.add(row)
        self.rekeyed.add(row)

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
        self.rekeyed.clear()

    def end_exchange(self) -> None:
        mask = self.adv_mask
        if mask is not None:
            # all evidence is <= sim time, so a plain assign is the max
            np.copyto(self.eh[: mask.shape[0]], self.round_now, where=mask)
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

    @property
    def get(self):
        """The materialised dict's own ``get``: a merge binds it once and
        reads every record through it."""
        return self._dict().get

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

    def take_over(self, plain: NeighborTable, first_slot: int) -> None:
        """Become ``plain``, whose freshness the store now holds, record
        ``i`` in slot ``first_slot + i`` (:meth:`EdgeStore.load_slots`).

        The record dict is taken over copy-on-write, as it stands: still
        shared where a snapshot of ``plain`` holds it.  The change sequence,
        epochs, grace zones, zone total and sorted ids carry over.
        """
        records = self._records = plain._records
        self._records_shared = plain._records_shared
        self._record_seq = plain._record_seq
        self.epoch = plain.epoch
        self.removals_epoch = plain.removals_epoch
        self._recent_removals = plain._recent_removals
        self._total_zones = plain._total_zones
        self._sorted_ids = plain._sorted_ids
        self._sorted_epoch = plain._sorted_epoch
        self._slots = dict(zip(records, count(first_slot)))

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
            row = store.row_of.get(nid, -1)
            partner = None if row < 0 else store.tables_by_row[row]
            self._slots[nid] = store.alloc_slot(
                self._row,
                row,
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
        if current.version > record.version or (
            current.version == record.version and current == record
        ):
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
            cached = self._rows_vec = (vec, self._store.subj_row[vec])
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


class _Memo(NamedTuple):
    """What a sender's last loud clean turn decided for its quiet ones."""

    node_id: int
    #: the rows of the full targets that were deliverable: the stored
    #: copies a quiet turn re-writes
    holder_rows: List[int]
    #: the table the copies hold (None without holders) and its slots
    records: Optional[Dict[int, BeliefRecord]]
    total_zones: int
    vec: Optional[np.ndarray]
    #: the turn's accounting: full bytes, full count, compact bytes, count
    totals: Tuple[int, int, int, int]


class ArrayHeartbeatProtocol(HeartbeatProtocol):
    """The heartbeat protocol with batched per-round kernels: CAN's one
    heartbeat class, on every channel.

    Behaviourally identical to :class:`HeartbeatProtocol` (the goldens pin
    byte-identical seeded accounting); only the round's hot phases and a
    turn's full-table merges run as array kernels.

    Lifecycle: until its first exchange on the ideal channel the protocol
    *is* the object class — plain tables, the inherited join, leave, crash,
    ``adopt_overlay``, exchange, merge and detection — and every override
    that touches the store defers to it while :attr:`_in_store` is False.
    On any other channel (fixed when the protocol is built) that is the
    whole run.  On the ideal channel the first exchange moves every table
    into :attr:`store` in one pass (:meth:`_move_to_arrays`); from then on a
    node's rows and slots are kept up one by one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = EdgeStore()
        #: False until the first exchange moves the plain tables into the
        #: store (:meth:`_move_to_arrays`)
        self._in_store = False
        #: rows aligned with the cached ``_sorted_node_ids()`` list; a
        #: node's row never changes while it lives, so the gather is valid
        #: for exactly as long as the order list object itself
        self._order_rows: Optional[np.ndarray] = None
        self._order_rows_for: Optional[List[int]] = None
        #: (struct_gen, order, pos, adv, avail, suspect_l, alive_l, turn,
        #: suspect rows, pos as a list, order rows as a list)
        self._prescan_cache: Optional[Tuple] = None
        #: per row: the last loud clean turn's :class:`_Memo`, None where a
        #: row has to take a loud turn before it can be quiet
        self._memo: List[Optional[_Memo]] = []
        self._has_memo = np.zeros(256, dtype=bool)
        #: the memos' accounting summed: what every quiet turn re-adds
        self._grand = [0, 0, 0, 0]
        #: holder row -> rows whose memo delivers a full table to it
        self._fed_by: Dict[int, set] = {}
        #: the take-over map the memos were decided against
        self._takeovers_seen: Dict[int, set] = {}
        #: per row: its holders' stored copies are the ones its last quiet
        #: turn deferred, which read :attr:`_seen` at its slots
        self._pending: Optional[np.ndarray] = None
        #: what every slot's owner read at its turn in the last round, as
        #: (``eh`` before the bulk advance, the turn mask, that round's now):
        #: a slot whose subject's turn came first read ``now``
        self._seen: Optional[Tuple[np.ndarray, np.ndarray, float]] = None
        #: rounds whose worklist was empty, and sender turns taken quietly
        self.settled_rounds = 0
        self.quiet_turns = 0
        #: ((topology version, struct_gen), total) of the last broken-link
        #: count — see :meth:`count_broken_links`
        self._broken_total: Optional[Tuple[Tuple[int, int], int]] = None

    # -- node lifecycle -------------------------------------------------------
    def _new_node(self, node_id: int) -> ProtocolNode:
        if not self._in_store:
            return super()._new_node(node_id)
        store = self.store
        row = store.alloc_row(node_id)
        self._memo.append(None)
        if row >= len(self._has_memo):
            self._has_memo = _grown(self._has_memo, 2 * len(self._has_memo), False)
        table = ArrayNeighborTable(
            self.config.failure_timeout, store, node_id, row
        )
        store.tables_by_row[row] = table
        node = ProtocolNode(
            node_id, self.config.failure_timeout, self._gap_dirty_ids,
            table=table,
        )
        node._version_sink = self._version_sink(table)
        return node

    def _version_sink(self, table: ArrayNeighborTable):
        """What the table's owner calls on every version bump: mirror the
        version into its row."""
        store, row = self.store, table._row

        # resolve the array through the store on every call: alloc_row
        # reallocates own_version when the rows grow, and a closure holding
        # the old array would silently write to abandoned storage
        def sink(version: int, _store=store, _row=row) -> None:
            _store.own_version[_row] = version
            _store.struct_gen += 1
            _store.mut_rows.add(_row)
            _store.rekeyed.add(_row)
            table._merge_view = None  # it reads the owner at one version

        return sink

    def _move_to_arrays(self) -> None:
        """Move every believed table into the store, in one pass.

        Until then the protocol holds the object class's plain tables and
        runs its code on them: joins, leaves, crashes, ``adopt_overlay``.
        No kernel reads a slot before the first exchange, which calls this,
        and a bootstrap's joins would otherwise pay slot upkeep per entry.
        Rows follow ``self.nodes`` and slots each table's record order
        (:meth:`EdgeStore.load_slots`); every :class:`ProtocolNode` keeps
        its identity and gets an :class:`ArrayNeighborTable` that takes its
        plain table over (:meth:`ArrayNeighborTable.take_over`).
        """
        if self._in_store:
            return
        self._in_store = True
        nodes = self.nodes
        ids = list(nodes)
        n = len(ids)
        store = self.store
        for nid in ids:
            store.alloc_row(nid)
        store.own_version[:n] = [nodes[nid].own_version for nid in ids]
        store.alive[:n] = list(map(self.overlay.is_alive, ids))
        plain = [nodes[nid].table for nid in ids]
        records = [old._records for old in plain]
        counts = list(map(len, records))
        m = sum(counts)
        subjects = chain.from_iterable(records)
        versions = map(
            attrgetter("version"), chain.from_iterable(map(dict.values, records))
        )
        # a plain table's freshness dict holds its record dict's keys, in
        # the same order: the two gain and lose an entry together
        heard = chain.from_iterable(old._last_heard.values() for old in plain)
        store.load_slots(
            counts,
            np.fromiter(map(store.row_of.get, subjects, repeat(-1)), np.int64, m),
            np.fromiter(versions, np.int64, m),
            np.fromiter(heard, np.float64, m),
        )
        start = 0
        for row, (nid, old) in enumerate(zip(ids, plain)):
            table = ArrayNeighborTable(old.freshness_ttl, store, nid, row)
            table.take_over(old, start)
            start += len(old)
            store.tables_by_row[row] = table
            node = nodes[nid]
            node.table = table
            node._version_sink = self._version_sink(table)
        self._memo = [None] * n
        if n > len(self._has_memo):
            self._has_memo = np.zeros(2 * n, dtype=bool)

    def _drop_node(self, node_id: int) -> None:
        if not self._in_store:
            return super()._drop_node(node_id)
        store = self.store
        table = self.nodes[node_id].table
        table.release()
        row = store.row_of.pop(node_id)
        store.alive[row] = False
        store.struct_gen += 1
        store.mut_rows.add(row)
        store.rekeyed.add(row)
        store.tables_by_row[row] = None
        # its copies go with the departure (the base purges them)
        self._forget(row)
        super()._drop_node(node_id)

    def fail(self, node_id: int, now: float) -> None:
        super().fail(node_id, now)
        if not self._in_store:
            return
        store = self.store
        row = store.row_of[node_id]
        store.alive[row] = False
        store.struct_gen += 1
        store.mut_rows.add(row)
        store.rekeyed.add(row)

    # -- the exchange kernel --------------------------------------------------
    def _exchange_heartbeats(self, now: float) -> None:
        if not self.net.is_identity:
            # per-delivery channel verdicts (loss draws, flap checks,
            # latency): the inherited exchange on the plain tables, which
            # never move (the channel is fixed when the protocol is built)
            assert not self._in_store, "the channel changed after the move"
            return super()._exchange_heartbeats(now)
        self._move_to_arrays()
        store = self.store
        vanilla = self.config.scheme is HeartbeatScheme.VANILLA
        takeovers = {} if vanilla else self._takeover_targets_map()
        if takeovers is not self._takeovers_seen:
            # a sender's full targets are its take-over set (a fresh map
            # per topology version): where that moved, so did its turn
            seen_map, row_of = self._takeovers_seen, store.row_of
            for node_id, targets in takeovers.items():
                if seen_map.get(node_id) != targets:
                    store.mut_rows.add(row_of[node_id])
            self._takeovers_seen = takeovers
        order = self._sorted_node_ids()
        (
            pos, adv, avail, suspect_l, alive_l, turn, suspects, pos_l, rows_l
        ) = self._prescan(order)
        # the worklist: every sender whose own inputs moved since its last
        # turn (or that took a loud turn without leaving a memo), whose
        # full-table holder's did, or that the prescan marks suspect
        loud = store.mut_rows.union(suspects)
        fed_by = self._fed_by
        for row in store.rekeyed:
            senders = fed_by.get(row)
            if senders:
                loud.update(senders)
        n_order = len(order)
        heap = [p for p in map(pos_l.__getitem__, loud) if p < n_order]
        heapq.heapify(heap)
        queued = {rows_l[p] for p in heap}
        store.begin_exchange(now, adv, pos, avail)
        deliverable: Dict[int, Optional[ProtocolNode]] = {}
        miss = _MISS
        nodes = self.nodes
        mut_rows = store.mut_rows
        rekeyed = store.rekeyed
        #: what of the two sets the worklist has seen
        seen_mut: set = set()
        seen_rekeyed: set = set()
        memos = self._memo
        grand = self._grand
        #: this round's loud rows, and the freshness every quiet sender
        #: read at its turn (None while no turn has written any)
        popped: List[int] = []
        frozen: Optional[np.ndarray] = None
        upto, n = 0, turn.shape[0]
        #: a clean sender's full-table deliveries that need a merge,
        #: and from which sender-table epoch on (-1: all of it)
        merge_at: List[ProtocolNode] = []
        merge_since: List[int] = []
        while heap:
            i = heapq.heappop(heap)
            node_id = order[i]
            sender = nodes[node_id]
            table = sender.table
            row = table._row
            popped.append(row)
            self._flush(row)
            self._forget(row)
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
                frozen = self._freeze_quiet(frozen, upto, i, rows_l, n)
                upto = i + 1
                self._exchange_one_sender(
                    sender, takeovers, vanilla, now, deliverable, None
                )
                mut_rows.add(row)  # no memo: loud again next round
            else:
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
                elif takeovers.get(node_id):
                    full_ids = sorted(
                        t for t in takeovers[node_id] if t in table._records
                    )
                else:
                    full_ids = ()
                n_full = len(full_ids)
                n_comp = len(table._records) - n_full
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
                holder_rows: List[int] = []
                for target_id in full_ids:
                    receiver = deliverable.get(target_id, miss)
                    if receiver is miss:
                        receiver = self._deliverable(target_id)
                        deliverable[target_id] = receiver
                    if receiver is None:
                        continue
                    if snap is None:
                        snap = table.snapshot()
                    receiver.stored_tables[node_id] = snap
                    holder_rows.append(receiver.table._row)
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
                    frozen = self._freeze_quiet(frozen, upto, i, rows_l, n)
                    upto = i + 1
                    self._merge_live(sender, snap, merge_at, merge_since, now)
                    merge_at.clear()
                    merge_since.clear()
                totals = (
                    full_size * n_full, n_full, compact_size * n_comp, n_comp
                )
                memos[row] = _Memo(
                    node_id, holder_rows,
                    None if snap is None else snap.records,
                    0 if snap is None else snap.total_zones,
                    None if snap is None else table.slot_vector(),
                    totals,
                )
                self._has_memo[row] = True
                for k in range(4):
                    grand[k] += totals[k]
                for holder_row in holder_rows:
                    fed_by.setdefault(holder_row, set()).add(row)
            # what this turn moved puts the later senders it feeds on the list
            if len(mut_rows) > len(seen_mut) or len(rekeyed) > len(seen_rekeyed):
                later = mut_rows - seen_mut
                seen_mut |= later
                for moved_row in rekeyed - seen_rekeyed:
                    later.update(fed_by.get(moved_row, ()))
                seen_rekeyed = set(rekeyed)
                for q in later:
                    p = pos_l[q]
                    if i < p < n_order and q not in queued:
                        queued.add(q)
                        heapq.heappush(heap, p)
        if not popped:
            self.settled_rounds += 1
        full_bytes, full_count, comp_bytes, comp_count = grand
        self.stats.record_bulk(
            MessageType.HEARTBEAT_FULL, full_bytes, full_count
        )
        self.stats.record_bulk(MessageType.HEARTBEAT, comp_bytes, comp_count)
        # every quiet turn's stored copies are deferred: what they would
        # have frozen, per slot, and which rows they belong to
        if frozen is None:
            frozen = store.eh[:n].copy()
        else:
            frozen = self._freeze_quiet(frozen, upto, n_order, rows_l, n)
        self._seen = (frozen, turn, now)
        pending = self._has_memo[: store.n_rows].copy()
        pending[popped] = False
        self._pending = pending
        self.quiet_turns += int(np.count_nonzero(pending))
        store.end_exchange()

    def _prescan(self, order: List[int]) -> Tuple:
        """The round's masks, a pure function of the store's structural
        state and the sender order: a settled CAN (no joins, versions,
        suspects, or slot churn since last round) reuses last round's
        wholesale — only freshness moved, and freshness is not an input."""
        store = self.store
        cache = self._prescan_cache
        if (
            cache is not None
            and cache[0] == store.struct_gen
            and cache[1] is order
        ):
            return cache[2:]
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
        self._prescan_cache = (
            store.struct_gen, order, pos, adv, avail,
            # plain lists: the senders loop reads these once per sender,
            # where a numpy scalar index costs several times a list one
            suspect.tolist(), alive.tolist(),
            # per slot: the subject's turn comes before the owner's
            avail[:n] < pos[owner],
            np.flatnonzero(suspect).tolist(),
            pos.tolist(),
            self._order_rows.tolist(),
        )
        return self._prescan_cache[2:]

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
            # plain tables (any channel but the ideal one) have no slots
            not self._in_store
            # one row does not pay for setting the matrix up (compact and
            # adaptive senders, which have a take-over target or two)
            or sinces.count(-1) < 2
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

    # -- quiet turns ----------------------------------------------------------
    def _freeze_quiet(
        self,
        frozen: Optional[np.ndarray],
        lo: int,
        hi: int,
        rows_l: List[int],
        n: int,
    ) -> np.ndarray:
        """Record, before a turn that writes freshness, what the quiet
        senders at positions ``lo`` to ``hi - 1`` read at their turns: no
        turn since the last such one wrote any, so that is ``eh`` now.  The
        first time in a round, that holds for every position before it."""
        eh = self.store.eh
        if frozen is None:
            return eh[:n].copy()
        memos = self._memo
        vecs = [
            memo.vec
            for memo in map(memos.__getitem__, rows_l[lo:hi])
            if memo is not None and memo.vec is not None
        ]
        if vecs:
            at = np.concatenate(vecs)
            frozen[at] = eh[at]
        return frozen

    def _flush(self, row: int) -> None:
        """Write the stored copies the row's last quiet turn deferred."""
        pending = self._pending
        if pending is None or row >= len(pending) or not pending[row]:
            return
        pending[row] = False
        memo = self._memo[row]
        records = memo.records
        if records is None:
            return
        frozen, turn, now = self._seen
        vec = memo.vec
        copy = TableSnapshot(
            records,
            _LazyHeard(
                records, np.where(turn[vec], now, frozen[vec]), None, -1, 0.0
            ),
            memo.total_zones,
        )
        nodes, node_of_row = self.nodes, self.store.node_of_row
        for holder_row in memo.holder_rows:
            holder = nodes.get(node_of_row[holder_row])
            if holder is not None:
                holder.stored_tables[memo.node_id] = copy

    def _forget(self, row: int) -> None:
        """Drop a row's memo (flush it first where its copies must land)."""
        memo = self._memo[row]
        if memo is None:
            return
        self._memo[row] = None
        self._has_memo[row] = False
        pending = self._pending
        if pending is not None and row < len(pending):
            pending[row] = False
        grand = self._grand
        for k, total in enumerate(memo.totals):
            grand[k] -= total
        fed_by = self._fed_by
        for holder_row in memo.holder_rows:
            fed_by[holder_row].discard(row)

    def _stored_copy(
        self, holder: ProtocolNode, subject_id: int
    ) -> Optional[TableSnapshot]:
        row = self.store.row_of.get(subject_id)
        if row is not None:
            self._flush(row)
        return super()._stored_copy(holder, subject_id)

    # -- the detection kernel -------------------------------------------------
    def _detect_failures(self, now: float) -> None:
        if not self._in_store:
            return super()._detect_failures(now)
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
        if not self._in_store:
            return super().count_broken_links()
        key = (self.overlay.topology_version, self.store.struct_gen)
        cached = self._broken_total
        if cached is None or cached[0] != key:
            cached = self._broken_total = (key, super().count_broken_links())
        return cached[1]
