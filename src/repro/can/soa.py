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

* The store is *loaded*, never edited slot by slot
  (:meth:`ArrayHeartbeatProtocol._move_to_arrays`, at the start of each
  exchange on the ideal channel).  A load lays every slot out anew, tables
  in sender order and entries in record order: the tables edited since the
  last load are written from their entries, the others copied as blocks.
  The store is always what one load of every table would leave.  On any
  other channel the tables stay plain for the whole run.

* :class:`ArrayNeighborTable` keeps an entry's freshness in its slot.
  Joins, leaves, crashes, claims and merges run the object engine's code:
  a newcomer holds a plain table until the next load, and the parent's
  ``upsert`` and ``remove`` call the ``_editing`` hook first, which moves
  the entry's freshness from its slot into the parent's dict.  An entry is
  only ever edited off the exchange's bulk advance (below), so the dict
  reads what the slot would have.

* :class:`ArrayHeartbeatProtocol` replaces the two per-round hot phases.
  The exchange phase computes, per round, the set of *exceptional* edges
  ``X`` (reverse belief missing or version-stale: exactly the deliveries
  that can mutate a receiver's table) and marks their senders suspect;
  every other alive sender's deliveries are pure freshness advances, which
  a single bulk kernel applies at the end of the exchange.  Reads during
  the exchange see position-filtered values (``now`` iff the subject
  already took its turn), so mid-round snapshots match the object engine
  exactly.  The detection phase becomes one vectorised timeout scan that
  falls back to the shared per-node path only for flagged owners and for
  tables with entries outside their slots.

* A *worklist* limits the per-sender loop to the senders whose inputs
  moved.  A turn reads the sender's table epoch, zones and take-over set,
  and per full target that target's version, removals and liveness; every
  write to one of them puts its row in ``EdgeStore.mut_rows`` (and in
  ``rekeyed`` for the last three).  A sender whose last clean turn left a
  memo and whose inputs stand still is *quiet*: the loop never visits it,
  its byte totals stay in a running sum, and its stored copies are written
  later (:meth:`_flush`) from freshness frozen as of its own turn.  No turn
  between two turns that write freshness writes any, and tables lie in
  sender order, so one slice copy per writing turn freezes every quiet
  sender before it.  A round whose
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
``tests/can/test_store_move.py``, which holds every load of a churn run
against one load of every table.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from itertools import chain, filterfalse, repeat
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


def _runs(pos: np.ndarray, linked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each run's first position and one past its last, where ``linked[i]``
    says position ``i + 1`` continues position ``i``'s run."""
    if not len(pos):
        return pos, pos
    breaks = np.flatnonzero(~linked)
    heads = pos[np.concatenate(([0], breaks + 1))]
    tails = pos[np.concatenate((breaks, [len(pos) - 1]))] + 1
    return heads, tails


#: an empty store's row capacity; it doubles when full
ROW_CAPACITY = 256

_EMPTY_I = np.zeros(0, dtype=np.int64)


class EdgeStore:
    """Shared slot arrays for every believed-table entry of one protocol."""

    def __init__(self):
        # -- per-edge slots (owner believes subject), packed -----------------
        self.n_slots = 0
        self.eh = np.zeros(0, dtype=np.float64)
        # as wide as an index: the prescan gathers through all three, and
        # numpy gathers through an int32 index several times slower
        self.owner_row = _EMPTY_I
        self.subj_row = _EMPTY_I
        self.rev = _EMPTY_I
        self.edge_version = _EMPTY_I
        #: slots whose subject has no row (a record gossiped about a node
        #: that left before it was ever loaded); the merge kernel steps
        #: aside for them
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
        #: node id -> row, departed nodes included (ids never recur)
        self.row_of: Dict[int, int] = {}
        self.node_of_row: List[int] = []
        #: rows whose table was edited since the last load: part of its
        #: freshness sits in its ``_last_heard`` until the next one
        self.edited: set = set()
        # -- round-local exchange state --------------------------------------
        #: slots whose freshness advances to ``round_now`` at exchange end
        self.adv_mask: Optional[np.ndarray] = None
        #: per-row position in this round's sender order
        self.pos_of_row: Optional[np.ndarray] = None
        #: per-slot sender position after which the slot reads as ``now``
        #: (``_POS_MAX`` for slots outside the bulk advance)
        self.avail_pos: Optional[np.ndarray] = None
        #: position of the sender currently being processed
        self.cur_pos: int = -1
        self.round_now: float = 0.0
        #: bumped whenever a bulk write lands (snapshot caches key off it)
        self.heard_gen: int = 0
        #: bumped on every write to a prescan-mask input (a load, an edited
        #: table, an own version); the exchange kernel reuses its whole
        #: prescan across rounds while this stands still
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
        self.struct_gen += 1
        self.mut_rows.add(row)
        return row

    def load_slots(
        self,
        rows: np.ndarray,
        old_starts: np.ndarray,
        counts: np.ndarray,
        subj_rows: np.ndarray,
        versions: np.ndarray,
        heard: np.ndarray,
    ) -> np.ndarray:
        """Lay every slot out anew: ``counts[k]`` consecutive ones for the
        table of row ``rows[k]``, tables in the order given; return where
        each table's slots start (and, last, the slot count).

        Where ``old_starts[k]`` is -1 the slots are written from the next
        entries of the three columns (subject row -1: no row); elsewhere
        they are copied from ``old_starts[k]`` on, a block per run.  Reverse
        slots carry over between copied slots; the open ones are matched by
        sorting on the unordered (owner, subject) pair, so an edge and its
        partner sort next to each other.
        """
        starts = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        m = int(starts[-1])
        eh = np.empty(m, dtype=np.float64)
        srow = np.empty(m, dtype=np.int64)
        ver = np.empty(m, dtype=np.int64)
        rev = np.full(m, -1, dtype=np.int64)
        kept = old_starts >= 0
        # copied tables, a block per run whose old slots are one run too
        pos = np.flatnonzero(kept)
        old = old_starts[pos]
        heads, tails = _runs(
            pos,
            (pos[1:] == pos[:-1] + 1) & (old[1:] == old[:-1] + counts[pos[:-1]]),
        )
        new_of_old = np.full(self.n_slots + 1, -1, dtype=np.int64)
        blocks = []
        for a, b, c in zip(
            starts[heads].tolist(), starts[tails].tolist(), old_starts[heads].tolist()
        ):
            d = c + b - a
            eh[a:b] = self.eh[c:d]
            srow[a:b] = self.subj_row[c:d]
            ver[a:b] = self.edge_version[c:d]
            new_of_old[c:d] = np.arange(a, b)
            blocks.append((a, b, c, d))
        # a copied slot keeps its partner if that was copied too (-1 reads
        # the spare entry)
        for a, b, c, d in blocks:
            rev[a:b] = new_of_old[self.rev[c:d]]
        # written tables, a block per run of them
        pos = np.flatnonzero(~kept)
        heads, tails = _runs(pos, pos[1:] == pos[:-1] + 1)
        at = 0
        for a, b in zip(starts[heads].tolist(), starts[tails].tolist()):
            end = at + b - a
            eh[a:b] = heard[at:end]
            srow[a:b] = subj_rows[at:end]
            ver[a:b] = versions[at:end]
            at = end
        owner = np.repeat(rows, counts)
        # every other belief is matched: both ends of a new link are unpaired
        # (a table believes a subject once, so a pair is held at most twice)
        open_ = np.flatnonzero((rev < 0) & (srow >= 0))
        o, r = owner[open_], srow[open_]
        n = self.n_rows
        pair = np.minimum(o, r) * n + np.maximum(o, r)
        by_pair = np.argsort(pair)
        pair = pair[by_pair]
        first = np.flatnonzero(pair[1:] == pair[:-1])
        a, b = open_[by_pair[first]], open_[by_pair[first + 1]]
        rev[a] = b
        rev[b] = a
        self.eh, self.subj_row, self.edge_version = eh, srow, ver
        self.owner_row, self.rev = owner, rev
        self.n_slots = m
        self.rowless = int(np.count_nonzero(srow < 0))
        self.struct_gen += 1
        return starts

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
    reuses the parent, and so do inserts, updates and removals: the parent
    calls :meth:`_editing` first, which moves the entry's freshness out of
    its slot into the parent's ``_last_heard`` dict.  So a table holds each
    entry's freshness in one of two places: the slot it was loaded into
    (``_at``), or ``_last_heard`` for an entry edited since.  The next load
    (:meth:`ArrayHeartbeatProtocol._move_to_arrays`) puts every entry back
    into a slot.
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
        #: the first of the table's slots, in record order as loaded
        self._base = 0
        #: subject id -> its slot's offset from ``_base``, for the entries
        #: not edited since the load (in record order)
        self._at: Dict[int, int] = {}
        #: bumped on any per-slot freshness write or slot change here
        self._heard_gen = 0
        self._snap_key: Optional[Tuple] = None
        #: cached slot vector; None after a load or an edit
        self._slots_vec: Optional[np.ndarray] = None
        #: what a batched merge reads of this table as a *sender*
        #: (``merge_source``), less the freshness: (epoch, ...)
        self._epoch_src: Optional[Tuple] = None
        #: and as a *receiver* (``merge_view``); None after a load, an edit,
        #: a memo or an own-version change
        self._merge_view: Optional[Tuple] = None
        #: the owner's ``_non_abutting`` memo as parallel arrays (subject row,
        #: ``_MEMO - version``), for the one ``own_version`` they were
        #: collected at; a subset of the dict's current entries, which is
        #: all a memo has to be
        self._memo_version = -1
        self._memo_rows = self._memo_vals = None

    def take_over(self, plain: NeighborTable) -> None:
        """Become ``plain``, whose entries a load has just put into slots
        (:meth:`loaded` follows).

        The record dict is taken over copy-on-write, as it stands: still
        shared where a snapshot of ``plain`` holds it.  The change sequence,
        epochs, grace zones, zone total and sorted ids carry over.
        """
        self._records = plain._records
        self._records_shared = plain._records_shared
        self._record_seq = plain._record_seq
        self.epoch = plain.epoch
        self.removals_epoch = plain.removals_epoch
        self._recent_removals = plain._recent_removals
        self._total_zones = plain._total_zones
        self._sorted_ids = plain._sorted_ids
        self._sorted_epoch = plain._sorted_epoch

    def loaded(self, base: int) -> None:
        """Every entry now sits in slot ``base + i``, record ``i`` of the
        table's record order."""
        self._base = base
        self._at = dict(zip(self._records, range(len(self._records))))
        self._last_heard = {}
        self._heard_shared = False
        self._heard_gen += 1
        self._slots_vec = self._merge_view = None

    def moved(self, base: int) -> None:
        """The load left the table as it was, from slot ``base`` on."""
        self._base = base
        self._slots_vec = self._merge_view = None

    def _editing(self, node_id: int, removal: bool) -> None:
        i = self._at.pop(node_id, None)
        store = self._store
        if i is not None:
            # an entry is edited only off the bulk advance: an update
            # replaces a version older than its subject's, which the advance
            # skips, and a removal drops the entry
            self._last_heard[node_id] = float(store.eh[self._base + i])
        row = self._row
        store.edited.add(row)
        store.mut_rows.add(row)
        if removal:
            store.rekeyed.add(row)
        store.struct_gen += 1
        self._heard_gen += 1
        self._slots_vec = self._merge_view = None

    # -- freshness ------------------------------------------------------------
    def advance_freshness(self, node_id: int, evidence: Optional[float]) -> None:
        i = self._at.get(node_id)
        if i is None:
            return super().advance_freshness(node_id, evidence)
        if evidence is None:
            return
        s = self._base + i
        store = self._store
        if evidence > store.eh[s]:
            store.eh[s] = evidence
            self._heard_gen += 1

    def heard_from(self, record: BeliefRecord, now: float) -> bool:
        i = self._at.get(record.node_id)
        if i is None:
            return super().heard_from(record, now)
        if record.version > self._records[record.node_id].version:
            return False
        s = self._base + i
        store = self._store
        if now > store.eh[s]:
            store.eh[s] = now
            self._heard_gen += 1
        return True

    # -- reads ----------------------------------------------------------------
    def records_since(self, epoch: int) -> List[Tuple[BeliefRecord, float]]:
        records = self._records
        last_heard = self.last_heard
        return [
            (records[nid], last_heard(nid))
            for nid, seq in self._record_seq.items()
            if seq > epoch
        ]

    def last_heard(self, node_id: int) -> float:
        i = self._at.get(node_id)
        if i is None:
            return self._last_heard.get(node_id, _NEG_INF)
        return float(self._store.heard_value(self._base + i))

    # -- array views for the batched merge --------------------------------------
    def slot_vector(self) -> np.ndarray:
        """Per entry, in record order: its slot, or -1 for one edited since
        the load."""
        vec = self._slots_vec
        if vec is None:
            at, n = self._at, len(self._records)
            if len(at) == n:  # every entry in its slot, in record order
                vec = self._base + np.fromiter(at.values(), np.int64, n)
            else:
                held = np.fromiter(map(at.get, self._records, repeat(-1)), np.int64, n)
                vec = np.where(held < 0, -1, held + self._base)
            self._slots_vec = vec
        return vec

    def heard_array(self) -> np.ndarray:
        """Every entry's raw freshness, in record order."""
        vec, eh = self.slot_vector(), self._store.eh
        if len(self._at) == len(vec):  # every entry in its slot
            return eh[vec]
        raw = np.fromiter(
            map(self._last_heard.get, self._records, repeat(0.0)),
            np.float64, len(vec),
        )
        held = vec >= 0
        raw[held] = eh[vec[held]]
        return raw

    def merge_source(self, snap: TableSnapshot) -> Optional[Tuple]:
        """The sender side of a batched merge of ``snap``, a snapshot just
        taken of this table, all in record order: (subject rows, the epoch
        each record last changed at, versions, what a memo of each version
        reads, frozen freshness).  The last three carry one spare entry —
        the merge matrix's spare column — newer than anything believed and
        never heard.  None where a subject has no row."""
        by_epoch = self._epoch_src
        if by_epoch is None or by_epoch[0] != self.epoch:
            records = self._records
            n = len(records)
            rows = np.fromiter(
                map(self._store.row_of.get, records, repeat(-1)), np.int64, n
            )
            versions = np.empty(n + 1, dtype=np.int64)
            versions[:n] = np.fromiter(
                map(attrgetter("version"), records.values()), np.int64, n
            )
            versions[n] = _POS_MAX
            by_epoch = self._epoch_src = (
                self.epoch,
                # a subject without a row cannot be found through the scratch
                None if (rows < 0).any() else rows,
                # ``_record_seq`` mirrors the record dict's insertion order
                np.fromiter(self._record_seq.values(), dtype=np.int64, count=n),
                versions,
                _MEMO - versions,
            )
        if by_epoch[1] is None:
            return None
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
        the believed entry — is the one that stays.  An entry edited since
        the load has no slot and reads as unknown (``_UNKNOWN``): the merge
        hands it to the per-record path, which finds it in the record dict.
        """
        if self._memo_version != own_version:
            # zones changed: every earlier verdict is about other zones
            self._memo_version = own_version
            self._memo_rows = np.array([self._row], dtype=np.int64)
            self._memo_vals = np.array([_MEMO - own_version], dtype=np.int64)
            self._merge_view = None
        view = self._merge_view
        if view is None:
            vec = self.slot_vector()
            rows, vals = [self._memo_rows], [self._memo_vals]
            lh = self._last_heard
            if lh:
                vec = vec[vec >= 0]
                # the entries edited since the load (a subject with no row
                # cannot be in a sender's table the merge reads)
                edited = np.fromiter(
                    map(self._store.row_of.get, lh, repeat(-1)), np.int64, len(lh)
                )
                edited = edited[edited >= 0]
                rows.append(edited)
                vals.append(np.full(len(edited), _UNKNOWN))
            rows.append(self._store.subj_row[vec])
            vals.append(vec)
            rows = np.concatenate(rows)
            view = self._merge_view = (rows, np.concatenate(vals), len(rows))
        return view

    def memoise(self, rows: np.ndarray, memo_values: np.ndarray) -> None:
        self._memo_rows = np.concatenate((self._memo_rows, rows))
        self._memo_vals = np.concatenate((self._memo_vals, memo_values))
        self._merge_view = None

    def stale_ids(self, now: float, timeout: float) -> List[int]:
        stale = now - self.heard_array() > timeout
        return [nid for nid, late in zip(self._records, stale.tolist()) if late]

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
        records = self._records
        if not records:
            heard = {}
        else:
            # freeze the two mutable inputs now (eh advances in later rounds)
            # and defer the heard_value filter + dict build to first read
            avail = store.avail_pos
            raw, held = self.heard_array(), None
            if avail is not None:
                vec = self.slot_vector()
                held = np.where(vec < 0, _POS_MAX, avail[vec])
            heard = _LazyHeard(records, raw, held, store.cur_pos, store.round_now)
        snap = TableSnapshot(records, heard, self._total_zones)
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
    #: the table the copies hold (None without holders)
    records: Optional[Dict[int, BeliefRecord]]
    total_zones: int
    #: the turn's accounting: full bytes, full count, compact bytes, count
    totals: Tuple[int, int, int, int]


class ArrayHeartbeatProtocol(HeartbeatProtocol):
    """The heartbeat protocol with batched per-round kernels: CAN's one
    heartbeat class, on every channel.

    Behaviourally identical to :class:`HeartbeatProtocol` (the goldens pin
    byte-identical seeded accounting); only the round's hot phases and a
    turn's full-table merges run as array kernels.

    Joins, leaves, crashes, ``adopt_overlay`` and every table edit run the
    object class's code: a newcomer gets a plain table, and an edit moves
    the entry's freshness out of its slot (:meth:`ArrayNeighborTable._editing`).
    On the ideal channel each exchange starts by loading what changed into
    :attr:`store` (:meth:`_move_to_arrays`); the first one loads every
    table.  On any other channel (fixed when the protocol is built) the
    tables stay plain for the whole run.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = EdgeStore()
        #: the sender order and topology version of the last load
        self._loaded_order: List[int] = []
        self._loaded_topology = -1
        #: per order position of the last load, where its table's slots
        #: start (one entry more: the slot count)
        self._starts = np.zeros(1, dtype=np.int64)
        #: the same per row (-1: no slots), a new array at every load
        self._bases = np.zeros(0, dtype=np.int64)
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
        #: (``eh`` before the bulk advance, the turn mask, that round's now,
        #: that round's :attr:`_bases`): a slot whose subject's turn came
        #: first read ``now``
        self._seen: Optional[Tuple[np.ndarray, np.ndarray, float, np.ndarray]] = None
        #: rounds whose worklist was empty, and sender turns taken quietly
        self.settled_rounds = 0
        self.quiet_turns = 0
        #: ((topology version, struct_gen), total) of the last broken-link
        #: count — see :meth:`count_broken_links`
        self._broken_total: Optional[Tuple[Tuple[int, int], int]] = None

    # -- the load -------------------------------------------------------------
    def _version_sink(self, row: int):
        """What a loaded node calls on every version bump: mirror the
        version into its row."""
        store = self.store

        # resolve the array through the store on every call: alloc_row
        # reallocates own_version when the rows grow, and a closure holding
        # the old array would silently write to abandoned storage
        def sink(version: int, _store=store, _row=row) -> None:
            _store.own_version[_row] = version
            _store.struct_gen += 1
            _store.mut_rows.add(_row)
            _store.rekeyed.add(_row)

        return sink

    def _newcomers(self) -> List[int]:
        """Members with no row yet: their tables are plain until the next
        load."""
        order = self._sorted_node_ids()
        if order is self._loaded_order:
            return []
        row_of = self.store.row_of
        return [nid for nid in order if nid not in row_of]

    def _move_to_arrays(self) -> None:
        """Load what changed since the last load into the store: a row per
        newcomer, every table's slots laid out anew (:meth:`_relay`) when a
        table was edited or the membership moved, every row's liveness when
        the topology moved, and the memos of the nodes that left.

        Each exchange calls this before its kernels read a slot; the first
        loads every table.  The reads in between (detection, claims, gap
        checks, the broken-link count) find an edited entry in its table's
        dict.
        """
        store = self.store
        order = self._sorted_node_ids()
        topology = self.overlay.topology_version
        joined = order is not self._loaded_order
        if not (joined or store.edited or topology != self._loaded_topology):
            return
        nodes, row_of = self.nodes, store.row_of
        mut_rows, rekeyed = store.mut_rows, store.rekeyed
        if joined:
            for nid in self._loaded_order:
                if nid not in nodes:
                    # its copies go with the departure (the base purges them)
                    row = row_of[nid]
                    self._forget(row)
                    store.alive[row] = False
                    mut_rows.add(row)
                    rekeyed.add(row)
            for nid in order:
                if nid not in row_of:
                    node = nodes[nid]
                    row = store.alloc_row(nid)
                    store.own_version[row] = node.own_version
                    node._version_sink = self._version_sink(row)
                    store.edited.add(row)
            n_rows = store.n_rows
            self._memo.extend([None] * (n_rows - len(self._memo)))
            if n_rows > len(self._has_memo):
                self._has_memo = _grown(self._has_memo, 2 * n_rows, False)
        if joined or store.edited:
            self._relay(order)
        store.edited.clear()
        if topology != self._loaded_topology:
            rows = np.fromiter(map(row_of.__getitem__, order), np.int64, len(order))
            alive = np.fromiter(
                map(self.overlay.is_alive, order), bool, len(order)
            )
            flipped = rows[store.alive[rows] != alive].tolist()
            store.alive[rows] = alive
            store.struct_gen += 1
            mut_rows.update(flipped)
            rekeyed.update(flipped)
        self._loaded_order = order
        self._loaded_topology = topology

    def _relay(self, order: List[int]) -> None:
        """Lay every table's slots out anew in ``order``: the tables edited
        since the last load (newcomers' included) from their entries, the
        others copied.  An edited table's entries still in their slots are
        gathered from the old columns; only the others are read one by one."""
        store, nodes = self.store, self.nodes
        n = len(order)
        row_of = store.row_of
        rows = np.fromiter(map(row_of.__getitem__, order), np.int64, n)
        tables = [nodes[nid].table for nid in order]
        counts = np.fromiter(map(len, tables), np.int64, n)
        old_starts = np.full(store.n_rows, -1, dtype=np.int64)
        old_starts[: len(self._bases)] = self._bases
        old_starts[list(store.edited)] = -1
        old_starts = old_starts[rows]
        # per written entry: the old slot it sits in, or -1 for one whose
        # columns are read from its table (a newcomer's, or one edited)
        rewrite = old_starts < 0
        written = [tables[k] for k in np.flatnonzero(rewrite).tolist()]
        local, offsets, ids, recs, heard = [], [], [], [], []
        for table in written:
            records = table._records
            if type(table) is NeighborTable:
                # a newcomer's plain table: its freshness dict holds its
                # record dict's keys, in the same order (the two gain and
                # lose an entry together)
                local.append(repeat(-1, len(records)))
                offsets.append(0)
                ids.append(records)
                recs.append(records.values())
                heard.append(table._last_heard.values())
                continue
            at = table._at
            local.append(map(at.get, records, repeat(-1)))
            offsets.append(table._base)
            loose = list(filterfalse(at.__contains__, records))
            ids.append(loose)
            recs.append(map(records.__getitem__, loose))
            heard.append(map(table._last_heard.__getitem__, loose))
        # per written entry: the old slot it sits in, or -1 for one read
        # from its table (a newcomer's, or one edited since the load)
        src = np.fromiter(chain.from_iterable(local), np.int64, int(counts[rewrite].sum()))
        held = src >= 0
        src[held] += np.repeat(np.array(offsets, dtype=np.int64), counts[rewrite])[held]
        k = len(src) - int(np.count_nonzero(held))
        fills = (
            np.fromiter(
                map(store.row_of.get, chain.from_iterable(ids), repeat(-1)),
                np.int64, k,
            ),
            np.fromiter(
                map(attrgetter("version"), chain.from_iterable(recs)), np.int64, k
            ),
            np.fromiter(chain.from_iterable(heard), np.float64, k),
        )
        columns = []
        for old, fill in zip((store.subj_row, store.edge_version, store.eh), fills):
            column = np.empty(len(src), dtype=old.dtype)
            column[held] = old[src[held]]
            column[~held] = fill
            columns.append(column)
        starts = store.load_slots(rows, old_starts, counts, *columns)
        bases = np.full(store.n_rows, -1, dtype=np.int64)
        bases[rows] = starts[:-1]
        self._bases = bases
        self._starts = starts
        moved = np.flatnonzero(starts[:-1] != old_starts).tolist()
        for k, start, old in zip(
            moved, starts[moved].tolist(), old_starts[moved].tolist()
        ):
            if old < 0:
                table = tables[k]
                if type(table) is NeighborTable:
                    node = nodes[order[k]]
                    node.table = ArrayNeighborTable(
                        table.freshness_ttl, store, node.node_id, int(rows[k])
                    )
                    node.table.take_over(table)
                    table = node.table
                table.loaded(start)
            else:
                tables[k].moved(start)

    # -- the exchange kernel --------------------------------------------------
    def _exchange_heartbeats(self, now: float) -> None:
        if not self.net.is_identity:
            # per-delivery channel verdicts (loss draws, flap checks,
            # latency): the inherited exchange on the plain tables, which
            # never load (the channel is fixed when the protocol is built)
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
        upto = 0
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
                frozen = self._freeze_quiet(frozen, upto, i)
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
                    frozen = self._freeze_quiet(frozen, upto, i)
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
        frozen = self._freeze_quiet(frozen, upto, n_order)
        self._seen = (frozen, turn, now, self._bases)
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
        owner = store.owner_row
        subj = store.subj_row
        rev = store.rev
        edge_ver = store.edge_version
        alive = store.alive[:nrows]
        own_ver = store.own_version[:nrows]
        subj_ok = subj >= 0
        subj_idx = np.where(subj_ok, subj, 0)
        live_edge = alive[owner] & subj_ok & alive[subj_idx]
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
        avail = np.where(adv, pos[subj_idx], _POS_MAX)
        self._prescan_cache = (
            store.struct_gen, order, pos, adv, avail,
            # plain lists: the senders loop reads these once per sender,
            # where a numpy scalar index costs several times a list one
            suspect.tolist(), alive.tolist(),
            # per slot: the subject's turn comes before the owner's
            avail < pos[owner],
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
            not self.net.is_identity
            # one row does not pay for setting the matrix up (compact and
            # adaptive senders, which have a take-over target or two)
            or sinces.count(-1) < 2
            # a subject without a row cannot be found through the scratch
            or self.store.rowless
            or (source := sender.table.merge_source(snap)) is None
        ):
            return super()._merge_live(sender, snap, receivers, sinces, now)
        srow, schanged, sver, smemo, sheard = source
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
        views = []
        for receiver in receivers:
            table, version = receiver.table, receiver.own_version
            view = table._merge_view
            if view is None or table._memo_version != version:
                view = table.merge_view(version)
            views.append(view)
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
        self, frozen: Optional[np.ndarray], lo: int, hi: int
    ) -> np.ndarray:
        """Record, before a turn that writes freshness, what the quiet
        senders at positions ``lo`` to ``hi - 1`` read at their turns: no
        turn since the last such one wrote any, so that is ``eh`` now.  The
        first time in a round, that holds for every position before it.
        Their slots are one run: tables lie in sender order."""
        eh = self.store.eh
        if frozen is None:
            return eh.copy()
        a, b = self._starts[lo], self._starts[hi]
        frozen[a:b] = eh[a:b]
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
        # the row's slots in the round that froze them held these records
        frozen, turn, now, bases = self._seen
        a = int(bases[row])
        b = a + len(records)
        copy = TableSnapshot(
            records,
            _LazyHeard(
                records, np.where(turn[a:b], now, frozen[a:b]), None, -1, 0.0
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
        """One vectorised timeout scan over the slots; the owners it flags,
        and those whose tables hold entries outside their slots (edited since
        the load, or plain), go to the shared per-node path."""
        store = self.store
        timeout = self.config.failure_timeout
        node_of_row = store.node_of_row
        flagged = set(self._newcomers())
        flagged.update(node_of_row[r] for r in store.edited)
        stale = (now - store.eh) > timeout
        if stale.any():
            # not np.unique: its first call in a process imports numpy.ma,
            # milliseconds inside the first round that detects a failure
            flagged.update(node_of_row[r] for r in store.owner_row[stale].tolist())
        overlay_alive = self.overlay.is_alive
        for node_id in sorted(flagged):
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
        bumps ``struct_gen`` on every load and every edit of a loaded table.
        A plain table's edits bump neither: while one is left, it recounts.
        """
        if self._newcomers():
            return super().count_broken_links()
        key = (self.overlay.topology_version, self.store.struct_gen)
        cached = self._broken_total
        if cached is None or cached[0] != key:
            cached = self._broken_total = (key, super().count_broken_links())
        return cached[1]
