"""Believed neighbor tables — each node's *local view* of the CAN.

Ground truth lives in :class:`repro.can.overlay.CanOverlay`; what a node
*believes* about its surroundings lives here and is updated exclusively by
protocol messages.  The divergence between the two is the failure-resilience
metric of the paper: a ground-truth neighbor absent from the believed table
is a **broken link**.

Every record carries *freshness*: when it travels in a full-table message it
is accompanied by the sender's ``last_heard`` timestamp for that node, and
the receiver adopts it (never moving its own estimate backwards).  This
keeps gossip honest about liveness: a dead node's records age uniformly
across all believers and expire everywhere within one failure timeout —
without it, two nodes can resurrect a dead entry in each other's tables
forever, inflating vanilla-CAN tables and masking failures.

Snapshots are copy-on-write: :meth:`NeighborTable.snapshot` hands out one
shared :class:`TableSnapshot` per unchanged table state, and the table
clones the underlying dict only when the *next* mutation arrives.  A full
heartbeat re-sent to many receivers therefore costs O(1) per receiver, and
a round that only advances freshness clones one dict instead of rebuilding
``(record, heard)`` tuples for every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .geometry import Zone

__all__ = ["BeliefRecord", "NeighborTable", "TableSnapshot"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class BeliefRecord:
    """Immutable snapshot of one node's advertised state.

    ``version`` increases whenever the node's zone set changes, so stale
    records lose against fresh ones during merges.
    """

    node_id: int
    version: int
    zones: Tuple[Zone, ...]
    coord: Tuple[float, ...]

    def abuts_any(self, zones: Iterable[Zone]) -> bool:
        return any(z.abuts(other) for other in zones for z in self.zones)

    @property
    def zone_count(self) -> int:
        return len(self.zones)


class TableSnapshot:
    """What travels in full-table messages: records + sender freshness.

    Immutable by contract: the owning :class:`NeighborTable` clones its
    live dicts before mutating them while a snapshot references them, so a
    handed-out snapshot keeps the table state at capture time.  ``records``
    maps node id to :class:`BeliefRecord`; ``heard`` maps node id to the
    sender's ``last_heard`` evidence; ``total_zones`` is the wire-size
    accounting total ``sum(max(record.zone_count, 1))`` over the records.
    """

    __slots__ = ("records", "heard", "total_zones")

    def __init__(
        self,
        records: Dict[int, BeliefRecord],
        heard: Dict[int, float],
        total_zones: int,
    ):
        self.records = records
        self.heard = heard
        self.total_zones = total_zones

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.records

    def __iter__(self) -> Iterator[int]:
        return iter(self.records)

    def __getitem__(self, node_id: int) -> Tuple[BeliefRecord, float]:
        return self.records[node_id], self.heard.get(node_id, _NEG_INF)

    def get(
        self, node_id: int, default=None
    ) -> Optional[Tuple[BeliefRecord, float]]:
        rec = self.records.get(node_id)
        if rec is None:
            return default
        return rec, self.heard.get(node_id, _NEG_INF)

    def pairs(self) -> Iterator[Tuple[BeliefRecord, float]]:
        """(record, last_heard) pairs — the full-table message payload."""
        heard_get = self.heard.get
        for nid, rec in self.records.items():
            yield rec, heard_get(nid, _NEG_INF)


#: shared empty payload for claims where no stored table was known
EMPTY_SNAPSHOT = TableSnapshot({}, {}, 0)


class NeighborTable:
    """A node's believed neighbor set with freshness bookkeeping.

    ``freshness_ttl`` is the failure timeout: gossiped records whose
    advertised last-heard time lies further in the past are ignored (their
    subject would be declared failed immediately anyway).
    """

    def __init__(self, freshness_ttl: float) -> None:
        self._records: Dict[int, BeliefRecord] = {}
        self._last_heard: Dict[int, float] = {}
        #: per-record change sequence (epoch at last insert/update), so
        #: receivers can merge only the delta since their last merge
        self._record_seq: Dict[int, int] = {}
        self.freshness_ttl = freshness_ttl
        #: bumped on any membership or record change — lets receivers skip
        #: re-merging a full table they have already processed
        self.epoch: int = 0
        #: bumped only on removals — the one local change that can make an
        #: *unchanged* remote table worth re-merging (it may re-add what we
        #: dropped); inserts and updates cannot, so they must not invalidate
        #: every neighbor's merge cache
        self.removals_epoch: int = 0
        #: zones of recently removed (suspected-failed) neighbors, kept for
        #: a grace period so the coverage detector does not panic about a
        #: vacated zone whose take-over is already in flight
        self._recent_removals: Dict[int, Tuple[Tuple[Zone, ...], float]] = {}
        #: wire-size accounting: sum(max(zone_count, 1)) over all records
        self._total_zones: int = 0
        self._snap_cache: Optional[TableSnapshot] = None
        #: live dicts currently referenced by a handed-out snapshot —
        #: cloned (copy-on-write) by the next mutation touching them
        self._records_shared: bool = False
        self._heard_shared: bool = False
        self._sorted_ids: List[int] = []
        self._sorted_epoch: int = -1

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._records

    def ids(self) -> Set[int]:
        return set(self._records)

    def ids_view(self):
        """Live key view of the believed ids (read-only, no copy)."""
        return self._records.keys()

    def sorted_ids(self) -> List[int]:
        """Believed ids in ascending order, cached per table epoch.

        Callers must treat the returned list as read-only; a table change
        produces a fresh list rather than mutating the old one.
        """
        if self._sorted_epoch != self.epoch:
            self._sorted_ids = sorted(self._records)
            self._sorted_epoch = self.epoch
        return self._sorted_ids

    def records(self) -> List[BeliefRecord]:
        return list(self._records.values())

    def get(self, node_id: int) -> Optional[BeliefRecord]:
        return self._records.get(node_id)

    def total_zones(self) -> int:
        """``sum(max(record.zone_count, 1))``, maintained incrementally."""
        return self._total_zones

    def snapshot(self) -> TableSnapshot:
        """The table with freshness, as shipped in full-table messages.

        O(1) while the table is unchanged: the same immutable snapshot is
        shared across every receiver of an unchanged re-send, and the next
        mutation clones only the dict it touches.  Callers must treat the
        snapshot as read-only.
        """
        snap = self._snap_cache
        if snap is None:
            snap = TableSnapshot(
                self._records, self._last_heard, self._total_zones
            )
            self._snap_cache = snap
            self._records_shared = True
            self._heard_shared = True
        return snap

    # -- copy-on-write plumbing ---------------------------------------------------
    def _own_records(self) -> None:
        """Detach live record dict from any handed-out snapshot."""
        if self._records_shared:
            self._records = dict(self._records)
            self._records_shared = False
        self._snap_cache = None

    def _own_heard(self) -> None:
        """Detach live freshness dict from any handed-out snapshot."""
        if self._heard_shared:
            self._last_heard = dict(self._last_heard)
            self._heard_shared = False
        self._snap_cache = None

    def _editing(self, node_id: int, removal: bool) -> None:
        """Hook: ``node_id``'s entry is about to be inserted, replaced or
        (``removal``) dropped.  A table that keeps some freshness outside
        ``_last_heard`` moves the entry's in here, before it is read."""

    def advance_freshness(self, node_id: int, evidence: Optional[float]) -> None:
        """Move a neighbor's liveness evidence forward (never backwards)."""
        if evidence is None or node_id not in self._records:
            return
        if evidence > self._last_heard.get(node_id, _NEG_INF):
            self._own_heard()
            self._last_heard[node_id] = evidence

    # -- updates ------------------------------------------------------------------
    def upsert(
        self,
        record: BeliefRecord,
        now: float,
        heard: bool = False,
        heard_at: Optional[float] = None,
    ) -> bool:
        """Insert or refresh a record; returns True when anything changed.

        ``heard=True`` marks direct contact with the subject (a heartbeat
        from it): freshness becomes ``now``.  Otherwise ``heard_at`` is the
        gossip sender's advertised last-heard time; stale gossip (older than
        ``freshness_ttl``) cannot insert new entries, and freshness only
        ever moves forward.  An existing entry is only overwritten by an
        equal-or-newer version — gossip cannot roll state backwards.
        """
        evidence = now if heard else (heard_at if heard_at is not None else now)
        current = self._records.get(record.node_id)
        if current is None:
            if not heard and now - evidence > self.freshness_ttl:
                return False  # too stale to (re-)introduce
            self._editing(record.node_id, False)
            self._own_records()
            self._own_heard()
            self._records[record.node_id] = record
            self._last_heard[record.node_id] = evidence
            self._total_zones += max(len(record.zones), 1)
            self.epoch += 1
            self._record_seq[record.node_id] = self.epoch
            return True
        if current.version > record.version or (
            current.version == record.version and current == record
        ):
            self.advance_freshness(record.node_id, evidence)
            return False
        self._editing(record.node_id, False)
        if evidence > self._last_heard.get(record.node_id, _NEG_INF):
            self._own_heard()
            self._last_heard[record.node_id] = evidence
        self._own_records()
        self._records[record.node_id] = record
        self._total_zones += max(len(record.zones), 1) - max(
            len(current.zones), 1
        )
        self.epoch += 1
        self._record_seq[record.node_id] = self.epoch
        return True

    def heard_from(self, record: BeliefRecord, now: float) -> bool:
        """Direct-heartbeat fast path for an already-known record.

        Equivalent to the non-structural branch of a ``heard=True`` merge:
        when ``record`` is the same or an older version of what we believe,
        advance liveness evidence to ``now`` and return True.  Returns
        False when the record is new or newer — the caller must run the
        full merge path.
        """
        current = self._records.get(record.node_id)
        if current is None or record.version > current.version:
            return False
        if now > self._last_heard.get(record.node_id, _NEG_INF):
            self._own_heard()
            self._last_heard[record.node_id] = now
        return True

    def remove(self, node_id: int, now: Optional[float] = None) -> bool:
        """Drop an entry; with ``now``, remember its zones for a grace period
        (used when removing a *suspected-failed* neighbor whose zone will be
        claimed shortly)."""
        record = self._records.get(node_id)
        if record is None:
            return False
        self._editing(node_id, True)
        self._own_records()
        self._own_heard()
        del self._records[node_id]
        if now is not None:
            self._recent_removals[node_id] = (record.zones, now)
        self._last_heard.pop(node_id, None)
        self._record_seq.pop(node_id, None)
        self._total_zones -= max(len(record.zones), 1)
        self.epoch += 1
        self.removals_epoch += 1
        return True

    def records_since(self, epoch: int) -> List[Tuple[BeliefRecord, float]]:
        """(record, last_heard) pairs inserted or updated after ``epoch``.

        The delta a receiver needs when it already merged this table at
        ``epoch`` and nothing changed on its own side.
        """
        return [
            (self._records[nid], self._last_heard.get(nid, _NEG_INF))
            for nid, seq in self._record_seq.items()
            if seq > epoch
        ]

    def grace_zones(self, now: float, grace: float) -> List[Zone]:
        """Zones of neighbors removed within the last ``grace`` seconds."""
        expired = [
            nid
            for nid, (_, t) in self._recent_removals.items()
            if now - t > grace
        ]
        for nid in expired:
            del self._recent_removals[nid]
        return [
            z
            for zones, _ in self._recent_removals.values()
            for z in zones
        ]

    def last_heard(self, node_id: int) -> float:
        return self._last_heard.get(node_id, _NEG_INF)

    def stale_ids(self, now: float, timeout: float) -> List[int]:
        """Neighbors not heard from within ``timeout`` (failure suspects)."""
        return [
            nid
            for nid, t in self._last_heard.items()
            if now - t > timeout and nid in self._records
        ]
