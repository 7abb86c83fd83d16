"""Message types and the byte-size model for CAN maintenance traffic.

Figure 8(b) of the paper compares heartbeat *volume* across schemes, so we
need a consistent wire-size model rather than real serialisation.  Sizes are
composed from:

* a fixed header (sender id, message type, timestamp, epoch);
* *neighbor records* — id, version, zone box (2 floats per dimension per
  zone), coordinate (1 float per dimension), and a fixed load block.  A
  record is O(d);
* *aggregated load info* — one compact block per dimension (the dimension's
  owning CE slot only, plus two node-level counters), O(1) per dimension,
  O(d) in total.  This matches the paper's claim that compact heartbeats
  are O(d): a vanilla heartbeat additionally carries O(d) records of O(d)
  bytes each, hence O(d²).

Each payload has one formula.  A table's records are sized from the two
totals a table keeps (record count, zone count), never by walking them; the
per-record sums those totals stand for are the oracle in
``tests/can/test_messages.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["MessageType", "SizeModel", "SIZE_MODEL"]


class MessageType(enum.Enum):
    HEARTBEAT = "heartbeat"  # compact: own record + aggregates
    HEARTBEAT_FULL = "heartbeat_full"  # vanilla / to take-over nodes
    JOIN_REPLY = "join_reply"  # splitter -> newcomer: neighbor slice
    JOIN_NOTIFY = "join_notify"  # splitter -> neighbors: newcomer + new zone
    HANDOFF = "handoff"  # graceful leaver -> take-over node
    TAKEOVER_NOTIFY = "takeover_notify"  # claimant -> vacated zone's neighbors
    FULL_UPDATE_REQUEST = "full_update_request"  # adaptive: gap detected
    FULL_UPDATE_REPLY = "full_update_reply"  # adaptive: full table answer


@dataclass(frozen=True)
class SizeModel:
    """Byte-size accounting for protocol messages.

    All constants are plausible wire sizes; only relative growth with the
    dimension count matters for the reproduced figures.
    """

    header_bytes: int = 48
    id_bytes: int = 8
    version_bytes: int = 8
    float_bytes: int = 8
    load_block_bytes: int = 24  # per-record current load summary
    #: per-dimension aggregate block: node-level (count, free) + the owning
    #: slot's (required, cores, queue, idle) as floats
    agg_fields_per_dim: int = 6

    def record_bytes(self, dims: int, zones: int = 1) -> int:
        """One neighbor record: id, version, zone box(es), coordinate, load."""
        if dims <= 0 or zones <= 0:
            raise ValueError("dims and zones must be positive")
        return (
            self.id_bytes
            + self.version_bytes
            + zones * 2 * dims * self.float_bytes
            + dims * self.float_bytes
            + self.load_block_bytes
        )

    def record_base_bytes(self, dims: int) -> int:
        """The zone-count-independent part of :meth:`record_bytes`."""
        if dims <= 0:
            raise ValueError("dims must be positive")
        return (
            self.id_bytes
            + self.version_bytes
            + dims * self.float_bytes
            + self.load_block_bytes
        )

    def table_records_bytes(self, dims: int, records: int, total_zones: int) -> int:
        """Sum of :meth:`record_bytes` over a table, from its totals.

        ``total_zones`` must be ``sum(max(zone_count, 1))`` over the records
        (as :class:`~repro.can.neighbor.NeighborTable` maintains), so a
        table's size costs O(1) however many records it holds.
        """
        if records < 0 or total_zones < records:
            raise ValueError("need records >= 0 and total_zones >= records")
        return (
            records * self.record_base_bytes(dims)
            + total_zones * 2 * dims * self.float_bytes
        )

    def aggregates_bytes(self, dims: int) -> int:
        """Piggybacked per-dimension aggregated load info (O(d) total)."""
        return dims * self.agg_fields_per_dim * self.float_bytes

    def heartbeat_bytes(self, dims: int, own_zones: int) -> int:
        """A compact heartbeat: header, own record and aggregates."""
        return (
            self.header_bytes
            + self.record_bytes(dims, own_zones)
            + self.aggregates_bytes(dims)
        )

    def heartbeat_bytes_from_totals(
        self, dims: int, own_zones: int, records: int, total_zones: int
    ) -> int:
        """A full heartbeat: the compact one plus the sender's whole table."""
        return self.heartbeat_bytes(dims, own_zones) + self.table_records_bytes(
            dims, records, total_zones
        )

    def table_bytes_from_totals(
        self, dims: int, records: int, total_zones: int
    ) -> int:
        """A bare table payload (join reply, hand-off, full-update reply)."""
        return self.header_bytes + self.table_records_bytes(
            dims, records, total_zones
        )

    def notify_bytes(self, dims: int, records: int = 2) -> int:
        """Join/take-over notifications: a couple of records."""
        return self.header_bytes + records * self.record_bytes(dims)

    def request_bytes(self) -> int:
        """Full-update request: header only."""
        return self.header_bytes


#: the wire-size model every maintenance protocol accounts with
SIZE_MODEL = SizeModel()
