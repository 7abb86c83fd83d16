"""The ground-truth gap detector: an idealised upper bound, for tests only.

A real node decides it has a broken link from what it believes: CAN checks
that its believed neighbour zones tile every face of its own zones
(``repro.can.coverage``), Chord that its believed successor list is full.
The oracle asks the overlay instead which live neighbours a node does not
believe, so it never misses a gap.  Tests run a protocol class with its
detector swapped for this one and compare against the real detector.
"""

from __future__ import annotations

from repro.chord.protocol import ChordMaintenanceProtocol


def missing_neighbors(proto, node_id: int) -> set[int]:
    """Live ground-truth neighbours of ``node_id`` that it does not believe."""
    overlay = proto.overlay
    if isinstance(proto, ChordMaintenanceProtocol):
        # ``known`` is read through ``nodes``: a reply batch may replace it
        known = proto.nodes[node_id].known
        return {nid for nid in overlay.live_links()[node_id] if nid not in known}
    believed = proto.nodes[node_id].table.ids()
    return {
        nid
        for nid in overlay.neighbor_ids(node_id)
        if overlay.is_alive(nid) and nid not in believed
    }


class _CanOracle:
    """CAN's verdicts, memoised on the key the coverage check uses."""

    def _decide_gaps(self, pnodes) -> None:
        for pnode in pnodes:
            key = self._gap_key(pnode)
            memo = pnode._gap_memo
            if memo is None or memo[0] != key:
                pnode._gap_memo = (key, bool(missing_neighbors(self, pnode.node_id)))


class _ChordOracle:
    def _detects_gap(self, node_id: int) -> bool:
        return bool(missing_neighbors(self, node_id))


def oracle(cls: type) -> type:
    """``cls`` (a CAN or Chord protocol class) with the oracle detector."""
    mixin = _ChordOracle if issubclass(cls, ChordMaintenanceProtocol) else _CanOracle
    return type(f"Oracle{cls.__name__}", (mixin, cls), {})
