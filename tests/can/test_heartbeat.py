"""Unit and scenario tests for the heartbeat protocol engine."""

import json
import math

import numpy as np
import pytest

import repro.can.coverage as coverage
from repro.can.heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
)
from repro.can.messages import MessageType
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.experiments.scenarios import scenario_config
from repro.gridsim import ChurnSimulation
from repro.gridsim.config import ChurnConfig
from repro.gridsim.faults import FaultPlan, scenario_pack
from repro.net import LatencySpec, NetworkModel, NetworkSpec
from repro.overlay.base import GAP_RETRY_ROUNDS, MaintenanceProtocol
from tests.can.hb_golden import CASES, GOLDEN_PATH, fingerprint
from tests.can.oracle import oracle_has_gap
from tests.overlay.oracle import missing_neighbors, oracle


def build_protocol(
    n=12, scheme=HeartbeatScheme.VANILLA, seed=0, protocol_class=HeartbeatProtocol
):
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    config = ProtocolConfig(scheme=scheme, period=60.0)
    proto = protocol_class(overlay, config)
    rng = np.random.default_rng(seed)
    coords = [tuple(rng.random(space.dims) * 0.998 + 0.001) for _ in range(n)]
    proto.bootstrap(0, coords[0])
    for i in range(1, n):
        proto.join(i, coords[i], now=0.0)
    return proto


def run_rounds(proto, k, start=60.0, period=60.0):
    t = start
    for _ in range(k):
        proto.run_round(t)
        t += period
    return t


@pytest.mark.parametrize("scheme", list(HeartbeatScheme))
class TestQuiescentCorrectness:
    def test_join_builds_complete_tables(self, scheme):
        proto = build_protocol(15, scheme)
        assert proto.count_broken_links() == 0

    def test_rounds_preserve_zero_broken_links(self, scheme):
        proto = build_protocol(15, scheme)
        run_rounds(proto, 5)
        assert proto.count_broken_links() == 0

    def test_tables_match_ground_truth_exactly(self, scheme):
        proto = build_protocol(12, scheme)
        run_rounds(proto, 3)
        for nid, pnode in proto.nodes.items():
            truth = proto.overlay.neighbors(nid)
            assert pnode.table.ids() == truth, f"node {nid} table diverged"

    def test_graceful_leave_no_broken_links(self, scheme):
        proto = build_protocol(12, scheme)
        run_rounds(proto, 2)
        proto.graceful_leave(5, now=130.0)
        proto.run_round(180.0)
        assert proto.count_broken_links() == 0
        assert 5 not in proto.nodes

    def test_single_failure_recovers(self, scheme):
        """Paper: 'none of the approaches suffers from broken links when
        there are no simultaneous events.'"""
        proto = build_protocol(12, scheme)
        run_rounds(proto, 2)
        proto.fail(3, now=125.0)
        # detection timeout = 2.5 periods -> claimed within 3-4 rounds
        run_rounds(proto, 5, start=180.0)
        assert 3 not in proto.nodes
        assert proto.count_broken_links() == 0


class TestJoins:
    def test_join_into_dead_zone_deferred_then_retried(self):
        proto = build_protocol(8)
        run_rounds(proto, 2)
        victim = proto.overlay.locate_owner((0.5,) * 5)
        proto.fail(victim, now=130.0)
        assert not proto.join(99, (0.5,) * 5, now=131.0)  # deferred
        assert 99 not in proto.nodes
        run_rounds(proto, 6, start=180.0)
        assert 99 in proto.nodes  # retried after the claim
        assert proto.count_broken_links() == 0

    def test_join_counts_messages(self):
        proto = build_protocol(6)
        proto.stats.reset_window(0.0, 6)
        proto.join(100, (0.9,) * 5, now=10.0)
        assert proto.stats.count[MessageType.JOIN_REPLY] == 1
        assert proto.stats.count[MessageType.JOIN_NOTIFY] >= 1


class TestFailureMachinery:
    def test_takeover_claimant_stores_dead_table_compact(self):
        """Compact's whole design: the take-over node received the dead
        node's full table via its (targeted) full heartbeats."""
        proto = build_protocol(12, HeartbeatScheme.COMPACT)
        run_rounds(proto, 3)
        victim = 4
        targets = proto.overlay.takeover_targets(victim)
        assert targets
        for t in targets:
            assert victim in proto.nodes[t].stored_tables
        proto.fail(victim, now=250.0)
        run_rounds(proto, 5, start=300.0)
        assert victim not in proto.nodes
        assert proto.count_broken_links() == 0

    def test_ghost_is_silent_but_counted_as_target(self):
        proto = build_protocol(10)
        proto.stats.reset_window(0.0, 10)
        proto.fail(2, now=10.0)
        proto.run_round(60.0)
        # messages to the dead node are sent (and lost) until timeout
        assert proto.stats.count[MessageType.HEARTBEAT_FULL] > 0

    def test_failure_detection_removes_entry(self):
        proto = build_protocol(10)
        run_rounds(proto, 2)
        victim = 7
        believers = [
            nid
            for nid, p in proto.nodes.items()
            if victim in p.table and nid != victim
        ]
        assert believers
        proto.fail(victim, now=125.0)
        run_rounds(proto, 5, start=180.0)
        for nid in believers:
            if nid in proto.nodes:
                assert victim not in proto.nodes[nid].table


def _break_mutually(proto, a, b):
    proto.nodes[a].table.remove(b)
    proto.nodes[b].table.remove(a)
    proto.nodes[a].gap_dirty = False
    proto.nodes[b].gap_dirty = False


def _adjacent_pair(proto):
    for nid in sorted(proto.nodes):
        for other in sorted(proto.overlay.neighbors(nid)):
            if other > nid:
                return nid, other
    raise AssertionError("no adjacent pair")


class TestRepairByScheme:
    """The heart of Figure 7: who can heal a mutual broken link."""

    def test_vanilla_repairs_mutual_break(self):
        proto = build_protocol(14, HeartbeatScheme.VANILLA)
        run_rounds(proto, 2)
        a, b = _adjacent_pair(proto)
        _break_mutually(proto, a, b)
        assert proto.count_broken_links() == 2
        run_rounds(proto, 2, start=200.0)
        assert proto.count_broken_links() == 0

    def test_compact_cannot_repair_mutual_break(self):
        proto = build_protocol(14, HeartbeatScheme.COMPACT)
        run_rounds(proto, 2)
        a, b = _adjacent_pair(proto)
        # avoid the pair that full-updates each other (take-over partners)
        if b in proto.overlay.takeover_targets(a) or a in (
            proto.overlay.takeover_targets(b)
        ):
            pairs = [
                (x, y)
                for x in sorted(proto.nodes)
                for y in sorted(proto.overlay.neighbors(x))
                if y > x
                and y not in proto.overlay.takeover_targets(x)
                and x not in proto.overlay.takeover_targets(y)
            ]
            a, b = pairs[0]
        _break_mutually(proto, a, b)
        run_rounds(proto, 4, start=200.0)
        missing_a = missing_neighbors(proto, a)
        missing_b = missing_neighbors(proto, b)
        assert b in missing_a and a in missing_b  # still broken

    def test_adaptive_repairs_after_request_reply(self):
        proto = build_protocol(14, HeartbeatScheme.ADAPTIVE)
        run_rounds(proto, 2)
        a, b = _adjacent_pair(proto)
        _break_mutually(proto, a, b)
        proto.nodes[a].gap_dirty = True  # a detects its coverage gap
        proto.nodes[a].gap_attempts = 0
        run_rounds(proto, 3, start=200.0)
        assert proto.count_broken_links() == 0
        assert proto.stats.count[MessageType.FULL_UPDATE_REQUEST] > 0
        assert proto.stats.count[MessageType.FULL_UPDATE_REPLY] > 0

    def test_adaptive_gives_up_after_retry_budget(self):
        proto = build_protocol(14, HeartbeatScheme.ADAPTIVE)
        run_rounds(proto, 2)
        a, b = _adjacent_pair(proto)
        _break_mutually(proto, a, b)
        # make the gap undetectable-on-b and unrepairable: remove b from
        # every other table so no neighbor can answer for it
        for nid, p in proto.nodes.items():
            p.table.remove(b)
            p.gap_dirty = False
        proto.nodes[a].gap_dirty = True
        before = proto.stats.count[MessageType.FULL_UPDATE_REQUEST]
        run_rounds(proto, 6, start=200.0)
        sent = proto.stats.count[MessageType.FULL_UPDATE_REQUEST] - before
        # requests stop after the retry budget (GAP_RETRY_ROUNDS rounds'
        # worth, plus any triggered by unrelated table changes)
        assert sent <= GAP_RETRY_ROUNDS * len(proto.nodes[a].table) + 4


class TestMessageAccounting:
    def test_vanilla_heartbeats_all_full(self):
        proto = build_protocol(10, HeartbeatScheme.VANILLA)
        proto.stats.reset_window(0.0, 10)
        proto.run_round(60.0)
        assert proto.stats.count[MessageType.HEARTBEAT] == 0
        expected = sum(len(p.table) for p in proto.nodes.values())
        assert proto.stats.count[MessageType.HEARTBEAT_FULL] == expected

    def test_compact_sends_few_full(self):
        proto = build_protocol(10, HeartbeatScheme.COMPACT)
        proto.stats.reset_window(0.0, 10)
        proto.run_round(60.0)
        full = proto.stats.count[MessageType.HEARTBEAT_FULL]
        compact = proto.stats.count[MessageType.HEARTBEAT]
        assert full > 0  # take-over targets still get full state
        assert compact > full  # most heartbeats are compact

    def test_compact_volume_much_smaller(self):
        vol = {}
        for scheme in (HeartbeatScheme.VANILLA, HeartbeatScheme.COMPACT):
            proto = build_protocol(16, scheme, seed=2)
            proto.stats.reset_window(0.0, 16)
            run_rounds(proto, 3)
            _, vol[scheme] = proto.stats.totals()
        assert vol[HeartbeatScheme.COMPACT] < vol[HeartbeatScheme.VANILLA] / 2

    def test_message_counts_similar_across_schemes(self):
        counts = {}
        for scheme in HeartbeatScheme:
            proto = build_protocol(16, scheme, seed=2)
            proto.stats.reset_window(0.0, 16)
            run_rounds(proto, 3)
            counts[scheme], _ = proto.stats.totals()
        base = counts[HeartbeatScheme.VANILLA]
        for scheme, c in counts.items():
            assert abs(c - base) / base < 0.2, f"{scheme} count diverged"


GRACEFUL = dict(
    initial_nodes=60,
    scheme=HeartbeatScheme.COMPACT,
    leave_mode="graceful",
    duration=7_200.0,
    seed=3,
)
#: crashes under a channel whose latency tail outlives the take-over, so
#: full heartbeats land after their sender was claimed
LATE = dict(
    initial_nodes=40,
    scheme=HeartbeatScheme.VANILLA,
    duration=1_800.0,
    plan=FaultPlan(
        network=NetworkSpec(
            loss=0.1,
            latency=LatencySpec("lognormal", mu=math.log(20.0), sigma=1.0),
        )
    ),
)


@pytest.mark.parametrize("substrate", ["can", "chord"])
@pytest.mark.parametrize("shape", [GRACEFUL, LATE], ids=["graceful", "late"])
def test_departures_purge_stored_state(substrate, shape):
    """Every way out of the overlay drops every stored copy of the leaver's
    state: a clean leave exactly as a take-over (CAN's leave used to skip
    the purge, so holders and the reverse index grew with every departure),
    and a heartbeat that lands after its sender is gone stores nothing."""
    sim = ChurnSimulation(ChurnConfig(substrate=substrate, **shape))
    sim.run()
    proto = sim.protocol
    assert proto.events["leaves"] + proto.events["claims"] > 50
    members = set(proto.nodes)
    assert set(proto._stored_in) <= members
    for node in proto.nodes.values():
        if substrate == "can":
            assert set(node.stored_tables) <= members
            assert set(node.processed_epoch) <= members
        else:
            assert set(node.stored_state) <= members


@pytest.mark.parametrize("substrate", ["can", "chord"])
@pytest.mark.parametrize("shape", [GRACEFUL, LATE], ids=["graceful", "late"])
def test_stored_index_names_only_live_holders(substrate, shape):
    """A departing *holder* leaves the reverse index too: its copies went
    with it, so no subject's entry may still name it (the churn audit,
    ``check_churn_invariants``, asserts the same mid-run)."""
    sim = ChurnSimulation(ChurnConfig(substrate=substrate, **shape))
    drop = sim.protocol._drop_node
    holders_dropped = []

    def dropped(node_id):
        holders_dropped.append(
            any(node_id in h for h in sim.protocol._stored_in.values())
        )
        drop(node_id)

    sim.protocol._drop_node = dropped
    sim.run()
    proto = sim.protocol
    assert sum(holders_dropped) > 5  # holders did depart
    for holders in proto._stored_in.values():
        assert holders <= proto.nodes.keys()
    sim.check_invariants()


# ------------------------------------------------ gap verdicts, by the round --
def _lossy_adaptive(**overrides):
    """The lossy golden's shape (tests/can/hb_golden.CASES) on adaptive."""
    return ChurnConfig(
        **{
            **CASES["lossy"],
            "scheme": HeartbeatScheme.ADAPTIVE,
            "seed": 20110926,
            **overrides,
        }
    )


def _flap_storm():
    scenario = {
        s.name: s for s in scenario_pack(duration=3_600.0, nodes=40)
    }["flap_storm"]
    return scenario_config(
        scenario, HeartbeatScheme.ADAPTIVE, "can", fast=True, seed=None
    )


class TestTilingProof:
    """``_tiled`` answers for the coverage check without running it: armed
    here (never in ``src/``) with the routine the kernel replaced."""

    @pytest.mark.parametrize(
        "config",
        [
            _lossy_adaptive(),
            _flap_storm(),
            # dense crashes on the ideal channel: take-overs, multi-zone
            # owners, stale and grace zones (the array class)
            ChurnConfig(
                scheme=HeartbeatScheme.ADAPTIVE, seed=20110926, **CASES["fig7"]
            ),
        ],
        ids=["lossy-golden", "flap-storm", "take-overs"],
    )
    def test_tiled_means_the_check_finds_no_gap(self, config, monkeypatch):
        proved = []
        tiled = HeartbeatProtocol._tiled

        def armed(self, pnode):
            verdict = tiled(self, pnode)
            if verdict:
                dims = self.overlay.space.dims
                believed = [z for r in pnode.table.records() for z in r.zones]
                believed += pnode.table.grace_zones(
                    self._now, self.config.failure_timeout
                )
                proved.append(pnode.node_id)
                assert not oracle_has_gap(
                    self.overlay.zones_of(pnode.node_id),
                    believed,
                    [0.0] * dims,
                    [1.0] * dims,
                ), f"node {pnode.node_id} proved tiled, but has a gap"
            return verdict

        monkeypatch.setattr(HeartbeatProtocol, "_tiled", armed)
        sim = ChurnSimulation(config)
        sim.run()
        proto = sim.protocol
        assert proto.events["claims"] > 0
        # the proof carries a real share, and the rest is measured
        assert len(proved) == proto.gap_verdicts_proved > 50
        assert proto.gap_verdicts_measured > 50

    def _settled(self):
        proto = build_protocol(14, HeartbeatScheme.ADAPTIVE)
        run_rounds(proto, 2)
        assert all(proto._tiled(p) for p in proto.nodes.values())
        a, b = _adjacent_pair(proto)
        return proto, proto.nodes[a], proto.nodes[b]

    def test_a_record_one_version_behind_is_not_tiled(self):
        proto, believer, subject = self._settled()
        subject.bump_version()  # its zones may be anything now
        assert not proto._tiled(believer)
        believer.table.upsert(subject.own_record(proto.overlay), 120.0)
        assert proto._tiled(believer)

    def test_a_subject_that_left_the_members_is_not_tiled(self):
        proto, believer, subject = self._settled()
        # mid-departure: territory handed on, version not bumped anywhere yet
        del proto.overlay.members[subject.node_id]
        assert not proto._tiled(believer)

    def test_a_missing_ghost_neighbor_is_not_tiled(self):
        proto, believer, subject = self._settled()
        proto.fail(subject.node_id, 130.0)
        assert proto._tiled(believer)  # a ghost still holds its zones
        believer.table.remove(subject.node_id, 130.0)
        assert not proto._tiled(believer)
        # ... although its grace zones keep the check itself quiet
        proto._now = 130.0
        assert not proto._detects_gap(believer.node_id)
        assert proto.gap_verdicts_measured == 1

    def test_oracle_detection_is_left_alone(self):
        proto = build_protocol(
            14, HeartbeatScheme.ADAPTIVE, protocol_class=oracle(HeartbeatProtocol)
        )
        a, b = _adjacent_pair(proto)
        _break_mutually(proto, a, b)
        proto.nodes[a].gap_dirty = True
        run_rounds(proto, 3)
        assert proto.count_broken_links() == 0
        assert proto.gap_verdicts_proved == proto.gap_verdicts_measured == 0


@pytest.mark.parametrize("pass_zones", [1, 7, 16_384])
def test_the_round_kernel_reads_the_same_in_any_pass_size(pass_zones, monkeypatch):
    """A lossy adaptive run whose coverage kernel works in passes of 1, 7
    and 16 384 candidate zones: same statistics, events and trace."""
    monkeypatch.setattr(coverage, "_PASS_ZONES", pass_zones)
    seen = fingerprint(_lossy_adaptive())
    with open(GOLDEN_PATH) as fh:
        assert seen == json.load(fh)["lossy.adaptive"]


# ------------------------------------------ channel verdicts, by the turn --
@pytest.mark.parametrize("substrate", ["can", "chord"])
def test_every_notify_fan_out_is_exhausted(substrate, monkeypatch):
    """``_notify`` draws its whole fan-out's channel verdicts before the
    first receiver is yielded: a caller that stopped early would have drawn
    for sends it never made.  All three callers (the join, CAN's and
    Chord's take-over notify) run it to the end, on a lossy channel, under
    joins, crashes with take-overs and graceful hand-offs."""
    opened, exhausted = [], []
    notify = MaintenanceProtocol._notify

    def spy(self, mtype, src, targets, now):
        opened.append(mtype)
        yield from notify(self, mtype, src, targets, now)
        exhausted.append(mtype)  # not reached by a closed generator

    monkeypatch.setattr(MaintenanceProtocol, "_notify", spy)
    for leave_mode in ("fail", "graceful"):
        ChurnSimulation(
            _lossy_adaptive(substrate=substrate, leave_mode=leave_mode)
        ).run()
    assert opened == exhausted
    assert {MessageType.JOIN_NOTIFY, MessageType.TAKEOVER_NOTIFY} == set(opened)
    assert opened.count(MessageType.TAKEOVER_NOTIFY) > 20


def test_full_targets_draw_before_compact_targets():
    """A sender's turn asks the channel once, for its full-table targets
    followed by its compact ones — the order the sends were drawn in one by
    one."""
    proto = build_protocol(14, HeartbeatScheme.COMPACT)
    asked = []

    class Recording(NetworkModel):
        __slots__ = ()

        def transmit_many(self, src, dsts, now):
            asked.append((src, list(dsts)))
            return super().transmit_many(src, dsts, now)

    proto.set_network(
        Recording(NetworkSpec(loss=0.1), np.random.default_rng(3))
    )
    takeovers = proto._takeover_targets_map()
    proto.run_round(60.0)
    assert len(asked) == 14
    for src, dsts in asked:
        table = proto.nodes[src].table.sorted_ids()
        full = [t for t in table if t in takeovers[src]]
        assert full and dsts == full + [t for t in table if t not in full]


# ------------------------------------------------------- small memo fixes --
def test_the_non_abutting_memo_holds_one_generation():
    """Entries written under an older ``own_version`` can never match again
    (it only grows), so a version bump drops them: after two splits a
    splitter's memo holds what it learned since the second one."""
    proto = build_protocol(30, HeartbeatScheme.VANILLA, seed=4)
    run_rounds(proto, 3)
    splitter = max(proto.nodes.values(), key=lambda n: len(n._non_abutting))
    assert splitter._non_abutting
    for newcomer in (100, 101):
        # a point of the splitter's zone: it is the one that splits
        zone = proto.overlay.zones_of(splitter.node_id)[0]
        coord = tuple(lo + 0.25 * (hi - lo) for lo, hi in zip(zone.lo, zone.hi))
        before = splitter.own_version
        proto.join(newcomer, coord, now=200.0)
        assert splitter.own_version == before + 1
        assert not splitter._non_abutting
    run_rounds(proto, 2, start=240.0)
    assert splitter._non_abutting
    assert set(splitter._non_abutting.values()) == {splitter.own_version}
