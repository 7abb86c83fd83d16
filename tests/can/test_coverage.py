"""Unit + property tests for the zone-face coverage detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.can.coverage as coverage
from repro.can.coverage import (
    Face,
    face_of,
    find_gaps,
    has_gap,
    have_gaps,
    uncovered_fraction,
    union_measure,
)
from repro.can.geometry import Zone
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace


class TestUnionMeasure:
    def test_empty(self):
        assert union_measure([], (((0, 1)),) * 2) == 0.0

    def test_single_covering_box(self):
        region = ((0.0, 1.0), (0.0, 2.0))
        assert union_measure([region], region) == pytest.approx(2.0)

    def test_partial_cover(self):
        region = ((0.0, 1.0), (0.0, 1.0))
        box = ((0.0, 0.5), (0.0, 1.0))
        assert union_measure([box], region) == pytest.approx(0.5)

    def test_overlapping_boxes_not_double_counted(self):
        region = ((0.0, 1.0),)
        boxes = [((0.0, 0.6),), ((0.4, 1.0),)]
        assert union_measure(boxes, region) == pytest.approx(1.0)

    def test_disjoint_boxes_sum(self):
        region = ((0.0, 1.0), (0.0, 1.0))
        boxes = [((0.0, 0.25), (0.0, 1.0)), ((0.5, 0.75), (0.0, 1.0))]
        assert union_measure(boxes, region) == pytest.approx(0.5)

    def test_three_dims(self):
        region = ((0.0, 1.0),) * 3
        boxes = [((0.0, 1.0), (0.0, 1.0), (0.0, 0.5))]
        assert union_measure(boxes, region) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(0, 0.9), st.floats(0.05, 1.0),
                st.floats(0, 0.9), st.floats(0.05, 1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_monte_carlo_agreement(self, data):
        """Union measure agrees with Monte-Carlo sampling in 2-D."""
        boxes = []
        for x0, dx, y0, dy in data:
            boxes.append(((x0, min(1.0, x0 + dx)), (y0, min(1.0, y0 + dy))))
        region = ((0.0, 1.0), (0.0, 1.0))
        exact = union_measure(boxes, region)
        rng = np.random.default_rng(0)
        pts = rng.random((4000, 2))
        hits = np.zeros(len(pts), dtype=bool)
        for (xl, xh), (yl, yh) in boxes:
            hits |= (
                (pts[:, 0] >= xl) & (pts[:, 0] <= xh)
                & (pts[:, 1] >= yl) & (pts[:, 1] <= yh)
            )
        assert exact == pytest.approx(hits.mean(), abs=0.05)


class TestFaces:
    def test_face_of(self):
        zone = Zone([0, 0, 0], [1, 2, 3])
        face = face_of(zone, 1, +1)
        assert face.plane == 2.0
        assert face.box == ((0.0, 1.0), (0.0, 3.0))
        assert face.area() == pytest.approx(3.0)

    def test_validation(self):
        zone = Zone([0, 0], [1, 1])
        with pytest.raises(ValueError):
            face_of(zone, 0, 0)
        with pytest.raises(ValueError):
            face_of(zone, 5, 1)

    def test_uncovered_fraction_simple(self):
        zone = Zone([0, 0], [1, 1])
        face = face_of(zone, 0, +1)  # the x=1 edge
        half = Zone([1, 0], [2, 0.5])
        assert uncovered_fraction(face, [half]) == pytest.approx(0.5)
        full = Zone([1, 0], [2, 1])
        assert uncovered_fraction(face, [full]) == pytest.approx(0.0)
        wrong_side = Zone([2, 0], [3, 1])
        assert uncovered_fraction(face, [wrong_side]) == pytest.approx(1.0)


class TestFindGaps:
    def _overlay(self, n=30, gpu_slots=0, seed=1):
        space = ResourceSpace(gpu_slots=gpu_slots)
        overlay = CanOverlay(space)
        rng = np.random.default_rng(seed)
        for i in range(n):
            overlay.add_node(i, tuple(rng.random(space.dims) * 0.998 + 0.001))
        return overlay

    @pytest.mark.parametrize("gpu_slots", [0, 1, 2])
    def test_complete_tables_have_no_gaps(self, gpu_slots):
        overlay = self._overlay(25, gpu_slots)
        dims = overlay.space.dims
        lo, hi = [0.0] * dims, [1.0] * dims
        for nid in overlay.alive_ids():
            nbrs = [
                z
                for other in overlay.neighbors(nid)
                for z in overlay.zones_of(other)
            ]
            assert not find_gaps(overlay.zones_of(nid), nbrs, lo, hi)

    def test_missing_neighbor_detected(self):
        overlay = self._overlay(25)
        dims = overlay.space.dims
        lo, hi = [0.0] * dims, [1.0] * dims
        misses = 0
        for nid in overlay.alive_ids():
            neighbors = sorted(overlay.neighbors(nid))
            for victim in neighbors[:2]:
                reduced = [
                    z
                    for other in neighbors
                    if other != victim
                    for z in overlay.zones_of(other)
                ]
                if not find_gaps(overlay.zones_of(nid), reduced, lo, hi):
                    misses += 1
        assert misses == 0  # the detector is exact given true zones

    def test_stale_zone_hides_gap(self):
        """The detector's honest failure mode: a stale believed zone that
        (wrongly) covers the vacated area suppresses detection."""
        zone = Zone([0.0, 0.0], [0.5, 1.0])
        true_neighbor = Zone([0.5, 0.0], [1.0, 0.5])  # covers only half
        stale = Zone([0.5, 0.0], [1.0, 1.0])  # old, larger zone
        gaps_with_truth = find_gaps([zone], [true_neighbor], [0, 0], [1, 1])
        assert gaps_with_truth  # half the face is uncovered
        gaps_with_stale = find_gaps([zone], [stale], [0, 0], [1, 1])
        assert not gaps_with_stale  # stale record masks it

    def test_outer_boundary_ignored(self):
        zone = Zone([0.0, 0.0], [1.0, 1.0])
        assert not find_gaps([zone], [], [0, 0], [1, 1])


_EPS = 1e-12


def oracle_has_gap(own_zones, believed_zones, space_lo, space_hi, tolerance=1e-6):
    """``has_gap`` as it stood before the batched kernel replaced it (one
    owner a call, a pass per own zone, all 2*d faces of it at once): kept
    here, unchanged, as the oracle the kernel's verdicts must equal."""
    if not own_zones:
        return False
    dims = own_zones[0].dims
    candidates = list(believed_zones) + list(own_zones)
    bounds = np.array([z.lo + z.hi for z in candidates])  # (n, 2d)
    los = bounds[:, :dims]  # (n, d)
    his = bounds[:, dims:]
    lo_wall = np.asarray(space_lo, dtype=float)
    hi_wall = np.asarray(space_hi, dtype=float)
    n = len(candidates)
    ones = np.ones((n, 1))
    for zone in own_zones:
        zlo = np.asarray(zone.lo, dtype=float)
        zhi = np.asarray(zone.hi, dtype=float)
        # clip every candidate to the zone's extent (shared by all faces)
        ext = np.minimum(his, zhi) - np.maximum(los, zlo)  # (n, d)
        pos = ext > _EPS
        nonpos = (~pos).sum(axis=1)
        # prod of ext over all axes but one: left * right cumulative products
        left = np.cumprod(np.hstack((ones, ext[:, :-1])), axis=1)
        right = np.cumprod(
            np.hstack((ones, ext[:, :0:-1])), axis=1
        )[:, ::-1]
        areas = left * right  # (n, d): projection area onto face of axis k
        # a candidate covers part of face k iff every *other* clipped axis
        # has positive extent (the face axis itself is flush, extent 0)
        valid = (nonpos == 0)[:, None] | ((nonpos == 1)[:, None] & ~pos)
        not_self = np.fromiter(
            (cand is not zone for cand in candidates), bool, n
        )[:, None]
        face_edges = zhi - zlo
        f_left = np.cumprod(np.concatenate(([1.0], face_edges[:-1])))
        f_right = np.cumprod(
            np.concatenate(([1.0], face_edges[:0:-1]))
        )[::-1]
        face_areas = f_left * f_right  # (d,)
        threshold = face_areas * (1.0 - tolerance)
        for side_flush, planes, walls in (
            (los, zhi, hi_wall),  # high faces: candidate lo flush at zone hi
            (his, zlo, lo_wall),  # low faces: candidate hi flush at zone lo
        ):
            interior = np.abs(planes - walls) > _EPS  # (d,)
            if not interior.any():
                continue
            flush = np.abs(side_flush - planes[None, :]) <= _EPS  # (n, d)
            contrib = flush & valid & not_self
            covered = (areas * contrib).sum(axis=0)  # (d,)
            if (interior & (covered < threshold)).any():
                return True
    return False


def _believed_tables(dims, seed, leaves=28, owners=12):
    """A random dyadic partition of the unit cube and, per owner, a believed
    table as churn leaves them: ``(own zones, believed zones, consistent)``.

    Owners hold one or several leaves (take-overs), many of them on the
    space's outer wall.  A believed table is the zones of the owner's true
    neighbors with records dropped, plus — unless ``consistent`` — stale
    versions (a neighbor's zone from before a split: it overlaps the fresh
    zones) and grace zones (another owner's zones, wherever they lie).
    """
    rng = np.random.default_rng(seed)
    unit = Zone([0.0] * dims, [1.0] * dims)
    zones, stale = [unit], []
    while len(zones) < leaves:
        zone = zones.pop(int(rng.integers(len(zones))))
        dim = int(rng.integers(dims))
        zones += zone.split(dim, (zone.lo[dim] + zone.hi[dim]) / 2.0)
        stale.append(zone)
    owner_of = rng.integers(owners, size=len(zones))
    tables = []
    for owner in range(owners):
        own = [z for z, o in zip(zones, owner_of) if o == owner]
        if not own:
            continue
        neighbors = [
            z
            for z, o in zip(zones, owner_of)
            if o != owner and any(z.abuts(mine) for mine in own)
        ]
        keep = rng.random(len(neighbors)) >= rng.choice([0.0, 0.15, 0.5])
        believed = [z for z, k in zip(neighbors, keep) if k]
        consistent = bool(rng.random() < 0.5)
        if not consistent:
            believed += [
                z
                for z in stale
                if rng.random() < 0.3 and not any(z.overlaps(m) for m in own)
            ]
            other = int(rng.integers(owners))
            believed += [z for z, o in zip(zones, owner_of) if o == other != owner]
        tables.append((own, believed, consistent))
    return tables


class TestCoverageKernel:
    """``have_gaps`` against the per-owner routine it replaced (the oracle
    above) and against the union-measure reference ``find_gaps``."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.integers(2, 8),
        seed=st.integers(0, 10_000),
        pass_zones=st.sampled_from([1, 3, 7, 50, 16_384]),
    )
    def test_verdicts_equal_the_oracle(self, dims, seed, pass_zones):
        tables = _believed_tables(dims, seed)
        lo, hi = [0.0] * dims, [1.0] * dims
        expected = [oracle_has_gap(own, bel, lo, hi) for own, bel, _ in tables]
        old, coverage._PASS_ZONES = coverage._PASS_ZONES, pass_zones
        try:
            batch = have_gaps([(own, bel) for own, bel, _ in tables], lo, hi)
        finally:
            coverage._PASS_ZONES = old
        assert batch == expected  # equal, not close
        assert [has_gap(own, bel, lo, hi) for own, bel, _ in tables] == expected
        for (own, bel, consistent), verdict in zip(tables, batch):
            reference = bool(find_gaps(own, bel, lo, hi))
            if consistent:
                assert verdict == reference
            else:
                # overlapping stale zones over-count: the sum may hide a gap
                # the union sees, never invent one
                assert reference or not verdict

    def test_a_batch_straddling_the_pass_size(self):
        """More candidate zones than one pass holds: owners whose segments
        end, begin and lie across the 16 384 boundary read as they do alone."""
        dims = 6
        tables = [
            (own, bel) for own, bel, _ in _believed_tables(dims, 5, 160, 60)
        ]
        lo, hi = [0.0] * dims, [1.0] * dims
        per_round = sum((len(own) + len(bel)) * len(own) for own, bel in tables)
        copies = coverage._PASS_ZONES // per_round + 2
        assert per_round * copies > coverage._PASS_ZONES > per_round
        alone = [oracle_has_gap(own, bel, lo, hi) for own, bel in tables]
        assert True in alone and False in alone
        assert have_gaps(tables * copies, lo, hi) == alone * copies

    def test_flush_means_their_low_side_at_our_high_side(self):
        """A zone on the far side of a face's plane does not cover it."""
        zone = Zone([0.25, 0.0], [0.5, 1.0])
        right = Zone([0.5, 0.0], [1.0, 1.0])
        left = Zone([0.0, 0.0], [0.25, 1.0])
        lo, hi = [0.0, 0.0], [1.0, 1.0]
        assert not has_gap([zone], [left, right], lo, hi)
        assert has_gap([zone], [left], lo, hi)
        assert has_gap([zone], [right], lo, hi)
        # the left one stretched across our zone: it overlaps, it does not abut
        assert has_gap([zone], [Zone([0.0, 0.0], [0.5, 1.0]), right], lo, hi)

    def test_no_owner_no_zone(self):
        assert have_gaps([], [0.0], [1.0]) == []
        assert have_gaps([([], [Zone([0], [1])])], [0.0], [1.0]) == [False]
        assert not has_gap([], [], [0.0, 0.0], [1.0, 1.0])

    def test_own_zones_cover_each_other(self):
        """A multi-zone owner's internal face needs no believed record."""
        a, b = Zone([0.0, 0.0], [0.5, 1.0]), Zone([0.5, 0.0], [1.0, 1.0])
        assert not has_gap([a, b], [], [0.0, 0.0], [1.0, 1.0])
        assert has_gap([a], [], [0.0, 0.0], [1.0, 1.0])


class TestProtocolIntegration:
    def test_coverage_mode_matches_oracle_on_quiet_network(self):
        from tests.can.hb_golden import ENGINE_CLASSES
        from tests.can.test_heartbeat import build_protocol, run_rounds
        from tests.overlay.oracle import oracle
        from repro.can.heartbeat import HeartbeatScheme

        for cls in ENGINE_CLASSES.values():
            for protocol_class in (cls, oracle(cls)):
                proto = build_protocol(
                    14, HeartbeatScheme.ADAPTIVE, protocol_class=protocol_class
                )
                run_rounds(proto, 3)
                assert proto.count_broken_links() == 0
                for nid in proto.nodes:
                    assert not proto._detects_gap(nid)

    def test_coverage_detects_manual_break(self):
        from tests.can.test_heartbeat import build_protocol
        from repro.can.heartbeat import HeartbeatScheme

        proto = build_protocol(14, HeartbeatScheme.ADAPTIVE)
        a = sorted(proto.nodes)[0]
        victim = sorted(proto.nodes[a].table.ids())[0]
        proto.nodes[a].table.remove(victim)
        assert proto._detects_gap(a)
