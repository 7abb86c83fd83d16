"""Unit tests for greedy CAN routing."""

import numpy as np
import pytest

from repro.can import routing
from repro.can.geometry import Zone
from repro.can.overlay import CanOverlay
from repro.can.routing import RoutingError, route, zone_distance
from repro.can.space import ResourceSpace


def grown_overlay(n=40, seed=0):
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    rng = np.random.default_rng(seed)
    for i in range(n):
        overlay.add_node(i, tuple(rng.random(space.dims) * 0.998 + 0.001))
    return overlay


class TestZoneDistance:
    def test_inside_is_zero(self):
        z = Zone([0, 0], [1, 1])
        assert zone_distance(z, (0.5, 0.5)) == 0.0
        assert zone_distance(z, (0.0, 1.0)) == 0.0  # boundary

    def test_outside_distance(self):
        z = Zone([0, 0], [1, 1])
        assert zone_distance(z, (2.0, 0.5)) == pytest.approx(1.0)
        assert zone_distance(z, (2.0, 2.0)) == pytest.approx(np.sqrt(2))

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            zone_distance(Zone([0], [1]), (0.5, 0.5))


class TestRoute:
    def test_route_reaches_owner(self):
        overlay = grown_overlay(40)
        rng = np.random.default_rng(1)
        for _ in range(25):
            point = tuple(rng.random(overlay.space.dims) * 0.998)
            start = int(rng.integers(overlay.size))
            path = route(overlay, start, point)
            assert path[0] == start
            assert path[-1] == overlay.locate_owner(point)

    def test_route_from_owner_is_trivial(self):
        overlay = grown_overlay(10)
        point = (0.5,) * overlay.space.dims
        owner = overlay.locate_owner(point)
        assert route(overlay, owner, point) == [owner]

    def test_path_has_no_cycles(self):
        overlay = grown_overlay(60, seed=3)
        rng = np.random.default_rng(2)
        for _ in range(15):
            point = tuple(rng.random(overlay.space.dims) * 0.998)
            start = int(rng.integers(overlay.size))
            path = route(overlay, start, point)
            assert len(path) == len(set(path))

    def test_hop_budget_enforced(self, monkeypatch):
        overlay = grown_overlay(30)
        monkeypatch.setattr(routing, "MAX_HOPS", 0)
        with pytest.raises(RoutingError):
            route(overlay, 0, (0.999,) * overlay.space.dims)


class TestBeliefRouting:
    def _protocol(self, n=30, scheme=None, seed=4):
        import numpy as np
        from repro.can.heartbeat import (
            HeartbeatProtocol,
            HeartbeatScheme,
            ProtocolConfig,
        )
        from repro.can.routing import route_on_beliefs

        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        proto = HeartbeatProtocol(
            overlay,
            ProtocolConfig(scheme=scheme or HeartbeatScheme.VANILLA),
        )
        rng = np.random.default_rng(seed)
        coords = [tuple(rng.random(space.dims) * 0.998 + 0.001) for _ in range(n)]
        proto.bootstrap(0, coords[0])
        for i in range(1, n):
            proto.join(i, coords[i], now=0.0)
        return proto

    def test_delivery_with_perfect_tables(self):
        from repro.can.routing import route_on_beliefs
        import numpy as np

        proto = self._protocol()
        rng = np.random.default_rng(9)
        for _ in range(20):
            point = tuple(rng.random(5) * 0.99)
            result = route_on_beliefs(proto, 0, point)
            assert result.delivered
            assert result.path[-1] == proto.overlay.locate_owner(point)

    def test_broken_links_cause_routing_failures(self):
        from repro.can.routing import route_on_beliefs
        import numpy as np

        proto = self._protocol(n=25)
        # tear out most believed neighbors of every node: the walk starves
        for pnode in proto.nodes.values():
            for other in sorted(pnode.table.ids())[1:]:
                pnode.table.remove(other)
        rng = np.random.default_rng(3)
        outcomes = [
            route_on_beliefs(proto, 0, tuple(rng.random(5) * 0.99)).delivered
            for _ in range(20)
        ]
        assert not all(outcomes)

    def test_result_metadata(self):
        from repro.can.routing import route_on_beliefs

        proto = self._protocol(n=10)
        point = proto.overlay.coordinate(7)
        result = route_on_beliefs(proto, 0, point)
        assert result.hops == len(result.path) - 1
        if result.delivered:
            assert result.stuck_at is None
