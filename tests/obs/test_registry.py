"""Unit tests for the hierarchical metrics registry."""

import pytest

from repro.obs import MetricsRegistry
from repro.sim.monitor import Counter, TimeSeries, TimeWeighted


class TestNaming:
    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        proto = reg.scope("protocol")
        c = proto.counter("messages")
        assert reg.get("protocol.messages") is c
        assert reg.names() == ["protocol.messages"]

    def test_nested_scopes(self):
        reg = MetricsRegistry()
        reg.scope("grid").scope("jobs").counter("lost")
        assert reg.names() == ["grid.jobs.lost"]

    def test_scope_names_filter_to_prefix(self):
        reg = MetricsRegistry()
        reg.counter("top")
        grid = reg.scope("grid")
        grid.counter("jobs")
        assert grid.names() == ["grid.jobs"]
        assert reg.names() == ["grid.jobs", "top"]

    def test_empty_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.scope("")
        with pytest.raises(ValueError):
            reg.counter("")


class TestCreation:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timeweighted("c") is reg.timeweighted("c")
        assert reg.quantile_sketch("d") is reg.quantile_sketch("d")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.timeweighted("x")
        with pytest.raises(TypeError):
            reg.quantile_sketch("x")

    def test_register_adopts_existing_monitor(self):
        reg = MetricsRegistry()
        ts = TimeSeries("broken_links")
        assert reg.register("protocol.broken_links", ts) is ts
        assert reg.get("protocol.broken_links") is ts
        # re-registering the same object is fine; another object is not
        reg.register("protocol.broken_links", ts)
        with pytest.raises(ValueError):
            reg.register("protocol.broken_links", TimeSeries("other"))

    def test_register_rejects_non_monitors(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("x", object())


class TestSnapshot:
    def test_counter_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs")
        c.add("submitted", 3)
        c.add("lost")
        snap = reg.snapshot()
        assert snap["jobs"] == {
            "kind": "counter",
            "counts": {"submitted": 3.0, "lost": 1.0},
            "total": 4.0,
        }

    def test_timeseries_snapshot(self):
        reg = MetricsRegistry()
        ts = reg.register("links", TimeSeries("links"))
        snap = reg.snapshot()
        assert snap["links"] == {"kind": "timeseries", "samples": 0}
        ts.record(0.0, 1.0)
        ts.record(10.0, 3.0)
        snap = reg.snapshot()
        assert snap["links"]["samples"] == 2
        assert snap["links"]["last_time"] == 10.0
        assert snap["links"]["last_value"] == 3.0
        assert snap["links"]["mean_value"] == pytest.approx(2.0)

    def test_timeweighted_snapshot_needs_now_for_mean(self):
        reg = MetricsRegistry()
        tw = reg.timeweighted("population")
        tw.update(0.0, 10.0)
        tw.update(10.0, 20.0)
        assert reg.snapshot()["population"]["mean"] is None
        snap = reg.snapshot(now=20.0)
        assert snap["population"]["current"] == 20.0
        assert snap["population"]["mean"] == pytest.approx(15.0)

    def test_snapshot_is_json_able(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").add("k")
        reg.register("t", TimeSeries("t")).record(1.0, 2.0)
        reg.timeweighted("w").update(1.0, 1.0)
        json.dumps(reg.snapshot(now=2.0))  # must not raise
