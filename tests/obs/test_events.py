"""Unit tests for the event bus, tracer, and event records."""

import pytest

from repro.obs import EV, EventBus, TraceEvent, Tracer


class TestTraceEvent:
    def test_as_dict_merges_fields_after_header(self):
        ev = TraceEvent(12.5, "msg.sent", {"mtype": "heartbeat", "bytes": 40})
        assert ev.as_dict() == {
            "t": 12.5,
            "type": "msg.sent",
            "mtype": "heartbeat",
            "bytes": 40,
        }

    def test_slots_prevent_ad_hoc_attributes(self):
        ev = TraceEvent(0.0, "run.start", {})
        with pytest.raises(AttributeError):
            ev.extra = 1


class TestEventBus:
    def test_publish_fans_out_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.etype)))
        bus.subscribe(lambda e: seen.append(("b", e.etype)))
        bus.publish(TraceEvent(1.0, "can.join", {"node": 3}))
        assert seen == [("a", "can.join"), ("b", "can.join")]


class TestTracer:
    def test_emit_counts_by_type_and_publishes(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(1.0, EV.CAN_JOIN, node=1)
        tracer.emit(2.0, EV.CAN_JOIN, node=2)
        tracer.emit(3.0, EV.CAN_FAIL, node=1)
        assert tracer.counts == {"can.join": 2, "can.fail": 1}
        assert tracer.total_events() == 3
        assert [e.t for e in seen] == [1.0, 2.0, 3.0]
        assert seen[0].fields == {"node": 1}

    def test_default_bus_is_private(self):
        a, b = Tracer(), Tracer()
        assert a.bus is not b.bus

    def test_taxonomy_names_are_dotted_and_unique(self):
        names = [
            v
            for k, v in vars(EV).items()
            if not k.startswith("_") and isinstance(v, str)
        ]
        assert len(names) == len(set(names))
        assert all("." in n for n in names)
