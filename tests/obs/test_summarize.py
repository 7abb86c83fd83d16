"""JSONL -> summarize round-trips and consistency with MessageStats."""

import numpy as np
import pytest

from repro.can.heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
)
from repro.can.messages import MessageType
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.gridsim import ChurnSimulation
from repro.gridsim.config import ChurnConfig
from repro.obs import (
    JsonlTraceWriter,
    Tracer,
    read_trace,
    render_summary,
    summarize_events,
    summarize_file,
)
from repro.obs.__main__ import main as obs_main


def traced_protocol(n=12, scheme=HeartbeatScheme.VANILLA, seed=0, sink=None):
    space = ResourceSpace(gpu_slots=0)
    overlay = CanOverlay(space)
    config = ProtocolConfig(scheme=scheme, period=60.0)
    tracer = Tracer()
    if sink is not None:
        tracer.subscribe(sink)
    proto = HeartbeatProtocol(
        overlay, config, tracer=tracer
    )
    rng = np.random.default_rng(seed)
    coords = [tuple(rng.random(space.dims) * 0.998 + 0.001) for _ in range(n)]
    proto.bootstrap(0, coords[0])
    for i in range(1, n):
        proto.join(i, coords[i], now=0.0)
    return proto, tracer


class TestConsistencyWithMessageStats:
    @pytest.mark.parametrize("scheme", list(HeartbeatScheme))
    def test_trace_totals_match_stats(self, scheme):
        """The last hb.round's ``sent`` is exactly the MessageStats ledger."""
        events = [
            {"t": 0.0, "type": "run.start", "label": "t", "scheme": scheme.value}
        ]
        proto, tracer = traced_protocol(
            scheme=scheme, sink=lambda e: events.append(e.as_dict())
        )
        t = 60.0
        for _ in range(4):
            proto.run_round(t)
            t += 60.0
        proto.fail(3, now=t)
        for _ in range(5):
            proto.run_round(t)
            t += 60.0

        summary = summarize_events(events)
        (info,) = summary.runs.values()
        for mtype in MessageType:
            assert info["messages"].get(mtype.value, 0) == proto.stats.count[mtype]
            assert info["bytes"].get(mtype.value, 0) == proto.stats.bytes[mtype]
        total_msgs, total_bytes = proto.stats.totals()
        assert sum(info["messages"].values()) == total_msgs
        assert sum(info["bytes"].values()) == total_bytes
        assert total_msgs > 0


    def test_a_warmed_up_churn_run_summarizes_to_its_window(self):
        """ChurnSimulation drops the warm-up's sends from the ledger; the
        summary, read off the last hb.round, drops them too."""
        events = []
        tracer = Tracer()
        tracer.subscribe(lambda e: events.append(e.as_dict()))
        sim = ChurnSimulation(
            ChurnConfig(
                scheme=HeartbeatScheme.ADAPTIVE,
                initial_nodes=30,
                event_gap_mean=30.0,
                duration=900.0,
            ),
            tracer=tracer,
        )
        sim.run()
        (info,) = summarize_events(events).runs.values()
        stats = sim.protocol.stats
        assert info["messages"] == {
            t.value: stats.count[t] for t in MessageType if stats.count[t]
        }
        assert info["bytes"] == {
            t.value: stats.bytes[t] for t in MessageType if stats.bytes[t]
        }
        # the window opened after round 3: round 4's totals start afresh
        sent = [e["sent"] for e in events if e["type"] == "hb.round"]
        hb = MessageType.HEARTBEAT.value
        assert sent[3][hb][0] < sent[2][hb][0]


class TestRoundTrip:
    def _write_two_runs(self, path):
        with JsonlTraceWriter(path) as writer:
            tracer = Tracer()
            tracer.subscribe(writer)
            tracer.emit(0.0, "run.start", label="x:vanilla", scheme="vanilla")
            tracer.emit(60.0, "hb.round", sent={"heartbeat_full": [3, 300]})
            tracer.emit(60.0, "mm.placed", job=1, node=2, hops=4)
            tracer.emit(0.0, "run.start", label="x:compact", scheme="compact")
            tracer.emit(60.0, "hb.round", sent={"heartbeat": [2, 80]})
            tracer.emit(
                120.0, "hb.round", sent={"heartbeat": [5, 200], "join_reply": [1, 80]}
            )
            tracer.emit(70.0, "mm.placed", job=2, node=3, hops=4)

    def test_file_round_trip_groups_runs_and_schemes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_two_runs(path)
        summary = summarize_file(path)
        assert summary.total_events == 7
        assert summary.event_counts["hb.round"] == 3
        assert summary.runs["x:vanilla"]["messages"] == {"heartbeat_full": 3}
        assert summary.runs["x:vanilla"]["bytes"] == {"heartbeat_full": 300}
        assert summary.runs["x:compact"]["messages"] == {
            "heartbeat": 5,
            "join_reply": 1,
        }
        assert summary.hop_histogram == {4: 2}
        by_scheme = summary.heartbeat_volume_by_scheme()
        assert by_scheme == {"vanilla": 300, "compact": 200}

    def test_summarize_matches_read_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_two_runs(path)
        assert (
            summarize_file(path).event_counts
            == summarize_events(read_trace(path)).event_counts
        )

    def test_unlabelled_messages_get_a_bucket(self):
        summary = summarize_events(
            [{"t": 60.0, "type": "hb.round", "sent": {"heartbeat": [1, 40]}}]
        )
        assert summary.runs["(unlabelled)"]["messages"] == {"heartbeat": 1}

    def test_render_summary_mentions_schemes_and_hops(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_two_runs(path)
        text = render_summary(summarize_file(path), path)
        assert "Events by type" in text
        assert "Heartbeat volume by scheme" in text
        assert "vanilla" in text and "compact" in text
        assert "Push-hop histogram" in text


class TestCli:
    def test_summarize_command(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        TestRoundTrip()._write_two_runs(path)
        assert obs_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "hb.round" in out
        assert "Message volume" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_corrupt_trace_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        assert obs_main(["summarize", str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert obs_main([]) == 2
        assert "summarize" in capsys.readouterr().out
