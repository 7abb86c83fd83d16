"""Trace export, run recording, determinism, and zero-overhead guards."""

import gzip
import json
import os
import shutil

import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import ChurnConfig, ChurnSimulation
from repro.obs import JsonlTraceWriter, RunRecorder, Tracer, read_trace
from repro.obs import events as events_mod


def tiny_churn_config(**overrides):
    """A fig7-shaped run small enough for the test suite."""
    kwargs = dict(
        initial_nodes=16,
        gpu_slots=0,
        scheme=HeartbeatScheme.ADAPTIVE,
        heartbeat_period=60.0,
        event_gap_mean=40.0,
        leave_mode="fail",
        duration=900.0,
        seed=7,
    )
    kwargs.update(overrides)
    return ChurnConfig(**kwargs)


class TestJsonlTraceWriter:
    def test_writes_canonical_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceWriter(path) as writer:
            tracer = Tracer()
            tracer.subscribe(writer)
            tracer.emit(1.5, "msg.sent", mtype="heartbeat", bytes=40, copies=2)
        event_line = (
            '{"bytes":40,"copies":2,"mtype":"heartbeat","t":1.5,"type":"msg.sent"}\n'
        )
        assert open(path).read() == (
            '{"schema_version":"1.0","type":"trace.header"}\n' + event_line
        )
        # the header is consumed, not yielded
        assert list(read_trace(path)) == [json.loads(event_line)]

    def test_read_trace_accepts_headerless_legacy_files(self, tmp_path):
        path = str(tmp_path / "legacy.jsonl")
        with open(path, "w") as fh:
            fh.write('{"t":0.0,"type":"x"}\n')
        assert list(read_trace(path)) == [{"t": 0.0, "type": "x"}]

    def test_read_trace_rejects_future_major_version(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w") as fh:
            fh.write('{"schema_version":"2.0","type":"trace.header"}\n')
            fh.write('{"t":0.0,"type":"x"}\n')
        with pytest.raises(ValueError, match="schema version"):
            list(read_trace(path))

    def test_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "t.jsonl")
        JsonlTraceWriter(path).close()
        assert os.path.exists(path)

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlTraceWriter(str(tmp_path / "t.jsonl"))
        writer.close()
        with pytest.raises(ValueError):
            writer(events_mod.TraceEvent(0.0, "x.y", {}))

    def test_flush_and_close_are_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = JsonlTraceWriter(path)
        writer.flush()
        writer.close()
        writer.close()
        writer.flush()
        assert list(read_trace(path)) == []


class TestGzipTraces:
    def test_gzip_round_trip_matches_plain(self, tmp_path):
        """A trace compressed with gzip reads back the same events."""
        plain = str(tmp_path / "run.jsonl")
        with JsonlTraceWriter(plain) as writer:
            tracer = Tracer()
            tracer.subscribe(writer)
            ChurnSimulation(tiny_churn_config(), tracer=tracer).run()
        packed = plain + ".gz"
        with open(plain, "rb") as src, gzip.open(packed, "wb") as dst:
            shutil.copyfileobj(src, dst)
        events = list(read_trace(plain))
        assert len(events) > 0
        assert list(read_trace(packed)) == events


class TestRunRecorder:
    def test_disabled_recorder_is_inert(self, tmp_path):
        rec = RunRecorder(str(tmp_path), "exp", seed=None, enabled=False)
        assert rec.tracer is None
        rec.run_start("a")
        rec.run_end("a", t=0.0)
        assert rec.close(config={"fast": True}) is None
        assert list(tmp_path.iterdir()) == []

    def test_close_writes_trace_and_manifest(self, tmp_path):
        rec = RunRecorder(str(tmp_path), "exp", seed=3, enabled=True)
        rec.run_start("exp:one", scheme="vanilla")
        rec.tracer.emit(5.0, "msg.sent", mtype="heartbeat", bytes=40, copies=1)
        rec.run_end("exp:one", t=5.0)
        manifest_path = rec.close(
            config={"fast": True}, artifacts=["exp.csv"]
        )
        assert manifest_path == str(tmp_path / "exp_run.manifest.json")
        manifest = json.load(open(manifest_path))
        assert manifest["name"] == "exp"
        assert manifest["seed"] == 3
        assert manifest["config"] == {"fast": True}
        assert manifest["event_counts"] == {
            "msg.sent": 1,
            "run.end": 1,
            "run.start": 1,
        }
        assert manifest["total_events"] == 3
        assert manifest["wall_seconds"] >= 0.0
        assert manifest["artifacts"] == ["exp.csv", "exp_trace.jsonl"]
        events = list(read_trace(str(tmp_path / "exp_trace.jsonl")))
        assert [e["type"] for e in events] == ["run.start", "msg.sent", "run.end"]

    def test_context_manager_closes_once(self, tmp_path):
        with RunRecorder(str(tmp_path), "exp", seed=None, enabled=True) as rec:
            rec.run_start("exp")
            rec.close(config={"explicit": True})
        manifest = json.load(open(str(tmp_path / "exp_run.manifest.json")))
        # __exit__ must not clobber the explicit close
        assert manifest["config"] == {"explicit": True}

    def test_context_manager_closes_implicitly(self, tmp_path):
        with RunRecorder(str(tmp_path), "exp", seed=None, enabled=True) as rec:
            rec.run_start("exp")
        assert os.path.exists(str(tmp_path / "exp_run.manifest.json"))


class TestDeterminism:
    def test_same_seed_byte_identical_trace(self, tmp_path):
        """A seeded fig7-style run emits a byte-identical event stream."""
        blobs = []
        for attempt in ("a", "b"):
            path = str(tmp_path / f"run_{attempt}.jsonl")
            with JsonlTraceWriter(path) as writer:
                tracer = Tracer()
                tracer.subscribe(writer)
                ChurnSimulation(tiny_churn_config(), tracer=tracer).run()
            blobs.append(open(path, "rb").read())
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) > 0

    def test_different_seed_different_trace(self, tmp_path):
        blobs = []
        for seed in (7, 8):
            path = str(tmp_path / f"seed_{seed}.jsonl")
            with JsonlTraceWriter(path) as writer:
                tracer = Tracer()
                tracer.subscribe(writer)
                ChurnSimulation(
                    tiny_churn_config(seed=seed), tracer=tracer
                ).run()
            blobs.append(open(path, "rb").read())
        assert blobs[0] != blobs[1]


class TestZeroOverheadWhenDisabled:
    def test_untraced_run_allocates_no_events(self, monkeypatch):
        """With no tracer attached, no TraceEvent may ever be constructed."""

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("TraceEvent allocated with tracing disabled")

        monkeypatch.setattr(events_mod.TraceEvent, "__init__", boom)
        monkeypatch.setattr(events_mod.Tracer, "emit", boom)
        res = ChurnSimulation(tiny_churn_config(duration=400.0)).run()
        assert res.final_population > 0
