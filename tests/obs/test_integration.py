"""End-to-end: experiments -> trace + manifest -> summarize."""

import json
import os

import pytest

from repro.experiments import fig5
from repro.obs import RunRecorder, read_trace, summarize_file
from tests.experiments.test_common import tiny_sweep


@pytest.fixture
def tiny_fig5(monkeypatch):
    return tiny_sweep(monkeypatch, fig5, (75.0,), ("can-het",))


class TestFig5WithRecorder:
    def test_run_writes_consistent_trace_and_manifest(self, tmp_path, tiny_fig5):
        out = str(tmp_path)
        with RunRecorder(out, "fig5", seed=5, enabled=True) as rec:
            tiny_fig5.run(fast=True, recorder=rec)
            rec.close(
                config={"fast": True}, artifacts=["fig5_wait_time_cdf.csv"]
            )

        trace_path = os.path.join(out, "fig5_trace.jsonl")
        manifest_path = os.path.join(out, "fig5_run.manifest.json")
        assert os.path.exists(trace_path)
        assert os.path.exists(manifest_path)

        manifest = json.load(open(manifest_path))
        assert manifest["name"] == "fig5"
        assert manifest["seed"] == 5
        assert "fig5_trace.jsonl" in manifest["artifacts"]
        assert manifest["event_counts"]["run.start"] == 1
        assert manifest["event_counts"]["run.end"] == 1
        assert manifest["event_counts"].get("mm.placed", 0) > 0
        # the per-sub-run metrics snapshot landed in the manifest
        label = "fig5 arrival=75s can-het"
        assert label in manifest["metrics"]
        assert "grid.jobs" in manifest["metrics"][label]
        # config is keyed by run label, like metrics
        assert manifest["config"][label]["scheme"] == "can-het"

        # the trace round-trips and agrees with the manifest's counts
        summary = summarize_file(trace_path)
        assert summary.event_counts == manifest["event_counts"]
        assert summary.total_events == manifest["total_events"]
        assert summary.runs[label]["scheme"] == "can-het"
        assert sum(summary.hop_histogram.values()) == summary.event_counts[
            "mm.placed"
        ]

    def test_no_trace_mode_writes_nothing(self, tmp_path, tiny_fig5):
        out = str(tmp_path)
        with RunRecorder(out, "fig5", seed=None, enabled=False) as rec:
            tiny_fig5.run(fast=True, recorder=rec)
            rec.close()
        assert not os.path.exists(os.path.join(out, "fig5_trace.jsonl"))
        assert not os.path.exists(os.path.join(out, "fig5_run.manifest.json"))

    def test_trace_times_are_simulated(self, tmp_path, tiny_fig5):
        """Trace events carry simulated clocks only (determinism guard)."""
        out = str(tmp_path)
        with RunRecorder(out, "fig5", seed=None, enabled=True) as rec:
            tiny_fig5.run(fast=True, recorder=rec)
            rec.close()
        for ev in read_trace(os.path.join(out, "fig5_trace.jsonl")):
            assert ev["t"] < 1e9  # no wall-clock epochs snuck in
