"""Causal span reconstruction: hand-built streams, live sims, CLI."""

import pytest

from repro.gridsim import (
    FaultyGridConfig,
    FaultyGridSimulation,
    MatchmakingConfig,
)
from repro.obs import Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.spans import (
    SpanBuilder,
    build_spans,
    build_spans_from_file,
    critical_path_summary,
    render_critical_path,
    render_spans,
)
from repro.obs.trace import JsonlTraceWriter
from repro.workload import TINY_LOAD

HAPPY_PATH = [
    {"t": 0.0, "type": "grid.job_submit", "job": 1},
    {"t": 0.0, "type": "mm.push", "job": 1, "frm": 0, "to": 2, "dim": 3, "hop": 0},
    {"t": 0.0, "type": "mm.push", "job": 1, "frm": 2, "to": 5, "dim": 1, "hop": 1},
    {"t": 0.0, "type": "mm.placed", "job": 1, "node": 5, "hops": 2},
    {"t": 8.0, "type": "grid.job_start", "job": 1, "node": 5},
    {"t": 30.0, "type": "grid.job_finish", "job": 1, "node": 5},
]

RECOVERY_PATH = [
    {"t": 0.0, "type": "grid.job_submit", "job": 7},
    {"t": 0.0, "type": "mm.placed", "job": 7, "node": 2, "hops": 0},
    {"t": 5.0, "type": "grid.job_start", "job": 7, "node": 2},
    {"t": 40.0, "type": "grid.job_lost", "job": 7, "node": 2},
    {"t": 160.0, "type": "recovery.detected", "node": 2, "latency": 120.0, "jobs": 1},
    {"t": 160.0, "type": "mm.push", "job": 7, "frm": 1, "to": 3, "dim": 0},
    {"t": 160.0, "type": "mm.unplaced", "job": 7, "hops": 1},
    # real emission order: place() succeeds (mm.placed) before the
    # grid.job_resubmit bookkeeping event fires
    {"t": 161.0, "type": "mm.placed", "job": 7, "node": 9, "hops": 0},
    {"t": 161.0, "type": "grid.job_resubmit", "job": 7, "attempt": 1},
    {"t": 170.0, "type": "grid.job_start", "job": 7, "node": 9},
    {"t": 200.0, "type": "grid.job_finish", "job": 7, "node": 9},
]


class TestHandBuiltStreams:
    def test_happy_path_tree(self):
        b = build_spans(HAPPY_PATH)
        assert b.validate() == []
        root = b.root(1)
        assert root.status == "completed"
        assert root.start == 0.0 and root.end == 30.0
        kinds = [s.kind for s in b.critical_path(1)]
        assert kinds == ["matchmake", "queue", "run"]
        mm = b.critical_path(1)[0]
        pushes = b.children(mm)
        assert [p.kind for p in pushes] == ["push", "push"]
        assert pushes[0].attrs["hop"] == 0 and pushes[1].attrs["hop"] == 1
        assert mm.attrs["node"] == 5 and mm.status == "placed"

    def test_recovery_branch_tree(self):
        b = build_spans(RECOVERY_PATH)
        assert b.validate() == []
        kinds = [s.kind for s in b.critical_path(7)]
        assert kinds == [
            "matchmake", "queue", "run", "crash", "detect", "retry",
            "queue", "run",
        ]
        detect = next(s for s in b.spans if s.kind == "detect")
        assert detect.duration == pytest.approx(120.0)
        assert detect.attrs["latency"] == 120.0
        # both matchmake attempts after detection hang off the retry span
        # (failed then successful)
        retry = next(s for s in b.spans if s.kind == "retry")
        child_kinds = sorted(s.kind for s in b.children(retry))
        assert child_kinds == ["matchmake", "matchmake"]
        run_spans = [s for s in b.spans if s.kind == "run"]
        assert [s.status for s in run_spans] == ["lost", "ok"]

    def test_deterministic_span_ids(self):
        a = build_spans(RECOVERY_PATH)
        b = build_spans(RECOVERY_PATH)
        assert [s.span_id for s in a.spans] == [s.span_id for s in b.spans]
        assert [s.as_dict() for s in a.spans] == [s.as_dict() for s in b.spans]

    def test_unplaced_terminal(self):
        b = build_spans([
            {"t": 0.0, "type": "grid.job_submit", "job": 3},
            {"t": 0.0, "type": "mm.push", "job": 3, "frm": 0, "to": 1, "dim": 0},
            {"t": 0.0, "type": "mm.unplaced", "job": 3, "hops": 1},
            {"t": 0.0, "type": "grid.job_unplaced", "job": 3},
        ])
        assert b.validate() == []
        assert b.root(3).status == "unplaced"

    def test_abandoned_terminal_closes_open_spans(self):
        b = build_spans([
            {"t": 0.0, "type": "grid.job_submit", "job": 4},
            {"t": 0.0, "type": "mm.placed", "job": 4, "node": 1, "hops": 0},
            {"t": 2.0, "type": "grid.job_lost", "job": 4, "node": 1},
            {"t": 50.0, "type": "recovery.detected", "node": 1, "latency": 48.0, "jobs": 1},
            {"t": 50.0, "type": "grid.job_abandoned", "job": 4, "attempts": 3},
        ])
        assert b.validate() == []
        assert b.root(4).status == "abandoned"

    def test_two_crashes_keep_their_own_detection(self):
        """Two jobs lost on two nodes whose crashes are detected at
        different times: each job's detect span must close on *its* node's
        detection, not on the first detection of anything."""
        b = build_spans([
            {"t": 0.0, "type": "grid.job_submit", "job": 1},
            {"t": 0.0, "type": "mm.placed", "job": 1, "node": 7, "hops": 0},
            {"t": 0.0, "type": "grid.job_submit", "job": 2},
            {"t": 0.0, "type": "mm.placed", "job": 2, "node": 9, "hops": 0},
            {"t": 10.0, "type": "grid.crash", "node": 7, "jobs_lost": 1},
            {"t": 10.0, "type": "grid.job_lost", "job": 1, "node": 7},
            {"t": 20.0, "type": "grid.crash", "node": 9, "jobs_lost": 1},
            {"t": 20.0, "type": "grid.job_lost", "job": 2, "node": 9},
            {"t": 100.0, "type": "recovery.detected", "node": 7, "latency": 90.0, "jobs": 1},
            {"t": 100.0, "type": "grid.job_resubmit", "job": 1, "attempt": 1},
            {"t": 400.0, "type": "recovery.detected", "node": 9, "latency": 380.0, "jobs": 1},
            {"t": 400.0, "type": "grid.job_resubmit", "job": 2, "attempt": 1},
        ])
        by_job = {
            job: {s.kind: s for s in b.spans if s.job == job} for job in (1, 2)
        }
        for job, node, detected_at, latency in ((1, 7, 100.0, 90.0), (2, 9, 400.0, 380.0)):
            spans = by_job[job]
            assert [s.kind for s in b.spans if s.job == job].count("crash") == 1
            assert spans["crash"].attrs == {"node": node}
            assert spans["detect"].end == detected_at
            assert spans["detect"].attrs == {"node": node, "latency": latency}
            assert spans["detect"].status == "detected"
            assert spans["retry"].start == detected_at
            assert spans["retry"].attrs["node"] == node

    def test_incomplete_trace_reports_problems(self):
        b = build_spans(HAPPY_PATH[:-1])  # no finish
        problems = b.validate()
        assert any("no terminal status" in p for p in problems)

    def test_implicit_root_for_unknown_job(self):
        b = build_spans([
            {"t": 5.0, "type": "mm.placed", "job": 9, "node": 1, "hops": 0},
            {"t": 9.0, "type": "grid.job_start", "job": 9, "node": 1},
            {"t": 12.0, "type": "grid.job_finish", "job": 9, "node": 1},
        ])
        assert b.validate() == []
        assert b.root(9).attrs.get("implicit_root") is True


def _recovery_sim(tracer=None):
    return FaultyGridSimulation(
        FaultyGridConfig(
            MatchmakingConfig(TINY_LOAD),
            mean_time_between_failures=400.0,
            mean_time_between_joins=600.0,
        ),
        tracer=tracer,
    )


class TestSeededRecoveryRun:
    @pytest.fixture(scope="class")
    def recovery(self, tmp_path_factory):
        """One seeded churny run: a live SpanBuilder + the written trace."""
        path = str(tmp_path_factory.mktemp("spans") / "recovery_trace.jsonl")
        tracer = Tracer()
        online = SpanBuilder()
        tracer.subscribe(online)
        writer = JsonlTraceWriter(path)
        tracer.subscribe(writer)
        sim = _recovery_sim(tracer)
        res = sim.run()
        online.finish(sim.env.now)
        writer.close()
        return sim, res, online, path

    def test_every_job_has_a_complete_tree(self, recovery):
        sim, res, online, path = recovery
        assert res.jobs_lost > 0  # the scenario actually exercised recovery
        assert online.validate() == []
        assert len(online.jobs()) == res.base.jobs_submitted
        statuses = {online.root(j).status for j in online.jobs()}
        assert statuses <= {"completed", "unplaced", "abandoned"}

    def test_critical_path_reports_detection_segment(self, recovery):
        sim, res, online, path = recovery
        rows = {kind: (n, total) for kind, n, total, _, _ in (
            (r[0], r[1], r[2], r[3], r[4]) for r in critical_path_summary(online)
        )}
        assert "detect" in rows
        detections, total_latency = rows["detect"]
        assert detections > 0
        # span-derived detection time agrees with the tracker's ledger
        ledger_total = float(res.detection_latencies.sum()) if (
            res.detection_latencies.size
        ) else 0.0
        # spans count per *job*, the ledger per *node* — totals differ, but
        # both must be positive and the mean per-detection latency sane
        assert total_latency > 0 and ledger_total > 0

    def test_online_equals_offline(self, recovery):
        sim, res, online, path = recovery
        offline = build_spans_from_file(path)
        assert [s.as_dict() for s in online.spans] == [
            s.as_dict() for s in offline.spans
        ]

    def test_children_index_equals_a_scan_of_every_span(self, recovery):
        sim, res, online, path = recovery
        assert len(online.jobs()) > 1
        for span in online.spans:
            scan = [s for s in online.spans if s.parent_id == span.span_id]
            assert online.children(span) == scan
        # a copy: the critical path sorts what children() returns
        root = online.root(online.jobs()[0])
        online.children(root).reverse()
        assert online.children(root) == [
            s for s in online.spans if s.parent_id == root.span_id
        ]

    def test_renderers_cover_run(self, recovery):
        sim, res, online, path = recovery
        summary = render_spans(online, job=None)
        assert "jobs" in summary and "detect" in summary
        job = online.jobs()[0]
        tree = render_spans(online, job=job)
        assert "job" in tree
        agg = render_critical_path(online, job=None)
        assert "segment" in agg and "run" in agg
        one = render_critical_path(online, job=job)
        assert f"job {job}" in one


class TestCli:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "t_trace.jsonl")
        tracer = Tracer()
        writer = JsonlTraceWriter(path)
        tracer.subscribe(writer)
        sim = _recovery_sim(tracer)
        sim.run()
        writer.close()
        return path

    def test_spans_subcommand(self, trace_path, capsys):
        assert obs_main(["spans", trace_path]) == 0
        out = capsys.readouterr().out
        assert "jobs" in out

    def test_spans_validate(self, trace_path, capsys):
        assert obs_main(["spans", trace_path, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_spans_single_job(self, trace_path, capsys):
        assert obs_main(["spans", trace_path, "--job", "0"]) == 0

    def test_critical_path_subcommand(self, trace_path, capsys):
        assert obs_main(["critical-path", trace_path]) == 0
        out = capsys.readouterr().out
        assert "segment" in out and "detect" in out

    def test_missing_file_errors(self, capsys):
        assert obs_main(["spans", "/nonexistent/x.jsonl"]) == 1

    def test_gzip_trace_reads(self, trace_path, tmp_path, capsys):
        import gzip as gz
        import shutil

        gz_path = str(tmp_path / "t_trace.jsonl.gz")
        with open(trace_path, "rb") as src, gz.open(gz_path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        assert obs_main(["critical-path", gz_path]) == 0
