"""Unit tests for experiment-harness plumbing and public API surface."""

import json
import os
from dataclasses import replace

from repro.can.heartbeat import HeartbeatScheme
from repro.experiments import fig5, fig6, wait_cdf
from repro.experiments.common import (
    SCHEMES,
    WAIT_GRID,
    experiment_argparser,
    results_path,
    simulate,
    timed,
)
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    GridSimulation,
    MatchmakingConfig,
)
from repro.obs import RunRecorder, read_trace
from repro.workload import TINY_LOAD


class TestCommon:
    def test_argparser_flags(self):
        parser = experiment_argparser("desc")
        args = parser.parse_args(["--fast", "--out", "o", "--seed", "7"])
        assert args.fast and args.out == "o" and args.seed == 7
        defaults = parser.parse_args([])
        assert not defaults.fast and defaults.out == "results"
        assert defaults.seed is None

    def test_results_path_creates_dir(self, tmp_path):
        p = results_path(str(tmp_path / "sub"), "x.csv")
        assert os.path.isdir(tmp_path / "sub")
        assert p.endswith("x.csv")

    def test_timed_passes_through(self, capsys):
        assert timed("label", lambda a, b: a + b, 1, 2) == 3

    def test_wait_grid_matches_paper_axis(self):
        assert WAIT_GRID[0] == 0.0
        assert WAIT_GRID[-1] == 50_000.0  # Figures 5/6 x-axis limit
        assert list(WAIT_GRID) == sorted(WAIT_GRID)

    def test_schemes(self):
        assert SCHEMES == ("can-het", "can-hom", "central")


def tiny_sweep(monkeypatch, sweep, values, schemes=SCHEMES):
    """``sweep`` on ``TINY_LOAD`` at axis ``values`` for ``schemes``; run it
    with ``fast=True``."""
    monkeypatch.setattr(wait_cdf, "SMALL_LOAD", TINY_LOAD)
    monkeypatch.setattr(wait_cdf, "SCHEMES", schemes)
    return replace(sweep, fast_values=values)


def _events(out, name, etype):
    path = os.path.join(out, f"{name}_trace.jsonl")
    return [e for e in read_trace(path) if e["type"] == etype]


class TestSimulate:
    """The one run bracket every experiment's simulations go through."""

    def test_brackets_the_run_and_files_it_under_its_label(self, tmp_path):
        out = str(tmp_path)
        cfg = MatchmakingConfig(TINY_LOAD, scheme="can-het")
        with RunRecorder(out, "exp", seed=None, enabled=True) as rec:
            sim, result = simulate(
                rec, "exp:one", GridSimulation, cfg, scheme="can-het", k=1
            )
            rec.close()
        assert result.jobs_submitted == TINY_LOAD.jobs
        events = list(read_trace(os.path.join(out, "exp_trace.jsonl")))
        assert events[0] == {
            "type": "run.start", "t": 0.0, "label": "exp:one",
            "scheme": "can-het", "k": 1,
        }
        assert events[-1] == {"type": "run.end", "t": sim.env.now,
                              "label": "exp:one"}
        manifest = json.load(open(os.path.join(out, "exp_run.manifest.json")))
        assert "grid.jobs" in manifest["metrics"]["exp:one"]
        assert manifest["config"]["exp:one"]["scheme"] == "can-het"
        assert "heartbeat_class" not in manifest["config"]["exp:one"]

    def test_churn_config_names_the_built_class(self, tmp_path):
        cfg = ChurnConfig(initial_nodes=12, gpu_slots=0, duration=300.0)
        with RunRecorder(str(tmp_path), "exp", seed=None, enabled=True) as rec:
            sim, _ = simulate(rec, "churn", ChurnSimulation, cfg)
        entry = rec.manifest.config["churn"]
        assert entry["heartbeat_class"] == type(sim.protocol).__name__
        assert entry["initial_nodes"] == 12

    def test_without_a_recorder_only_runs(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_QUIET", raising=False)
        cfg = MatchmakingConfig(TINY_LOAD, scheme="central")
        sim, result = simulate(None, "bare", GridSimulation, cfg, scheme="x")
        assert sim.tracer is None
        assert result.jobs_submitted == TINY_LOAD.jobs
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "[bare] running ..."
        assert err[1].startswith("[bare] done in ")


class TestWaitCdfSweeps:
    """Figures 5 and 6 are one sweep; each keeps its own trace fields."""

    def test_tiny_runs_emit_their_axis_in_run_start(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wait_cdf, "SMALL_LOAD", TINY_LOAD)
        out = str(tmp_path)
        for sweep in (fig5, fig6):
            with RunRecorder(out, sweep.name, seed=None, enabled=True) as rec:
                sweep.run(fast=True, recorder=rec)
        starts = {
            sweep.name: [
                (e["label"], e["scheme"], e[sweep.field])
                for e in _events(out, sweep.name, "run.start")
            ]
            for sweep in (fig5, fig6)
        }
        assert starts["fig5"] == [
            (f"fig5 arrival={gap}s {scheme}", scheme, float(gap))
            for gap in (10, 15, 20)
            for scheme in SCHEMES
        ]
        assert starts["fig6"] == [
            (f"fig6 ratio={int(ratio * 100)}% {scheme}", scheme, ratio)
            for ratio in (0.8, 0.6, 0.4)
            for scheme in SCHEMES
        ]
        for sweep, field in ((fig5, "interarrival"), (fig6, "constraint_ratio")):
            assert all(
                set(e) == {"type", "t", "label", "scheme", field}
                for e in _events(out, sweep.name, "run.start")
            )

    def test_tables_follow_each_sweeps_order(self, tmp_path, monkeypatch):
        sweep = tiny_sweep(monkeypatch, fig6, (0.4, 0.8), ("can-het",))
        results = sweep.run(fast=True)
        text = fig6.report(results, str(tmp_path))
        assert text.index("constraint ratio 80%") < text.index(
            "constraint ratio 40%"
        )
        rows = open(tmp_path / fig6.csv_name).read().splitlines()
        assert rows[0].startswith("constraint_ratio,")
        assert rows[1].startswith("0.8,")


class TestChurnDetectionLatencies:
    """ChurnResult.detection_latencies: one sample per detected crash, the
    values a hook reading the protocol's crash ledger collects."""

    def test_equals_a_hook_over_the_crash_ledger(self):
        for substrate in ("can", "chord"):
            cfg = ChurnConfig(
                initial_nodes=30,
                gpu_slots=0,
                scheme=HeartbeatScheme.ADAPTIVE,
                event_gap_mean=30.0,
                leave_mode="fail",
                duration=1_800.0,
                seed=11,
                substrate=substrate,
            )
            sim = ChurnSimulation(cfg)
            protocol = sim.protocol
            own = protocol.on_failure_detected
            expected = []

            def on_detected(node_id, now):
                fail_time = protocol._fail_times.get(node_id)
                if fail_time is not None:
                    expected.append(now - fail_time)
                own(node_id, now)

            protocol.on_failure_detected = on_detected
            result = sim.run()
            assert result.events["failures"] > 0, substrate
            assert len(expected) > 0, substrate
            assert result.detection_latencies.tolist() == expected, substrate

    def test_no_crash_no_sample(self):
        cfg = ChurnConfig(
            initial_nodes=12, gpu_slots=0, duration=600.0, leave_mode="graceful"
        )
        latencies = ChurnSimulation(cfg).run().detection_latencies
        assert latencies.size == 0


class TestPublicApi:
    def test_top_level_namespaces(self):
        import repro

        for name in repro.__all__:
            if name != "__version__":
                assert getattr(repro, name) is not None

    def test_all_exports_resolve(self):
        import repro.analysis as analysis
        import repro.can as can
        import repro.gridsim as gridsim
        import repro.model as model
        import repro.sched as sched
        import repro.sim as sim
        import repro.workload as workload

        for module in (analysis, can, gridsim, model, sched, sim, workload):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
