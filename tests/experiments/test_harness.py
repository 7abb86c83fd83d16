"""Integration tests for the figure-regeneration harness (tiny configs)."""

import os
from dataclasses import replace

import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.experiments import ablations, fig5, fig6, fig7, fig8, recovery
from repro.experiments.__main__ import main as cli_main
from repro.gridsim import ChurnSimulation
from repro.workload import TINY_LOAD
from tests.experiments.test_common import tiny_sweep


@pytest.fixture(scope="module")
def fig5_results():
    with pytest.MonkeyPatch.context() as monkeypatch:
        sweep = tiny_sweep(monkeypatch, fig5, (75.0,), ("can-het", "central"))
        return sweep.run(fast=True)


@pytest.fixture
def tiny_ablations(monkeypatch):
    """Ablation runs on ``TINY_LOAD``, in both modes."""
    monkeypatch.setattr(ablations, "PAPER_LOAD", TINY_LOAD)
    monkeypatch.setattr(ablations, "SMALL_LOAD", TINY_LOAD)


class TestFig5:
    def test_structure(self, fig5_results):
        assert set(fig5_results) == {75.0}
        assert set(fig5_results[75.0]) == {"can-het", "central"}

    def test_report_and_csv(self, fig5_results, tmp_path):
        text = fig5.report(fig5_results, str(tmp_path))
        assert "Figure 5" in text
        assert "can-het" in text and "central" in text
        assert os.path.exists(tmp_path / "fig5_wait_time_cdf.csv")


class TestFig6:
    def test_run_and_report(self, tmp_path, monkeypatch):
        results = tiny_sweep(monkeypatch, fig6, (0.4,), ("can-het",)).run(fast=True)
        text = fig6.report(results, str(tmp_path))
        assert "constraint ratio 40%" in text
        assert os.path.exists(tmp_path / "fig6_wait_time_cdf.csv")


class TestFig7:
    def test_config_shapes(self):
        cfg = fig7.fig7_config(
            HeartbeatScheme.VANILLA, fast=True, seed=None, substrate="can"
        )
        assert cfg.dims == 11
        assert cfg.event_gap_mean < cfg.heartbeat_period  # high churn
        full = fig7.fig7_config(
            HeartbeatScheme.COMPACT, fast=False, seed=None, substrate="can"
        )
        assert full.initial_nodes >= 250
        assert full.duration >= 15_000

    def test_report(self, tmp_path):
        results = {}
        for scheme in HeartbeatScheme:
            cfg = fig7.fig7_config(scheme, fast=True, seed=1, substrate="can")
            cfg = replace(cfg, initial_nodes=30, duration=1200.0)
            results[scheme.value] = ChurnSimulation(cfg).run()
        text = fig7.report(results, str(tmp_path))
        assert "Figure 7" in text and "vanilla" in text
        assert os.path.exists(tmp_path / "fig7_broken_links.csv")


class TestFig8:
    def test_run_and_report(self, tmp_path):
        results = fig8.run(fast=True, node_sweep=(25,), gpu_slot_sweep=(0, 1))
        assert len(results) == 2 * 3  # dims x schemes
        dims = {key[2] for key in results}
        assert dims == {5, 8}
        text = fig8.report(results, str(tmp_path))
        assert "Figure 8(a)" in text and "Figure 8(b)" in text
        assert os.path.exists(tmp_path / "fig8_scalability.csv")

    def test_manifest_names_the_class_the_factory_built(self, tmp_path):
        from repro.obs import RunRecorder

        for substrate, want in (
            ("can", "ArrayHeartbeatProtocol"),  # ideal channel, every scheme
            ("chord", "ChordMaintenanceProtocol"),
        ):
            with RunRecorder(
                str(tmp_path / substrate), "fig8", seed=None, enabled=True
            ) as recorder:
                fig8.run(
                    fast=True, node_sweep=(12,), gpu_slot_sweep=(0,),
                    recorder=recorder, substrate=substrate,
                )
            configs = recorder.manifest.config
            assert len(configs) == 3
            assert {c["heartbeat_class"] for c in configs.values()} == {want}
            assert all(c["initial_nodes"] == 12 for c in configs.values())

    def test_fig8_config_slow_churn(self):
        cfg = fig8.fig8_config(
            HeartbeatScheme.VANILLA, 500, 2, fast=False, seed=None, substrate="can"
        )
        assert cfg.event_gap_mean > cfg.heartbeat_period


class TestAblations:
    def test_single_ablation(self, tmp_path, tiny_ablations):
        results = ablations.run(ablations=("baseline", "acceptable-node"))
        text = ablations.report(results, str(tmp_path))
        assert "acceptable-node" in text
        assert os.path.exists(tmp_path / "ablations.csv")

    def test_substrate_reaches_the_runs(self, tmp_path, tiny_ablations):
        results = ablations.run(ablations=("dominant-ce",), substrate="chord")
        assert [r.substrate for r in results["dominant-ce"]] == ["chord"]

    def test_cli_substrate_is_not_ignored(self, tmp_path, monkeypatch, tiny_ablations):
        seen = []
        real_run = ablations.run

        def spy(**kwargs):
            seen.append(kwargs["substrate"])
            return real_run(**kwargs)

        monkeypatch.setattr(ablations, "run", spy)
        assert ablations.main([
            "--fast", "--ablation", "baseline", "--substrate", "chord",
            "--no-trace", "--out", str(tmp_path),
        ]) == 0
        assert seen == ["chord"]

    def test_unknown_ablation_rejected(self, tiny_ablations):
        with pytest.raises(ValueError):
            ablations.run(ablations=("nonsense",))


class TestRecovery:
    def test_config_shapes(self):
        fast = recovery.recovery_config(
            HeartbeatScheme.VANILLA, fast=True, seed=None, substrate="can"
        )
        assert fast.faults.network.loss == recovery.MESSAGE_LOSS
        full = recovery.recovery_config(
            HeartbeatScheme.COMPACT, fast=False, seed=None, substrate="can"
        )
        assert full.matchmaking.preset.jobs > fast.matchmaking.preset.jobs
        assert full.heartbeat_scheme is HeartbeatScheme.COMPACT

    def test_run_and_report(self, tmp_path):
        results = recovery.run(fast=True)
        assert set(results) == {s.value for s in HeartbeatScheme}
        for res in results.values():
            assert res.detection_latencies.size > 0
        text = recovery.report(results, str(tmp_path))
        assert "detection" in text or "detect" in text
        assert os.path.exists(tmp_path / "recovery_latencies.csv")


class TestCli:
    def test_help(self, capsys):
        assert cli_main([]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert cli_main(["nope"]) == 2
