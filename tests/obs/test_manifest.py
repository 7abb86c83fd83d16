"""Run-manifest schema, git describe fallback, and atomic writing."""

import json

from repro.obs import RunManifest, git_describe


class TestGitDescribe:
    def test_in_repo_returns_something(self):
        assert git_describe() != ""

    def test_outside_repo_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert git_describe() == "unknown"


class TestRunManifest:
    def test_schema_fields_present(self, tmp_path):
        m = RunManifest(name="fig7", seed=1, config={"fast": True})
        path = str(tmp_path / "m.json")
        assert m.write(path) == path
        data = json.load(open(path))
        for key in (
            "name",
            "config",
            "seed",
            "git_describe",
            "python",
            "started_at",
            "wall_seconds",
            "event_counts",
            "total_events",
            "metrics",
            "artifacts",
        ):
            assert key in data, key
        assert data["name"] == "fig7"
        assert data["seed"] == 1
        assert data["config"] == {"fast": True}

    def test_total_events_derives_from_counts(self):
        m = RunManifest(name="x")
        m.event_counts = {"a": 2, "b": 3}
        assert m.total_events == 5
        assert m.as_dict()["total_events"] == 5

    def test_finish_is_idempotent(self):
        m = RunManifest(name="x")
        m.finish()
        first = m.wall_seconds
        m.finish()
        assert m.wall_seconds == first

    def test_write_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "m.json")
        RunManifest(name="x").write(path)
        assert json.load(open(path))["name"] == "x"
