"""The harness's progress lines: format, REPRO_QUIET, read per line.

``repro.experiments.common.timed`` writes ``[label] running ...`` before
and ``[label] done in X.Xs`` after the call it wraps, on stderr.
"""

from repro.experiments.common import timed


def _lines(capsys):
    return capsys.readouterr().err.splitlines()


class TestQuietFromEnv:
    def test_unset_uses_default(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_QUIET", raising=False)
        timed("x", lambda: None)
        assert len(_lines(capsys)) == 2

    def test_truthy_values(self, monkeypatch, capsys):
        for raw in ("1", "yes", "true", "anything"):
            monkeypatch.setenv("REPRO_QUIET", raw)
            timed("x", lambda: None)
            assert _lines(capsys) == [], raw

    def test_falsy_values(self, monkeypatch, capsys):
        for raw in ("", "0", "false", "no", " 0 "):
            monkeypatch.setenv("REPRO_QUIET", raw)
            timed("x", lambda: None)
            assert len(_lines(capsys)) == 2, raw


class TestProgressReporter:
    def test_start_done_format(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_QUIET", raising=False)
        clock = iter([100.0, 101.25])
        monkeypatch.setattr(
            "repro.experiments.common.time.time", lambda: next(clock, 101.25)
        )
        timed("fig7:vanilla", lambda: None)
        assert _lines(capsys) == [
            "[fig7:vanilla] running ...",
            "[fig7:vanilla] done in 1.2s",
        ]

    def test_quiet_suppresses_output(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_QUIET", "1")
        assert timed("x", lambda: 7) == 7
        assert capsys.readouterr().err == ""

    def test_env_quiet_is_read_per_call(self, monkeypatch, capsys):
        """REPRO_QUIET is read at each line, not once per process."""
        monkeypatch.setenv("REPRO_QUIET", "1")
        timed("x", lambda: None)
        assert _lines(capsys) == []
        monkeypatch.setenv("REPRO_QUIET", "0")
        timed("y", lambda: None)
        assert _lines(capsys)[0] == "[y] running ..."
        # set while the wrapped call runs: its done line is silenced
        timed("z", lambda: monkeypatch.setenv("REPRO_QUIET", "1"))
        assert _lines(capsys) == ["[z] running ..."]

    def test_timed_returns_result(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUIET", "1")
        assert timed("add", lambda a, b: a + b, 2, 3) == 5
