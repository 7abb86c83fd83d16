"""Unit tests for the EXPERIMENTS.md report generator."""

import os
from pathlib import Path

import pytest

from repro.analysis import write_csv
from repro.experiments import report


@pytest.fixture
def results_dir(tmp_path):
    d = str(tmp_path / "results")
    write_csv(
        os.path.join(d, "fig5_wait_time_cdf.csv"),
        ["interarrival_s", "scheme", "wait_threshold_s", "cdf_percent"],
        [
            (2.0, "can-het", 0.0, 81.9),
            (2.0, "can-het", 1000.0, 86.5),
            (2.0, "central", 0.0, 86.0),
            (2.0, "central", 1000.0, 89.0),
            (4.0, "can-het", 0.0, 95.0),
            (4.0, "central", 0.0, 97.0),
        ],
    )
    write_csv(
        os.path.join(d, "fig6_wait_time_cdf.csv"),
        ["constraint_ratio", "scheme", "wait_threshold_s", "cdf_percent"],
        [
            (0.4, "can-het", 0.0, 96.0),
            (0.8, "can-het", 0.0, 89.0),
        ],
    )
    write_csv(
        os.path.join(d, "fig7_broken_links.csv"),
        ["scheme", "time_s", "broken_links"],
        [("vanilla", t, 2.0) for t in range(8)]
        + [("compact", t, 40.0) for t in range(8)],
    )
    write_csv(
        os.path.join(d, "fig8_scalability.csv"),
        ["scheme", "nodes", "dims", "msgs_per_node_min", "kb_per_node_min"],
        [
            ("vanilla", 500, 5, 17.0, 65.0),
            ("vanilla", 500, 14, 48.0, 1058.0),
            ("compact", 500, 5, 17.0, 10.0),
            ("compact", 500, 14, 48.0, 68.0),
        ],
    )
    return d


class TestBuildTables:
    def test_builds_available_tables(self, results_dir):
        tables = report.build_tables(results_dir)
        assert set(tables) == {
            "FIG5_TABLE",
            "FIG6_TABLE",
            "FIG7_TABLE",
            "FIG8A_TABLE",
            "FIG8B_TABLE",
        }
        assert "can-het" in tables["FIG5_TABLE"]
        assert "81.90" in tables["FIG5_TABLE"]

    def test_wait_cdf_tables_follow_each_sweeps_order(self, results_dir):
        tables = report.build_tables(results_dir)
        fig5, fig6 = tables["FIG5_TABLE"], tables["FIG6_TABLE"]
        assert fig5.index("**2.0 s**") < fig5.index("**4.0 s**")
        assert fig6.index("**ratio 0.8**") < fig6.index("**ratio 0.4**")

    def test_fig7_relative_factor(self, results_dir):
        t = report.build_tables(results_dir)["FIG7_TABLE"]
        assert "20.00×" in t  # compact = 40 / vanilla = 2

    def test_fig8_slope_fit(self, results_dir):
        t = report.build_tables(results_dir)["FIG8B_TABLE"]
        # vanilla 65 -> 1058 over d 5 -> 14 is slope ~2.7; compact ~1.9
        assert "2.7" in t

    def test_empty_dir(self, tmp_path):
        assert report.build_tables(str(tmp_path)) == {}


class TestRenderInto:
    def test_inserts_and_replaces(self, results_dir):
        tables = report.build_tables(results_dir)
        doc = "intro\n\n<!-- FIG5_TABLE -->\n\nafter\n"
        once = report.render_into(doc, tables)
        assert "| can-het |" in once
        assert once.count("<!-- FIG5_TABLE -->") == 1
        # idempotent: rendering again replaces, not duplicates
        twice = report.render_into(once, tables)
        assert twice == once

    def test_rendering_twice_equals_rendering_once(self, results_dir):
        """A marker owns every table block under it: a multi-block table
        is replaced whole, not stacked under a fresh copy."""
        tables = report.build_tables(results_dir)
        assert tables["FIG5_TABLE"].count("\n\n") == 1  # two blocks
        doc = (
            "intro\n\n<!-- FIG5_TABLE -->\n\n**Verdict.** x\n\n"
            "<!-- FIG6_TABLE -->\n| stale | old |\n|---|---|\n\n"
            "| stale | too |\n\ntext\n"
        )
        once = report.render_into(doc, tables)
        assert report.render_into(once, tables) == once
        assert "stale" not in once
        assert once.count("| can-het |") == 4
        assert "\n\n**Verdict.** x\n\n" in once
        assert once.endswith("\n\ntext\n")

    def test_experiments_md_holds_the_committed_results(self):
        """EXPERIMENTS.md's tables are exactly what ``report`` builds from
        the committed results/ CSVs (regenerate with ``python -m
        repro.experiments report``)."""
        root = Path(__file__).resolve().parents[2]
        tables = report.build_tables(str(root / "results"))
        text = (root / "EXPERIMENTS.md").read_text()
        for name in tables:
            assert text.count(f"<!-- {name} -->") == 1, name
        assert report.render_into(text, tables) == text

    def test_unknown_placeholder_untouched(self, results_dir):
        tables = report.build_tables(results_dir)
        doc = "<!-- SOMETHING_ELSE -->\n"
        assert report.render_into(doc, tables) == doc


class TestMain:
    def test_cli_roundtrip(self, results_dir, tmp_path):
        md = tmp_path / "EXP.md"
        md.write_text("# doc\n\n<!-- FIG7_TABLE -->\n\nend\n")
        rc = report.main(["--results", results_dir, "--file", str(md)])
        assert rc == 0
        assert "vanilla" in md.read_text()

    def test_cli_no_results(self, tmp_path):
        rc = report.main(
            ["--results", str(tmp_path), "--file", str(tmp_path / "x.md")]
        )
        assert rc == 1
