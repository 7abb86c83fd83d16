"""Unit tests for reporting helpers: tables, plots, CSV export."""

import csv

import pytest

from repro.analysis import plotting
from repro.analysis.export import write_csv
from repro.analysis.plotting import ascii_plot
from repro.analysis.tables import format_table


#: what every experiment's ``ascii_plot`` call passes besides the series
PLOT = dict(height=14, title="T", xlabel="x", ylabel="y")


class TestFormatTable:
    def test_basic_rendering(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 22.125]], title="T"
        )
        lines = out.splitlines()
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.50" in out and "22.12" in out

    def test_title(self):
        out = format_table(["x"], [["y"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]], title="T")

    def test_large_and_tiny_floats_use_scientific(self):
        out = format_table(["v"], [[1.5e9], [2.5e-7]], title="T")
        assert "e+" in out and "e-" in out

    def test_nan(self):
        out = format_table(["v"], [[float("nan")]], title="T")
        assert "nan" in out

    def test_alignment(self):
        out = format_table(["col"], [["a"], ["bbb"]], title="T")
        rows = out.splitlines()[3:]
        assert len(rows[0]) == len(rows[1])


class TestAsciiPlot:
    def test_renders_series_and_legend(self, monkeypatch):
        monkeypatch.setattr(plotting, "WIDTH", 30)
        out = ascii_plot(
            {"one": ([0, 1, 2], [0, 1, 4]), "two": ([0, 1, 2], [4, 1, 0])},
            height=8,
            title="T",
            xlabel="x",
            ylabel="y",
        )
        assert out.splitlines()[0] == "T"
        assert "o=one" in out and "x=two" in out
        assert "x: x   y: y" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({}, **PLOT)
        with pytest.raises(ValueError):
            ascii_plot({"a": ([], [])}, **PLOT)

    def test_y_bounds_clamp(self):
        out = ascii_plot(
            {"s": ([0, 1], [50, 150])}, y_min=80.0, y_max=100.0, **PLOT
        )
        assert "100" in out and "80" in out

    def test_constant_series(self):
        out = ascii_plot({"s": ([0, 1], [5, 5])}, **PLOT)
        assert "o" in out

    def test_non_finite_points_skipped(self):
        out = ascii_plot({"s": ([0, 1, 2], [1, float("nan"), 2])}, **PLOT)
        assert "o" in out


class TestExport:
    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "sub" / "out.csv")
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_row_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), ["a"], [[1, 2]])
