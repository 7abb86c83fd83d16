"""Smoke-render every checked-in figure from ``results/*.csv``.

Pins the rendering layer (``ascii_plot`` / ``format_table``) against the
real artifacts the experiments commit: each figure's CSV must still parse,
plot to a canvas of the requested shape, and survive a round trip to disk.
"""

import csv
import pathlib

import pytest

from repro.analysis.plotting import WIDTH, ascii_plot
from repro.analysis.tables import format_table

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"

HEIGHT = 20


def read_rows(name):
    path = RESULTS / name
    if not path.exists():
        pytest.skip(f"{name} not checked in")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, f"{name} is empty"
    return rows


def series_by(rows, key, x_col, y_col):
    """Group rows into ``{key value: (xs, ys)}`` plot series."""
    out = {}
    for row in rows:
        xs, ys = out.setdefault(str(row[key]), ([], []))
        xs.append(float(row[x_col]))
        ys.append(float(row[y_col]))
    return out


def assert_plot_shape(text, series):
    lines = text.splitlines()
    canvas = [line for line in lines if "|" in line]
    assert len(canvas) == HEIGHT
    assert all(len(line.split("|", 1)[1]) == WIDTH for line in canvas)
    # every series appears in the legend and leaves marks on the canvas
    for name in series:
        assert name in lines[-1]
    body = "".join(line.split("|", 1)[1] for line in canvas)
    assert body.strip(), "canvas is blank"


@pytest.mark.parametrize(
    "csv_name,key,x_col,y_col",
    [
        ("fig5_wait_time_cdf.csv", "scheme", "wait_threshold_s", "cdf_percent"),
        ("fig6_wait_time_cdf.csv", "scheme", "wait_threshold_s", "cdf_percent"),
        ("fig7_broken_links.csv", "scheme", "time_s", "broken_links"),
        ("fig8_scalability.csv", "scheme", "nodes", "msgs_per_node_min"),
    ],
)
def test_render_each_figure_to_tmp_dir(tmp_path, csv_name, key, x_col, y_col):
    rows = read_rows(csv_name)
    series = series_by(rows, key, x_col, y_col)
    assert len(series) >= 2, "figure should compare at least two schemes"
    text = ascii_plot(
        series,
        height=HEIGHT,
        title=csv_name,
        xlabel=x_col,
        ylabel=y_col,
    )
    assert_plot_shape(text, series)
    out = tmp_path / (csv_name.replace(".csv", ".txt"))
    out.write_text(text + "\n")
    assert out.read_text().splitlines()[0] == csv_name


def test_render_ablations_table(tmp_path):
    rows = read_rows("ablations.csv")
    headers = list(rows[0].keys())
    table = format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
        title="Ablations",
    )
    lines = table.splitlines()
    assert lines[0] == "Ablations"
    assert set(lines[2]) <= {"-", " "}  # header rule
    assert len(lines) == 3 + len(rows)
    # column count is preserved on every body row
    assert all(len(line.split()) == len(headers) for line in lines[3:])
    out = tmp_path / "ablations.txt"
    out.write_text(table + "\n")
    assert out.stat().st_size > 0


def test_fig5_cdf_values_are_percentages():
    rows = read_rows("fig5_wait_time_cdf.csv")
    values = [float(row["cdf_percent"]) for row in rows]
    assert all(0.0 <= v <= 100.0 for v in values)


def test_fig8_rates_positive():
    rows = read_rows("fig8_scalability.csv")
    assert all(float(row["msgs_per_node_min"]) > 0 for row in rows)
