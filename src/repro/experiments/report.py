"""Assemble the EXPERIMENTS.md measurement tables from results CSVs.

``python -m repro.experiments report`` reads the CSV files produced by the
figure harnesses under ``results/`` and rewrites the ``<!-- XXX_TABLE -->``
placeholders in EXPERIMENTS.md with current measurements — so the recorded
paper-vs-measured comparison always reflects the latest regeneration.
"""

from __future__ import annotations

import csv
import os
import re
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from .wait_cdf import FIG5, FIG6, WaitCdfSweep

__all__ = ["build_tables", "render_into", "main"]


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _wait_cdf_tables(rows: List[Dict[str, str]], sweep: WaitCdfSweep) -> str:
    """Pivot (axis value, scheme, threshold, cdf%) rows into markdown tables."""
    grouped: Dict[str, Dict[str, Dict[float, float]]] = defaultdict(
        lambda: defaultdict(dict)
    )
    thresholds: List[float] = []
    for row in rows:
        g = row[sweep.column]
        t = float(row["wait_threshold_s"])
        grouped[g][row["scheme"]][t] = float(row["cdf_percent"])
        if t not in thresholds:
            thresholds.append(t)
    thresholds.sort()
    shown = [t for t in thresholds if t in (0.0, 1000.0, 5000.0, 20000.0, 50000.0)]
    chunks = []
    for g in sorted(grouped, key=float, reverse=sweep.descending):
        headers = [sweep.markdown_label.format(g=g)]
        headers += [f"≤{int(t):,} s" for t in shown]
        body = []
        for scheme in ("can-het", "can-hom", "central"):
            if scheme not in grouped[g]:
                continue
            body.append(
                [scheme] + [f"{grouped[g][scheme].get(t, float('nan')):.2f}"
                            for t in shown]
            )
        chunks.append(_markdown_table(headers, body))
    return "\n\n".join(chunks)


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join(["---"] * len(headers)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _fig7_table(rows: List[Dict[str, str]]) -> str:
    import numpy as np

    by_scheme: Dict[str, List[float]] = defaultdict(list)
    for row in rows:
        by_scheme[row["scheme"]].append(float(row["broken_links"]))
    steady = {}
    for scheme, values in by_scheme.items():
        v = np.asarray(values)
        k = max(1, v.size // 4)
        steady[scheme] = float(v[-k:].mean())
    vanilla = steady.get("vanilla", float("nan"))
    body = []
    for scheme in ("vanilla", "compact", "adaptive"):
        if scheme not in steady:
            continue
        rel = steady[scheme] / vanilla if vanilla else float("nan")
        body.append([scheme, f"{steady[scheme]:.1f}", f"{rel:.2f}×"])
    return _markdown_table(
        ["scheme", "steady-state broken links", "vs vanilla"], body
    )


def _fig8_tables(rows: List[Dict[str, str]]) -> Tuple[str, str]:
    import numpy as np

    counts: Dict[Tuple[str, int], Dict[int, float]] = defaultdict(dict)
    volumes: Dict[Tuple[str, int], Dict[int, float]] = defaultdict(dict)
    dims_seen = set()
    for row in rows:
        key = (row["scheme"], int(row["nodes"]))
        d = int(row["dims"])
        dims_seen.add(d)
        counts[key][d] = float(row["msgs_per_node_min"])
        volumes[key][d] = float(row["kb_per_node_min"])
    dims = sorted(dims_seen)

    def render(data, unit):
        headers = ["scheme / nodes"] + [f"d={d}" for d in dims] + ["log–log slope"]
        body = []
        for (scheme, nodes) in sorted(data):
            series = data[(scheme, nodes)]
            vals = [series.get(d) for d in dims]
            xs = [d for d, v in zip(dims, vals) if v]
            ys = [v for v in vals if v]
            slope = (
                np.polyfit(np.log(xs), np.log(ys), 1)[0]
                if len(xs) >= 2
                else float("nan")
            )
            body.append(
                [f"{scheme}-{nodes}"]
                + [f"{v:.1f}" if v is not None else "—" for v in vals]
                + [f"{slope:.2f}"]
            )
        return _markdown_table(headers, body)

    return render(counts, "msgs"), render(volumes, "KB")


def _ablations_table(rows: List[Dict[str, str]]) -> str:
    body = [
        [
            row["ablation"],
            f"{float(row['mean_wait']):.0f}",
            f"{float(row['p95_wait']):.0f}",
            f"{float(row['zero_wait_frac']) * 100:.1f} %",
            f"{float(row['push_hops']):.2f}",
        ]
        for row in rows
    ]
    return _markdown_table(
        ["ablation", "mean wait (s)", "p95 (s)", "instant start", "push hops"],
        body,
    )


def build_tables(results_dir: str) -> Dict[str, str]:
    """Markdown tables keyed by placeholder name, from available CSVs."""
    out: Dict[str, str] = {}
    for sweep in (FIG5, FIG6):
        path = os.path.join(results_dir, sweep.csv_name)
        if os.path.exists(path):
            out[f"{sweep.name.upper()}_TABLE"] = _wait_cdf_tables(
                _read_csv(path), sweep
            )
    fig7 = os.path.join(results_dir, "fig7_broken_links.csv")
    if os.path.exists(fig7):
        out["FIG7_TABLE"] = _fig7_table(_read_csv(fig7))
    fig8 = os.path.join(results_dir, "fig8_scalability.csv")
    if os.path.exists(fig8):
        a, b = _fig8_tables(_read_csv(fig8))
        out["FIG8A_TABLE"] = a
        out["FIG8B_TABLE"] = b
    ablations = os.path.join(results_dir, "ablations.csv")
    if os.path.exists(ablations):
        out["ABLATIONS_TABLE"] = _ablations_table(_read_csv(ablations))
    return out


#: a marker and every table block under it, up to the next non-table text
_PLACEHOLDER = re.compile(r"<!-- ([A-Z0-9_]+) -->\n?(?:\n*(?:\|.*\n)+)*")


def render_into(markdown: str, tables: Dict[str, str]) -> str:
    """Replace each ``<!-- NAME -->`` marker (and every table block that
    already follows it) with the marker plus the freshly built tables."""

    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in tables:
            return match.group(0)
        return f"<!-- {name} -->\n{tables[name]}\n"

    return _PLACEHOLDER.sub(replace, markdown)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="results")
    parser.add_argument("--file", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    tables = build_tables(args.results)
    if not tables:
        print("no results CSVs found; run the experiments first")
        return 1
    with open(args.file) as fh:
        text = fh.read()
    updated = render_into(text, tables)
    with open(args.file, "w") as fh:
        fh.write(updated)
    print(f"updated {args.file} with {len(tables)} table(s): "
          + ", ".join(sorted(tables)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
