"""``python -m benchmarks.e2e`` -- the baseline, the layer table, the noise floor.

Subcommands (run from the repository root)::

    run     every workload: K untraced repeats of one seed, then one traced
            run; prints every metric by name with its unit, checks outputs,
            writes BENCHMARK.json, results/baseline.json, results/LAYERS.md
    spread  the acceptance procedure: N sets of R runs per workload, each
            run another seed; per metric the quartile spread of each set
            and the drift of the median between sets, against its bound

Each (workload, run) is a fresh child process running ``run.py``, one at a
time: the box has two cores, one for the program and at most one for the
load generator.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from .layers import render_layers_md
from .manifest import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    benchmark_json,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")
QUICK_SECONDS = 2
#: the traced pass must attribute this share of the wall on these
CHURN = ("churn_steady_1k", "churn_storm_lossy", "chord_churn_1k")
MIN_ATTRIBUTED = 0.8
#: ideal channel: the protocols must bypass ``transmit()`` entirely
IDEAL_CHANNEL = ("churn_steady_1k", "chord_churn_1k")


class CheckFailed(Exception):
    """An output check did not hold; the command exits non-zero."""


def one_run(
    workload: str, seed: int, seconds: float, trace: int, extra: tuple[str, ...] = ()
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run ``run.py`` once in a child; returns (result line, info line)."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    child_wall_s = time.perf_counter() - started
    if proc.returncode != 0:
        raise CheckFailed(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2][len("info "):])
    info["child_wall_s"] = child_wall_s
    if not result["correct"]:
        raise CheckFailed(f"{workload}: output check failed (correct=false)")
    return result, info


def _values(result: dict[str, Any]) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def _at_reference_speed(info: dict[str, Any]) -> float:
    """A run's first replay: wall seconds not stolen, over the slowdown then."""
    return info["wall_s"] * (1.0 - info["stolen_fraction"]) / info["slowdown"]


def _write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------- run --
def cmd_run(args) -> int:
    quick = args.quick
    seconds = QUICK_SECONDS if quick else RUN_SECONDS
    repeats = 1 if quick else args.repeats
    extra = ("--setups", "1") if quick else ()
    out = args.out or RESULTS
    started = time.perf_counter()
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    pinned = not quick and args.seed == DEFAULT_SEED

    summary: dict[str, Any] = {}
    tables, walls, overheads = {}, {}, {}
    for workload, _why in WORKLOADS:
        runs = [
            one_run(workload, args.seed, seconds, 0, extra)
            for _ in range(repeats)
        ]
        digests = {info["digest_sha256"] for _, info in runs}
        if len(digests) != 1:
            raise CheckFailed(
                f"{workload}: simulated statistics differ between repeats "
                f"of seed {args.seed}: {sorted(digests)}"
            )
        digest = runs[0][1]["digest"]
        if pinned and digest and expected.setdefault(workload, digest) != digest:
            print(f"digest_changed {workload} (see expected.json)")
        end_to_end = {
            name: statistics.median(_values(r)[name] for r, _ in runs)
            for name, _, _, _ in END_TO_END
        }
        traced, traced_info = one_run(
            workload, args.seed, seconds, 1, () if quick else ("--out", out)
        )
        per_layer = _values(traced)
        if workload in CHURN and per_layer["attributed_fraction"] < MIN_ATTRIBUTED:
            raise CheckFailed(
                f"{workload}: attributed_fraction "
                f"{per_layer['attributed_fraction']:.3f} < {MIN_ATTRIBUTED}"
            )
        if workload in IDEAL_CHANNEL and per_layer["net.transmit_calls"]:
            raise CheckFailed(f"{workload}: transmit() called on the ideal channel")
        tables[workload] = traced_info["layers"]
        walls[workload] = traced_info["wall_s"]
        overheads[workload] = _at_reference_speed(traced_info) / statistics.median(
            _at_reference_speed(info) for _, info in runs
        ) - 1.0
        summary[workload] = {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "attempted": runs[0][0]["attempted"],
            "failed": max(r["failed"] for r, _ in runs),
            "digest": digest,
            "info": {
                k: v for k, v in runs[0][1].items()
                if k not in ("digest", "digest_sha256", "workload")
            },
            "bench.trace_overhead_fraction": overheads[workload],
        }
        _print_workload(workload, summary[workload])

    wall = time.perf_counter() - started
    print(f"all output checks passed; {wall:.0f} s wall")
    if not quick:
        _write_json(os.path.join(ROOT, "BENCHMARK.json"), benchmark_json())
        _write_json(
            os.path.join(out, "baseline.json"),
            {
                "seed": args.seed, "run_seconds": seconds, "repeats": repeats,
                "wall_seconds": wall, "workloads": summary,
            },
        )
        with open(os.path.join(out, "LAYERS.md"), "w") as fh:
            fh.write(render_layers_md(tables, walls, overheads))
        if pinned:
            _write_json(EXPECTED, expected)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    return 0


def _print_workload(workload: str, row: dict[str, Any]) -> None:
    print(f"== {workload}: attempted {row['attempted']}, failed {row['failed']}")
    for name, unit, _better, bound in END_TO_END:
        print(f"  {name:32s} {row['end_to_end'][name]:14.4f} {unit:6s} (bound {bound:.0%})")
    for name, unit, _better in PER_LAYER:
        print(f"  {name:32s} {row['per_layer'][name]:14.4f} {unit}")
    print(
        f"  {'bench.trace_overhead_fraction':32s} "
        f"{row['bench.trace_overhead_fraction']:14.4f} ratio"
    )


# ---------------------------------------------------------------- spread --
def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_spread(args) -> int:
    sets: list[dict[str, dict[str, list[float]]]] = []
    child_walls: list[float] = []
    for _ in range(args.sets):
        values: dict[str, dict[str, list[float]]] = {}
        for workload, _why in WORKLOADS:
            per_metric = values.setdefault(workload, {})
            for i in range(args.runs):
                result, info = one_run(workload, args.seed + i, RUN_SECONDS, 0)
                for name, value in _values(result).items():
                    per_metric.setdefault(name, []).append(value)
                child_walls.append(info["child_wall_s"])
        sets.append(values)

    report: dict[str, Any] = {}
    bad: list[str] = []
    for workload, _why in WORKLOADS:
        for name, _unit, better, bound in END_TO_END:
            series = [s[workload][name] for s in sets]
            medians = [statistics.median(v) for v in series]
            spreads = [quartile_spread(v) for v in series]
            # how much worse any later set's median is than the first's
            sign = 1.0 if better == "lower" else -1.0
            drift = max(
                (sign * (m - medians[0]) / medians[0] for m in medians[1:]),
                default=0.0,
            )
            report[f"{workload}/{name}"] = {
                "bound": bound,
                "sets": [
                    {"min": min(v), "median": m, "max": max(v), "spread": s,
                     "values": v}
                    for v, m, s in zip(series, medians, spreads, strict=True)
                ],
                "set_to_set_worse": drift,
            }
            if name != "setup_s" and max(spreads) > bound:
                bad.append(f"{workload}/{name}: spread {max(spreads):.3f} > {bound}")
            if drift > bound:
                bad.append(f"{workload}/{name}: drift {drift:.3f} > {bound}")
            print(
                f"{workload + '/' + name:36s} median {medians[0]:12.4f} "
                f"spread {max(spreads):6.3f} drift {drift:+6.3f} bound {bound}"
            )
    _write_json(
        os.path.join(args.out or RESULTS, "spread.json"),
        {
            "seed": args.seed, "runs_per_set": args.runs,
            "run_seconds": RUN_SECONDS,
            "run_wall_seconds": {
                "mean": statistics.mean(child_walls), "max": max(child_walls),
            },
            "metrics": report,
        },
    )
    for line in bad:
        print("OUT OF BOUND", line)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="baseline + layer table")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--out", default=None, metavar="DIR")
    run.add_argument(
        "--quick", action="store_true",
        help=f"every workload cut to ~{QUICK_SECONDS} s, 1 repeat, nothing written",
    )
    run.add_argument(
        "--json", action="store_true", help="print the summary as one JSON line last"
    )
    spread = sub.add_parser("spread", help="noise floor against the bounds")
    spread.add_argument("--sets", type=int, default=2)
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--seed", type=int, default=DEFAULT_SEED)
    spread.add_argument("--out", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        return cmd_run(args) if args.command == "run" else cmd_spread(args)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
