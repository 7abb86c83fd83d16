"""CLI entry point: ``python -m repro.obs <command>``.

Commands:

    summarize <trace.jsonl> [...]   per-event-type counts, message-volume
                                    breakdowns per run/scheme, and push-hop
                                    histograms for one or more trace files
    spans <trace.jsonl>             rebuild causal per-job spans from a
          [--job N] [--validate]    trace: per-kind summary, one job's
                                    tree, or structural validation
    critical-path <trace.jsonl>     per-job (or fleet-aggregate) chain of
          [--job N]                 top-level segments: matchmaking, queue,
                                    run, detection latency, retry backoff
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .spans import (
    build_spans_from_file,
    render_critical_path,
    render_spans,
)
from .summarize import render_summary, summarize_file


def _cmd_summarize(args) -> int:
    status = 0
    for i, path in enumerate(args.traces):
        try:
            summary = summarize_file(path)
        except (OSError, ValueError) as exc:
            # ValueError covers JSONDecodeError from corrupt/truncated lines
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        if i:
            print()
        print(render_summary(summary, path))
    return status


def _load_spans(path: str):
    try:
        return build_spans_from_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _cmd_spans(args) -> int:
    builder = _load_spans(args.trace)
    if builder is None:
        return 1
    print(render_spans(builder, job=args.job))
    if args.validate:
        problems = builder.validate()
        if problems:
            print(f"\n{len(problems)} structural problem(s):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("\nspan trees complete: no orphans, no open spans, "
              "every job reached a terminal state")
    return 0


def _cmd_critical_path(args) -> int:
    builder = _load_spans(args.trace)
    if builder is None:
        return 1
    print(render_critical_path(builder, job=args.job))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect observability artifacts (JSONL traces).",
    )
    sub = parser.add_subparsers(dest="command")

    p_sum = sub.add_parser(
        "summarize", help="summarise one or more JSONL trace files"
    )
    p_sum.add_argument("traces", nargs="+", help="path(s) to *_trace.jsonl")

    p_spans = sub.add_parser(
        "spans", help="rebuild causal per-job spans from a JSONL trace"
    )
    p_spans.add_argument("trace", help="path to *_trace.jsonl[.gz]")
    p_spans.add_argument(
        "--job", type=int, default=None, help="show one job's span tree"
    )
    p_spans.add_argument(
        "--validate",
        action="store_true",
        help="fail (exit 1) on orphan/open spans or non-terminal jobs",
    )

    p_cp = sub.add_parser(
        "critical-path",
        help="top-level segment chain (matchmake/queue/run/detect/retry)",
    )
    p_cp.add_argument("trace", help="path to *_trace.jsonl[.gz]")
    p_cp.add_argument(
        "--job", type=int, default=None, help="one job's chain instead of the aggregate"
    )

    args = parser.parse_args(argv)
    if args.command == "summarize":
        return _cmd_summarize(args)
    if args.command == "spans":
        return _cmd_spans(args)
    if args.command == "critical-path":
        return _cmd_critical_path(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
