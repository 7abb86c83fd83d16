"""``python -m repro.service`` — serve, record, and replay.

Subcommands::

    serve   run the gateway (optionally resuming an existing sqlite ledger)
    record  write a preset's job stream as a workload trace
    replay  stream a workload trace through a gateway; by default a
            self-hosted one is started for the duration of the replay

``replay`` against a self-hosted gateway is the end-to-end smoke path CI
runs: spin up the full stack on an ephemeral port, push a recorded
workload through HTTP, wait for every job to reach a terminal ledger
state, and print the terminal census (plus the accounting audit).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Optional

from ..gridsim.invariants import check_service_accounting
from ..obs import RunRecorder
from ..workload.presets import PAPER_LOAD, SMALL_LOAD, TINY_LOAD
from ..workload.trace import load_jobs
from .aclock import AsyncioClock
from .client import ServiceClient
from .core import GridService, ServiceConfig
from .gateway import Gateway
from .ledger import open_ledger
from .replay import record_trace, replay_trace

PRESETS = {"tiny": TINY_LOAD, "small": SMALL_LOAD, "paper": PAPER_LOAD}


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="tiny",
        help="node population / heartbeat shape (default: tiny)",
    )
    parser.add_argument(
        "--scheme",
        choices=["can-het", "can-hom", "central"],
        default="can-het",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="sqlite ledger path (default: in-memory, lost on exit)",
    )
    parser.add_argument(
        "--dilation",
        type=float,
        default=60.0,
        help="model seconds per wall second (default: 60)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="record a repro.obs JSONL trace + manifest under DIR",
    )


def _build_stack(args, loop: asyncio.AbstractEventLoop):
    """Construct recorder + ledger + service + gateway from CLI args."""
    from ..obs import MetricsRegistry

    recorder = RunRecorder(
        args.trace_dir or ".",
        "service",
        seed=PRESETS[args.preset].seed,
        enabled=args.trace_dir is not None,
    )
    ledger = open_ledger(args.db)
    # a restarted service must resume *after* the ledger's persisted model
    # times — ledger timestamps stay monotonic across restarts
    origin = max((r.updated_at for r in ledger.records()), default=0.0)
    clock = AsyncioClock(loop=loop, dilation=args.dilation, origin=origin)
    config = ServiceConfig(preset=PRESETS[args.preset], scheme=args.scheme)
    metrics = MetricsRegistry()
    service = GridService(
        config, ledger, clock, tracer=recorder.tracer, metrics=metrics
    )
    gateway = Gateway(
        service, host=args.host, port=args.port, metrics=metrics
    )
    return recorder, ledger, service, gateway


async def _run_serve(args) -> int:
    loop = asyncio.get_running_loop()
    recorder, ledger, service, gateway = _build_stack(args, loop)
    await gateway.start()
    print(f"serving on {gateway.url} (dilation x{args.dilation:g})")
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await gateway.stop()
        recorder.close(config={"scheme": args.scheme, "db": args.db})
        ledger.close()
    failure = service.clock.failure
    if failure is None:
        return 0
    print(f"clock stopped by {failure!r}", file=sys.stderr)
    return 1


async def _run_replay(args) -> int:
    jobs = load_jobs(args.trace)
    if args.limit:
        jobs = jobs[: args.limit]
    if args.url is not None:
        client = ServiceClient(args.url)
        try:
            summary = await asyncio.to_thread(
                replay_trace,
                client,
                jobs,
                dilation=args.dilation if args.pace else None,
                timeout=args.timeout,
            )
        finally:
            client.close()
        print(json.dumps(summary["terminal"], indent=2))
        return 0

    loop = asyncio.get_running_loop()
    recorder, ledger, service, gateway = _build_stack(args, loop)
    await gateway.start()
    client = ServiceClient(gateway.url)
    try:
        # the blocking client must not share the gateway's loop thread
        summary = await asyncio.to_thread(
            replay_trace,
            client,
            jobs,
            dilation=args.dilation if args.pace else None,
            timeout=args.timeout,
        )
        check_service_accounting(service, final=True)
        summary["accounting"] = "ok"
        print(json.dumps({k: v for k, v in summary.items() if k != "job_ids"}, indent=2))
    finally:
        await gateway.stop()
        client.close()
        recorder.close(config={"scheme": args.scheme, "trace": args.trace})
        ledger.close()
    return 0


def _run_record(args) -> int:
    count = record_trace(PRESETS[args.preset], args.out)
    print(f"wrote {count} jobs to {args.out}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the gateway")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    _add_service_args(serve)

    record = sub.add_parser("record", help="write a workload trace")
    record.add_argument(
        "--preset", choices=sorted(PRESETS), default="tiny"
    )
    record.add_argument("--out", required=True, metavar="PATH")

    replay = sub.add_parser("replay", help="stream a trace through a gateway")
    replay.add_argument("--trace", required=True, metavar="PATH")
    replay.add_argument(
        "--url",
        default=None,
        help="replay against a running gateway instead of self-hosting",
    )
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, default=0)
    replay.add_argument(
        "--limit", type=int, default=0, help="replay only the first N jobs"
    )
    replay.add_argument(
        "--pace",
        action="store_true",
        help="pace submissions at the trace's dilated inter-arrival gaps",
    )
    replay.add_argument("--timeout", type=float, default=300.0)
    _add_service_args(replay)

    args = parser.parse_args(argv)
    if args.command == "record":
        return _run_record(args)
    if args.command == "serve":
        return asyncio.run(_run_serve(args))
    return asyncio.run(_run_replay(args))


if __name__ == "__main__":
    sys.exit(main())
