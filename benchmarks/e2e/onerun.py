"""One run of one workload in this process: the driver's contract.

``--workload NAME --seed N --seconds S --trace 0|1`` builds the inputs from
the seed, sets up, measures, checks the outputs and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- every end-to-end metric untraced, every
per-layer metric traced.  The line before it, ``info {...}``, carries what
``python -m benchmarks.e2e`` needs besides: the digest of the simulated
statistics, the layer table, ungated numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import tempfile

from .layers import layer_metrics
from .manifest import DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS
from .trace import Tracer
from .workloads import (
    SETUPS,
    WORKLOADS,
    kernel_events_per_s,
    pin_to_one_cpu,
)

#: scratch space inside the checkout (the ledger, the recorded trace)
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setups", type=int, default=None,
        help=f"set-ups timed in an untraced run (default {SETUPS}); a simulator "
        "replays its whole run each time",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="traced run: also write trace_<workload>.json there",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.setups is not None and args.setups < 1):
        parser.error("--seconds must be positive and --setups at least 1")

    pin_to_one_cpu()
    tracer = Tracer(f"{args.workload}-{args.seed}") if args.trace else None
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        if tracer is None:
            outcome = workload.measure(args.setups or SETUPS)
        else:
            try:
                outcome = workload.run(tracer)
            finally:
                tracer.restore()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "digest": outcome.digest,
        "digest_sha256": outcome.digest_sha256(),
        "wall_s": outcome.wall_s,
        "stolen_fraction": outcome.stolen_s / outcome.wall_s,
        "work_s": outcome.work_s,
        "units": outcome.units,
        **outcome.info,
    }
    if tracer is None:
        rss_kb = resource.getrusage(workload.rss_who).ru_maxrss
        values = {
            "setup_s": outcome.setup_s,
            "work_per_s": outcome.units / outcome.work_s,
            "op_p50_ms": outcome.op_p50_ms,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        table = END_TO_END
    else:
        values = layer_metrics(tracer, outcome)
        values["sim.kernel_events_per_s"] = kernel_events_per_s()
        info["layers"] = tracer.layer_table()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            tracer.dump(os.path.join(args.out, f"trace_{args.workload}.json"))
        table = PER_LAYER
    metrics = {
        row[0]: {"value": values[row[0]], "unit": row[1]} for row in table
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(outcome.correct),
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0
