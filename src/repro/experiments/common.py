"""Shared plumbing for the figure-regeneration harness.

Every experiment module exposes ``run(fast=...)`` returning structured
results and ``main(argv)`` that prints the paper-comparable tables/plots and
writes CSVs under ``results/``.  ``--fast`` runs a scaled-down configuration
with the same structure (used by CI, benchmarks and quick sanity checks);
the full configuration matches the paper's Section V setup.

Observability: ``main`` wires a :class:`repro.obs.RunRecorder` so each
invocation writes a JSONL trace (``results/<name>_trace.jsonl``) and a run
manifest (``results/<name>_run.manifest.json``) alongside its CSVs; pass
``--no-trace`` to skip both.  Progress lines go through a
:class:`repro.obs.ProgressReporter`, which the ``REPRO_QUIET`` environment
variable silences (the benchmark suite relies on this).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import ProgressReporter, RunRecorder

__all__ = [
    "experiment_argparser",
    "timed",
    "results_path",
    "reporter",
    "recorder_for",
    "config_dict",
    "churn_config_dict",
    "WAIT_GRID",
    "SCHEMES",
]

#: wait-time thresholds (seconds) matching Figure 5/6's x-axis
WAIT_GRID: Tuple[float, ...] = (
    0.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    20_000.0,
    30_000.0,
    40_000.0,
    50_000.0,
)

#: matchmaker line-up of Figures 5 and 6
SCHEMES: Tuple[str, ...] = ("can-het", "can-hom", "central")

#: process-wide default reporter; quietness re-read from REPRO_QUIET per call
_REPORTER = ProgressReporter()


def reporter() -> ProgressReporter:
    """The harness's shared progress reporter."""
    return _REPORTER


def experiment_argparser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down configuration (minutes -> seconds)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="directory for CSV outputs (default: results/)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="skip writing the JSONL trace and run manifest",
    )
    parser.add_argument(
        "--substrate",
        default="can",
        choices=_substrate_choices(),
        help="overlay substrate backing the run (default: can)",
    )
    return parser


def _substrate_choices() -> Tuple[str, ...]:
    from ..overlay import available_substrates

    return tuple(available_substrates())


def recorder_for(args: argparse.Namespace, name: str) -> RunRecorder:
    """A RunRecorder honouring the parsed --out/--seed/--no-trace flags."""
    return RunRecorder(
        args.out,
        name,
        seed=getattr(args, "seed", None),
        enabled=not getattr(args, "no_trace", False),
    )


def config_dict(cfg: Any) -> Dict[str, Any]:
    """A JSON-able view of an experiment config (dataclasses flattened)."""
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        return dataclasses.asdict(cfg)
    return {"repr": repr(cfg)}


def churn_config_dict(sim: Any) -> Dict[str, Any]:
    """A churn run's manifest config: what it stated, and the maintenance
    class its substrate's factory built from that."""
    return {
        **config_dict(sim.config),
        "heartbeat_class": type(sim.protocol).__name__,
    }


def results_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def timed(
    label: str,
    fn: Callable,
    *args: Any,
    progress: Optional[ProgressReporter] = None,
    **kwargs: Any,
):
    """Run ``fn`` with a wall-clock progress line (stderr + trace)."""
    rep = progress if progress is not None else _REPORTER
    start = time.time()
    rep.start(label)
    result = fn(*args, **kwargs)
    rep.done(label, time.time() - start)
    return result
