"""Shared plumbing for the figure-regeneration harness.

Every experiment module exposes ``run(fast=...)`` returning structured
results and ``main(argv)`` that prints the paper-comparable tables/plots and
writes CSVs under ``results/``.  ``--fast`` runs a scaled-down configuration
with the same structure (used by CI, benchmarks and quick sanity checks);
the full configuration matches the paper's Section V setup.

Observability: ``main`` wires a :class:`repro.obs.RunRecorder` so each
invocation writes a JSONL trace (``results/<name>_trace.jsonl``) and a run
manifest (``results/<name>_run.manifest.json``) alongside its CSVs; pass
``--no-trace`` to skip both.  Every simulation an experiment runs goes
through :func:`simulate`, which brackets it in the trace, prints its
progress lines and files its metrics and config in the manifest under the
run's label.  Progress lines go to stderr; the ``REPRO_QUIET`` environment
variable silences them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import RunRecorder

__all__ = [
    "experiment_argparser",
    "timed",
    "simulate",
    "results_path",
    "recorder_for",
    "config_dict",
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


def results_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _progress(line: str) -> None:
    """One progress line on stderr, unless ``REPRO_QUIET`` (re-read per
    line) is set to anything but ``""``, ``0``, ``false`` or ``no``."""
    if os.environ.get("REPRO_QUIET", "").strip() in ("", "0", "false", "no"):
        print(line, file=sys.stderr, flush=True)


def timed(label: str, fn: Callable, *args: Any, **kwargs: Any):
    """Run ``fn`` between a ``[label] running ...`` and a
    ``[label] done in X.Xs`` progress line; return its result."""
    start = time.time()
    _progress(f"[{label}] running ...")
    result = fn(*args, **kwargs)
    _progress(f"[{label}] done in {time.time() - start:.1f}s")
    return result


def simulate(
    recorder: Optional[RunRecorder],
    label: str,
    sim_class: Callable[..., Any],
    config: Any,
    /,
    **fields: Any,
) -> Tuple[Any, Any]:
    """Build ``sim_class(config)`` and run it as sub-run ``label``.

    With a recorder: ``run.start`` (label plus ``fields``) before the
    simulation is built, ``run.end`` at its final simulated time after it
    ran, and the manifest's ``metrics`` and ``config`` entries under
    ``label`` (the config names the maintenance class the substrate's
    factory built, when the simulation runs one).  Returns
    ``(simulation, result)``.
    """
    if recorder is None:
        sim = sim_class(config)
        return sim, timed(label, sim.run)
    recorder.run_start(label, **fields)
    sim = sim_class(config, tracer=recorder.tracer)
    result = timed(label, sim.run)
    now = sim.env.now
    recorder.run_end(label, t=now)
    recorder.manifest.metrics[label] = sim.metrics.snapshot(now=now)
    entry = config_dict(config)
    protocol = getattr(sim, "protocol", None)
    if protocol is not None:
        entry["heartbeat_class"] = type(protocol).__name__
    recorder.manifest.config[label] = entry
    return sim, result
