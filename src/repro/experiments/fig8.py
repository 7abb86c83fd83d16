"""Figure 8 — maintenance cost vs CAN dimensionality and system size.

Paper setup: 5 / 8 / 11 / 14-dimensional CANs (0-3 GPU slots) with 500,
1000 and 2000 nodes; two-stage churn; measure (a) messages per node per
minute and (b) message volume (KB) per node per minute.

Expected shape: message *count* grows roughly linearly with the dimension
count, nearly identically for all three schemes and insensitively to the
node count; message *volume* grows superlinearly (≈ d²) for vanilla but
stays near-linear for compact and adaptive heartbeats.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


from ..analysis import ascii_plot, format_table, write_csv
from ..can.heartbeat import HeartbeatScheme
from ..gridsim import ChurnConfig, ChurnSimulation
from ..gridsim.results import ChurnResult
from ..obs import RunRecorder
from .common import experiment_argparser, recorder_for, results_path, simulate

__all__ = ["run", "main", "GPU_SLOT_SWEEP", "NODE_SWEEP"]

#: 0-3 GPU slots -> 5, 8, 11, 14 CAN dimensions
GPU_SLOT_SWEEP: Tuple[int, ...] = (0, 1, 2, 3)
#: the paper swept 500/1000/2000 nodes; we default to half that per size so
#: the 36-run sweep regenerates in minutes — the claim under test is that
#: costs are *insensitive* to the node count, which a 4x spread shows
NODE_SWEEP: Tuple[int, ...] = (250, 500, 1000)
FAST_NODE_SWEEP: Tuple[int, ...] = (60, 120)


def fig8_config(
    scheme: HeartbeatScheme,
    nodes: int,
    gpu_slots: int,
    fast: bool,
    seed: int | None,
    substrate: str,
) -> ChurnConfig:
    """Slow-churn configuration used for the cost measurements.

    Events are slower than the heartbeat period (the regime with no
    simultaneous events), so costs reflect steady maintenance rather than
    repair storms.
    """
    kwargs = dict(
        initial_nodes=nodes,
        gpu_slots=gpu_slots,
        scheme=scheme,
        heartbeat_period=60.0,
        event_gap_mean=120.0,
        leave_mode="fail",
        duration=1_200.0 if fast else 1_800.0,
        substrate=substrate,
    )
    if seed is not None:
        kwargs["seed"] = seed
    return ChurnConfig(**kwargs)


def run(
    fast: bool = False,
    seed: int | None = None,
    node_sweep: Sequence[int] | None = None,
    gpu_slot_sweep: Sequence[int] = GPU_SLOT_SWEEP,
    recorder: RunRecorder | None = None,
    schemes: Sequence[HeartbeatScheme] = tuple(HeartbeatScheme),
    substrate: str = "can",
) -> Dict[Tuple[str, int, int], ChurnResult]:
    """Results keyed by (scheme, nodes, dims)."""
    if node_sweep is None:
        node_sweep = FAST_NODE_SWEEP if fast else NODE_SWEEP
    out: Dict[Tuple[str, int, int], ChurnResult] = {}
    for scheme in schemes:
        for nodes in node_sweep:
            for gpu_slots in gpu_slot_sweep:
                cfg = fig8_config(
                    scheme, nodes, gpu_slots, fast=fast, seed=seed,
                    substrate=substrate,
                )
                _, out[(scheme.value, nodes, cfg.dims)] = simulate(
                    recorder,
                    f"fig8 {scheme.value} n={nodes} d={cfg.dims}",
                    ChurnSimulation,
                    cfg,
                    scheme=scheme.value,
                    nodes=nodes,
                    dims=cfg.dims,
                )
    return out


def report(results: Dict[Tuple[str, int, int], ChurnResult], out_dir: str) -> str:
    rows = []
    csv_rows: List[Tuple[object, ...]] = []
    count_series: Dict[str, Tuple[List[float], List[float]]] = {}
    volume_series: Dict[str, Tuple[List[float], List[float]]] = {}
    for (scheme, nodes, dims), res in sorted(results.items()):
        r = res.rates
        rows.append(
            [
                scheme,
                nodes,
                dims,
                f"{r.messages_per_node_minute:.2f}",
                f"{r.kbytes_per_node_minute:.2f}",
            ]
        )
        csv_rows.append(
            (
                scheme,
                nodes,
                dims,
                r.messages_per_node_minute,
                r.kbytes_per_node_minute,
            )
        )
        key = f"{scheme}-{nodes}"
        count_series.setdefault(key, ([], []))
        count_series[key][0].append(float(dims))
        count_series[key][1].append(r.messages_per_node_minute)
        volume_series.setdefault(key, ([], []))
        volume_series[key][0].append(float(dims))
        volume_series[key][1].append(r.kbytes_per_node_minute)

    table = format_table(
        ["scheme", "nodes", "dims", "msgs/node/min", "KB/node/min"],
        rows,
        title="Figure 8 — maintenance cost per node per minute",
    )
    plot_a = ascii_plot(
        count_series,
        title="Figure 8(a): number of messages vs dimensions",
        xlabel="CAN dimensions",
        ylabel="messages/node/min",
        height=14,
    )
    plot_b = ascii_plot(
        volume_series,
        title="Figure 8(b): volume of messages vs dimensions",
        xlabel="CAN dimensions",
        ylabel="KB/node/min",
        height=14,
    )
    write_csv(
        results_path(out_dir, "fig8_scalability.csv"),
        ["scheme", "nodes", "dims", "msgs_per_node_min", "kb_per_node_min"],
        csv_rows,
    )
    return "\n\n".join([table, plot_a, plot_b])


def main(argv: Sequence[str] | None = None) -> int:
    parser = experiment_argparser(__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="run a single cell with this population instead of the sweep",
    )
    parser.add_argument(
        "--gpu-slots",
        type=int,
        default=None,
        choices=GPU_SLOT_SWEEP,
        help="single-cell GPU slots (0-3 -> 5/8/11/14 dims; default 2)",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in HeartbeatScheme],
        default=None,
        help="single-cell heartbeat scheme (default: all three)",
    )
    args = parser.parse_args(argv)
    single_cell = args.nodes is not None or args.gpu_slots is not None
    node_sweep = [args.nodes] if args.nodes is not None else None
    gpu_slot_sweep = (
        (args.gpu_slots if args.gpu_slots is not None else 2,)
        if single_cell
        else GPU_SLOT_SWEEP
    )
    schemes = (
        (HeartbeatScheme(args.scheme),)
        if args.scheme is not None
        else tuple(HeartbeatScheme)
    )
    with recorder_for(args, "fig8") as rec:
        results = run(
            fast=args.fast,
            seed=args.seed,
            node_sweep=node_sweep,
            gpu_slot_sweep=gpu_slot_sweep,
            recorder=rec,
            schemes=schemes,
            substrate=args.substrate,
        )
        print(report(results, args.out))
        rec.close(
            config={"fast": args.fast, "substrate": args.substrate},
            artifacts=["fig8_scalability.csv"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
