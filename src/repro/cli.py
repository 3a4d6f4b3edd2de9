"""Command-line experiment runner.

Regenerates the paper's artifacts without going through pytest::

    python -m repro.cli figure2                # MTTDL vs capacity
    python -m repro.cli figure3 --capacity 256 # overhead vs MTTDL
    python -m repro.cli table1 --n 5 --m 3     # analytic + measured costs
    python -m repro.cli demo                   # the quickstart scenario
    python -m repro.cli scrub --stripes 8      # scrub/rebuild walkthrough
    python -m repro.cli scrub --ops 500 --corrupt-rate 0.01
                                               # scrub-daemon experiment
    python -m repro.cli placement              # LRC vs RS rebuild cost
    python -m repro.cli campaign --seeds 25    # randomized fault campaign
    python -m repro.cli serve --clients 1000   # asyncio cluster verdict

Each subcommand prints its report to stdout and writes files only where
``--out`` / ``--json`` ask for them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from .analysis.compare import MEASURED_TO_ANALYTIC
from .analysis.costs import ls97_costs, our_costs
from .core.cluster import ClusterConfig, FabCluster
from .core.rebuild import Rebuilder, Scrubber
from .errors import ConfigurationError
from .reliability import (
    BrickParams,
    ErasureCodedSystem,
    ReplicationSystem,
    StripingSystem,
    overhead_curve,
)

__all__ = ["main"]


def _write_artifact(path: str, text: str) -> None:
    """Write one requested report/JSON artifact, creating its directory."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    print(f"written to {target}")


def _figure2(args: argparse.Namespace) -> int:
    r0 = BrickParams(internal_raid="r0")
    r5 = BrickParams(internal_raid="r5")
    reliable = BrickParams(internal_raid="r5", reliable_array=True)
    systems = [
        ("striping/reliable-R5", StripingSystem(brick=reliable)),
        ("4-way-replication/R0", ReplicationSystem(brick=r0, replicas=4)),
        ("4-way-replication/R5", ReplicationSystem(brick=r5, replicas=4)),
        ("EC(5,8)/R0", ErasureCodedSystem(brick=r0, m=5, n=8)),
        ("EC(5,8)/R5", ErasureCodedSystem(brick=r5, m=5, n=8)),
    ]
    capacities = args.capacities
    print("Figure 2 — MTTDL (years) vs logical capacity (TB)")
    print("system".ljust(24) + "".join(f"{c:>11g}" for c in capacities))
    for name, system in systems:
        cells = "".join(
            f"{system.mttdl_years(c):>11.2e}" for c in capacities
        )
        print(name.ljust(24) + cells)
    return 0


def _figure3(args: argparse.Namespace) -> int:
    r0 = BrickParams(internal_raid="r0")
    r5 = BrickParams(internal_raid="r5")
    targets = [10.0**e for e in range(0, 13, 2)]
    print(f"Figure 3 — storage overhead vs required MTTDL "
          f"({args.capacity:.0f} TB)")
    print("scheme".ljust(20) + "".join(f"{t:>10.0e}" for t in targets))
    for name, brick, scheme in [
        ("replication/R0", r0, "replication"),
        ("replication/R5", r5, "replication"),
        ("EC(5,n)/R0", r0, "erasure"),
        ("EC(5,n)/R5", r5, "erasure"),
    ]:
        points = {
            p.required_mttdl_years: p
            for p in overhead_curve(targets, args.capacity, brick, scheme)
        }
        cells = []
        for target in targets:
            point = points.get(target)
            cells.append(f"{point.overhead:>10.2f}" if point else f"{'—':>10}")
        print(name.ljust(20) + "".join(cells))
    return 0


def _table1(args: argparse.Namespace) -> int:
    n, m, block = args.n, args.m, args.block_size
    cluster = FabCluster(ClusterConfig(m=m, n=n, block_size=block))
    register = cluster.register(0)
    stripe = [bytes([65 + i]) * block for i in range(m)]
    register.write_stripe(stripe)
    register.read_stripe()
    register.read_block(1)
    register.write_block(1, bytes([90]) * block)
    measured = cluster.metrics.summary()
    analytic = our_costs(n, m, block)
    analytic.update(ls97_costs(n, block))
    print(f"Table 1 — n={n}, m={m}, k={n - m}, B={block}")
    print(f"{'operation':18s}{'δ':>6s}{'msgs':>8s}{'diskR':>8s}"
          f"{'diskW':>8s}{'bytes':>10s}")
    for label in sorted(measured):
        key = MEASURED_TO_ANALYTIC.get(label)
        row = measured[label]
        suffix = f"  (analytic: {key})" if key else ""
        print(
            f"{label:18s}{row['latency_delta']:>6.0f}{row['messages']:>8.0f}"
            f"{row['disk_reads']:>8.0f}{row['disk_writes']:>8.0f}"
            f"{row['bytes']:>10.0f}{suffix}"
        )
    return 0


def _demo(args: argparse.Namespace) -> int:
    cluster = FabCluster(
        ClusterConfig(m=args.m, n=args.n, block_size=args.block_size)
    )
    if cluster.quorum_system.f < 1:
        # The demo crashes brick n; with f = 0 its read would wait for
        # all n bricks forever.
        raise ConfigurationError(
            f"the demo crashes one brick, which needs f = (n - m) // 2 "
            f">= 1; got n={args.n}, m={args.m}"
        )
    register = cluster.register(0)
    stripe = [bytes([65 + i]) * args.block_size for i in range(args.m)]
    print(f"cluster: {cluster}")
    print("write-stripe:", register.write_stripe(stripe))
    print("read-stripe matches:", register.read_stripe() == stripe)
    victim = args.n
    cluster.crash(victim)
    print(f"crashed brick {victim}; read still matches:",
          register.read_stripe() == stripe)
    cluster.recover(victim)
    print(f"recovered brick {victim}; write:",
          register.write_stripe(list(reversed(stripe))))
    return 0


def _scrub(args: argparse.Namespace) -> int:
    if args.ops is not None:
        return _scrub_daemon(args)
    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=64))
    stripes = args.stripes
    for register_id in range(stripes):
        cluster.register(register_id).write_stripe(
            [bytes([register_id + 1]) * 64] * 3
        )
    cluster.crash(4)
    for register_id in range(stripes):
        cluster.register(register_id).write_stripe(
            [bytes([100 + register_id]) * 64] * 3
        )
    cluster.recover(4)
    scrubber = Scrubber(cluster)
    stale = scrubber.stale_registers(range(stripes))
    print(f"after brick 4 missed {stripes} writes: {len(stale)} stale registers")
    report = Rebuilder(cluster).rebuild(range(stripes))
    print(f"rebuild: repaired={report.repaired} current="
          f"{report.already_current} aborted={report.aborted}")
    print("stale after rebuild:",
          len(scrubber.stale_registers(range(stripes))))
    return 0


def _scrub_daemon(args: argparse.Namespace) -> int:
    from .analysis.scrub import (
        render_report,
        render_sampling_report,
        run_sampling_sweep,
        run_scrub_experiment,
        to_json,
    )

    experiment = run_scrub_experiment(
        ops=args.ops,
        corrupt_rates=tuple(args.corrupt_rate),
        seed=args.seed,
    )
    sampling = run_sampling_sweep(
        registers=args.sample_registers,
        sample_rates=tuple(args.sample_rates),
        trials=args.trials,
        seed=args.seed,
    )
    report = render_report(experiment) + "\n" + render_sampling_report(sampling)
    print(report)
    if args.out:
        _write_artifact(args.out, report)
    if args.json_out:
        _write_artifact(
            args.json_out, to_json(experiment, sampling=sampling) + "\n"
        )
    # Success = every corrupting run ended fully repaired and no client
    # read ever returned wrong data.
    healthy = all(
        run.clean_after and run.read_mismatches == 0
        for run in experiment.runs
    )
    return 0 if healthy else 1


def _placement(args: argparse.Namespace) -> int:
    from .analysis.placement import (
        render_report,
        run_placement_bench,
        to_json,
    )

    result = run_placement_bench(
        groups_list=tuple(args.groups),
        group_size=args.group_size,
        m=args.m,
        spares=args.spares,
        registers=args.registers,
        block_size=args.block_size,
        seed=args.seed,
    )
    report = render_report(result)
    print(report)
    if args.json_out:
        _write_artifact(args.json_out, to_json(result) + "\n")
    if args.out:
        _write_artifact(args.out, report)
    if args.min_ratio is not None:
        ratio = result.min_fragment_ratio
        ok = ratio >= args.min_ratio
        verdict = "OK" if ok else "FAIL"
        print(
            f"minimum LRC rebuild advantage over RS across the sweep: "
            f"{ratio:.2f}x >= {args.min_ratio:g}x ... {verdict}"
        )
        return 0 if ok else 1
    return 0


def _campaign(args: argparse.Namespace) -> int:
    from .analysis.campaign import render_report, run_suite, to_json
    from .campaign.engine import CampaignConfig, broken_config

    if args.seeds < 1:
        raise SystemExit(f"--seeds wants at least 1 seed, got {args.seeds}")
    config = CampaignConfig(
        m=args.m,
        n=args.n,
        f=args.f,
        registers=args.registers,
        clients=args.clients,
        ops_per_client=args.ops,
        duration=args.duration,
        crash_weight=args.crash_weight,
        partition_weight=args.partition_weight,
        drop_weight=args.drop_weight,
        corrupt_weight=args.corrupt_weight,
        verify_checksums=not args.no_verify_checksums,
        scrub_enabled=args.scrub,
        max_clock_skew=args.max_skew,
    )
    if args.broken:
        config = broken_config(config)
    suite = run_suite(config, seeds=range(args.seeds))
    report = render_report(suite)
    print(report)
    if args.json_out:
        _write_artifact(args.json_out, to_json(suite) + "\n")
    if args.out:
        _write_artifact(args.out, report)
    if args.broken:
        # Broken mode succeeds when the harness caught the unsound
        # config and produced a small reproducer for every violation.
        caught = bool(suite.violating) and all(
            o.reproducer is not None and len(o.reproducer.events) <= 10
            for o in suite.violating
        )
        return 0 if caught else 1
    return 0 if suite.ok else 1


def _parse_partition(spec: Optional[str]):
    """Parse ``start:end:p1,p2`` into a partition window tuple.

    The window must open before it heals and name at least one pid.
    """
    if spec is None:
        return None
    try:
        start, end, pids = spec.split(":")
        start, end = float(start), float(end)
        group = tuple(int(p) for p in pids.split(",") if p)
        if not group or not 0 <= start < end:
            raise ValueError(spec)
        return (start, end, group)
    except ValueError:
        raise SystemExit(
            f"--partition wants start_ms:end_ms:pid[,pid...], got {spec!r}"
        ) from None


def _serve(args: argparse.Namespace) -> int:
    from .analysis.serve import run_serve

    result = run_serve(
        clients=args.clients,
        ops_per_client=args.ops,
        mode=args.mode,
        m=args.m,
        n=args.n,
        block_size=args.block_size,
        max_inflight=args.inflight,
        base_port=args.port,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        corrupt_rate=args.corrupt_rate,
        partition=_parse_partition(args.partition),
        chaos_seed=args.chaos_seed,
    )
    print(
        f"serve[{result['mode']}]: {result['clients']} clients x "
        f"{result['ops_per_client']} ops: {result['total_ops']} ops; "
        f"failed sessions: {result['failed_sessions']}, "
        f"failed ops: {result['failed_ops']}"
    )
    chaos = result["chaos"]
    if chaos["enabled"]:
        print(
            f"chaos[seed={args.chaos_seed}]: "
            f"delivered={chaos['delivered']} dropped={chaos['dropped']} "
            f"partition_dropped={chaos['partition_dropped']} "
            f"duplicated={chaos['duplicated']} "
            f"corrupted={chaos['corrupted']}; "
            f"linearizable={chaos['linearizable']} "
            f"({chaos['blocks_checked']} blocks checked)"
        )
    if args.json_out:
        _write_artifact(args.json_out, json.dumps(result, indent=2) + "\n")
    ok = result["failed_sessions"] == 0 and chaos["linearizable"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the DSN'04 erasure-coded "
                    "virtual disks paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure2 = subparsers.add_parser("figure2", help="MTTDL vs capacity")
    figure2.add_argument(
        "--capacities", type=float, nargs="+",
        default=[1, 10, 100, 1000],
    )
    figure2.set_defaults(func=_figure2)

    figure3 = subparsers.add_parser("figure3", help="overhead vs MTTDL")
    figure3.add_argument("--capacity", type=float, default=256.0)
    figure3.set_defaults(func=_figure3)

    table1 = subparsers.add_parser("table1", help="protocol costs")
    table1.add_argument("--n", type=int, default=5)
    table1.add_argument("--m", type=int, default=3)
    table1.add_argument("--block-size", type=int, default=1024)
    table1.set_defaults(func=_table1)

    demo = subparsers.add_parser("demo", help="cluster walkthrough")
    demo.add_argument("--n", type=int, default=5)
    demo.add_argument("--m", type=int, default=3)
    demo.add_argument("--block-size", type=int, default=512)
    demo.set_defaults(func=_demo)

    scrub = subparsers.add_parser(
        "scrub",
        help="scrub/rebuild walkthrough, or (with --ops) the "
             "scrub-daemon corruption experiment",
    )
    scrub.add_argument("--stripes", type=int, default=6)
    scrub.add_argument(
        "--ops", type=int, default=None,
        help="run the scrub-daemon experiment with this many client ops",
    )
    scrub.add_argument(
        "--corrupt-rate", type=float, nargs="+", default=[0.02, 0.08],
        help="per-op corruption probabilities to sweep (daemon mode)",
    )
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument(
        "--sample-registers", type=int, default=1000,
        help="fleet size for the detection-latency-vs-sample-rate sweep "
             "(daemon mode)",
    )
    scrub.add_argument(
        "--sample-rates", type=float, nargs="+",
        default=[0.05, 0.10, 0.25, 1.0],
        help="scan budgets, as fractions of the full sweep, to measure",
    )
    scrub.add_argument(
        "--trials", type=int, default=32,
        help="seeded trials per sample rate (daemon mode)",
    )
    scrub.add_argument(
        "--out", type=str, default=None,
        help="also write the report to this file (daemon mode)",
    )
    scrub.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="write the machine-readable results to this file (daemon mode)",
    )
    scrub.set_defaults(func=_scrub)

    placement = subparsers.add_parser(
        "placement",
        help="placement-group rebuild economics: LRC group-local vs "
             "Reed-Solomon global repair per failed brick",
    )
    placement.add_argument(
        "--groups", type=int, nargs="+", default=[2, 4, 8],
        help="placement-group counts to sweep",
    )
    placement.add_argument("--group-size", type=int, default=8)
    placement.add_argument("--m", type=int, default=4)
    placement.add_argument("--spares", type=int, default=1)
    placement.add_argument(
        "--registers", type=int, default=24,
        help="registers written across the fleet before the failure",
    )
    placement.add_argument("--block-size", type=int, default=64)
    placement.add_argument("--seed", type=int, default=0)
    placement.add_argument(
        "--min-ratio", type=float, default=None,
        help="exit 1 unless RS reads at least this many times more "
             "fragments than LRC at every sweep point",
    )
    placement.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="also write the machine-readable results to this file",
    )
    placement.add_argument(
        "--out", type=str, default=None,
        help="also write the text report to this file",
    )
    placement.set_defaults(func=_placement)

    campaign = subparsers.add_parser(
        "campaign",
        help="randomized fault campaign with online invariant checks",
    )
    campaign.add_argument(
        "--seeds", type=int, default=25,
        help="number of seeds to sweep (0..N-1)",
    )
    campaign.add_argument("--n", type=int, default=5)
    campaign.add_argument("--m", type=int, default=3)
    campaign.add_argument(
        "--f", type=int, default=None,
        help="tolerated faults; default the code's bound, floor((n-m)/2)",
    )
    campaign.add_argument("--registers", type=int, default=4)
    campaign.add_argument("--clients", type=int, default=3)
    campaign.add_argument(
        "--ops", type=int, default=30, help="operations per client"
    )
    campaign.add_argument("--duration", type=float, default=400.0)
    campaign.add_argument("--crash-weight", type=float, default=3.0)
    campaign.add_argument("--partition-weight", type=float, default=1.0)
    campaign.add_argument("--drop-weight", type=float, default=1.0)
    campaign.add_argument(
        "--corrupt-weight", type=float, default=0.0,
        help="weight of silent-corruption faults in the mix (0 disables)",
    )
    campaign.add_argument(
        "--no-verify-checksums", action="store_true",
        help="escape hatch: disable CRC verification on stable stores "
             "(the read-verification invariant then catches served rot)",
    )
    campaign.add_argument(
        "--scrub", action="store_true",
        help="run the background scrub-and-repair daemon during the "
             "campaign",
    )
    campaign.add_argument(
        "--max-skew", type=float, default=0.0,
        help="max per-brick clock skew (time units)",
    )
    campaign.add_argument(
        "--broken", action="store_true",
        help="run the deliberately unsound n < 2f + m configuration; "
             "exit 0 iff the violation is caught and shrunk",
    )
    campaign.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="also write the machine-readable results to this file",
    )
    campaign.add_argument(
        "--out", type=str, default=None,
        help="also write the text report to this file",
    )
    campaign.set_defaults(func=_campaign)

    serve = subparsers.add_parser(
        "serve",
        help="host a cluster on the asyncio transport and load it with "
             "concurrent sessions",
    )
    serve.add_argument(
        "--clients", type=int, default=100,
        help="concurrent volume sessions (one stripe each)",
    )
    serve.add_argument(
        "--ops", type=int, default=4, help="operations per client"
    )
    serve.add_argument(
        "--mode", choices=("loopback", "tcp"), default="loopback",
        help="asyncio substrate: in-process loopback or TCP framing",
    )
    serve.add_argument("--m", type=int, default=3)
    serve.add_argument("--n", type=int, default=5)
    serve.add_argument("--block-size", type=int, default=64)
    serve.add_argument(
        "--inflight", type=int, default=4,
        help="max operations in flight per session",
    )
    serve.add_argument(
        "--port", type=int, default=7420,
        help="base TCP port (brick pid p listens on port + p - 1)",
    )
    serve.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="also write the machine-readable results to this file",
    )
    serve.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="per-message drop probability injected at the transport "
             "boundary (any non-zero fault knob enables chaos mode)",
    )
    serve.add_argument(
        "--duplicate-rate", type=float, default=0.0,
        help="per-message duplication probability (chaos mode)",
    )
    serve.add_argument(
        "--corrupt-rate", type=float, default=0.0,
        help="per-message bit-flip probability; flips are CRC-detected "
             "and become counted drops (chaos mode)",
    )
    serve.add_argument(
        "--partition", type=str, default=None,
        help="timed partition start_ms:end_ms:pid[,pid...] cutting the "
             "pid group off for that window (chaos mode)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for every chaos decision (same seed = same faults)",
    )
    serve.set_defaults(func=_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code (1, with one line on
    stderr, for a bad domain argument)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
