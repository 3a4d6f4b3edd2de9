"""Command-line experiment runner.

Regenerates the paper's artifacts without going through pytest::

    python -m repro.cli figure2                # MTTDL vs capacity
    python -m repro.cli figure3                # overhead vs MTTDL
    python -m repro.cli table1                 # analytic + measured costs
    python -m repro.cli scrub --ops 500 --corrupt-rate 0.01
                                               # scrub-daemon experiment
    python -m repro.cli placement              # LRC vs RS rebuild cost
    python -m repro.cli campaign --seeds 25    # randomized fault campaign
    python -m repro.cli serve --clients 1000   # asyncio cluster verdict

Each subcommand prints its report to stdout, writes files only where
``--out`` / ``--json`` ask for them, and exits 1 when its verdict
fails.  A flag's ``dest`` is the parameter it sets; an unset flag is
not passed, so the entry point's (or config's) own default applies.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from .analysis.compare import MEASURED_TO_ANALYTIC
from .analysis.costs import ls97_costs, our_costs
from .core.cluster import ClusterConfig, FabCluster
from .errors import ConfigurationError
from .reliability import (
    BrickParams,
    ErasureCodedSystem,
    ReplicationSystem,
    StripingSystem,
    overhead_curve,
)

__all__ = ["main"]

#: The paper's figure axes and Table 1's geometry.
_FIGURE2_CAPACITIES = (1, 10, 100, 1000)
_FIGURE3_CAPACITY = 256.0
_TABLE1_N, _TABLE1_M, _TABLE1_BLOCK = 5, 3, 1024


def _write_artifact(path: str, text: str) -> None:
    """Write one requested report/JSON artifact, creating its directory."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    print(f"written to {target}")


def _figure2():
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
    lines = [
        "Figure 2 — MTTDL (years) vs logical capacity (TB)",
        "system".ljust(24)
        + "".join(f"{c:>11g}" for c in _FIGURE2_CAPACITIES),
    ]
    for name, system in systems:
        lines.append(name.ljust(24) + "".join(
            f"{system.mttdl_years(c):>11.2e}" for c in _FIGURE2_CAPACITIES
        ))
    return "\n".join(lines) + "\n", None, True


def _figure3():
    r0 = BrickParams(internal_raid="r0")
    r5 = BrickParams(internal_raid="r5")
    targets = [10.0**e for e in range(0, 13, 2)]
    lines = [
        f"Figure 3 — storage overhead vs required MTTDL "
        f"({_FIGURE3_CAPACITY:.0f} TB)",
        "scheme".ljust(20) + "".join(f"{t:>10.0e}" for t in targets),
    ]
    for name, brick, scheme in [
        ("replication/R0", r0, "replication"),
        ("replication/R5", r5, "replication"),
        ("EC(5,n)/R0", r0, "erasure"),
        ("EC(5,n)/R5", r5, "erasure"),
    ]:
        points = {
            p.required_mttdl_years: p
            for p in overhead_curve(targets, _FIGURE3_CAPACITY, brick, scheme)
        }
        cells = []
        for target in targets:
            point = points.get(target)
            cells.append(f"{point.overhead:>10.2f}" if point else f"{'—':>10}")
        lines.append(name.ljust(20) + "".join(cells))
    return "\n".join(lines) + "\n", None, True


def _table1():
    n, m, block = _TABLE1_N, _TABLE1_M, _TABLE1_BLOCK
    cluster = FabCluster(ClusterConfig(m=m, n=n, block_size=block))
    register = cluster.register(0)
    register.write_stripe([bytes([65 + i]) * block for i in range(m)])
    register.read_stripe()
    register.read_block(1)
    register.write_block(1, bytes([90]) * block)
    measured = cluster.metrics.summary()
    analytic = our_costs(n, m, block)
    analytic.update(ls97_costs(n, block))
    lines = [
        f"Table 1 — n={n}, m={m}, k={n - m}, B={block}",
        f"{'operation':18s}{'δ':>6s}{'msgs':>8s}{'diskR':>8s}"
        f"{'diskW':>8s}{'bytes':>10s}",
    ]
    for label in sorted(measured):
        key = MEASURED_TO_ANALYTIC.get(label)
        row = measured[label]
        suffix = f"  (analytic: {key})" if key else ""
        lines.append(
            f"{label:18s}{row['latency_delta']:>6.0f}{row['messages']:>8.0f}"
            f"{row['disk_reads']:>8.0f}{row['disk_writes']:>8.0f}"
            f"{row['bytes']:>10.0f}{suffix}"
        )
    return "\n".join(lines) + "\n", None, True


def _scrub(**kwargs):
    from .analysis.scrub import render_report, run_scrub_experiment, to_json

    experiment = run_scrub_experiment(**kwargs)
    # Success = every corrupting run ended fully repaired and no client
    # read ever returned wrong data.
    healthy = all(
        run.clean_after and run.read_mismatches == 0
        for run in experiment.runs
    )
    return render_report(experiment), to_json(experiment), healthy


def _placement(min_ratio: Optional[float] = None):
    from .analysis.placement import render_report, run_placement_bench, to_json

    result = run_placement_bench()
    report = render_report(result)
    ok = True
    if min_ratio is not None:
        ratio = result.min_fragment_ratio
        ok = ratio >= min_ratio
        report += (
            f"minimum LRC rebuild advantage over RS across the sweep: "
            f"{ratio:.2f}x >= {min_ratio:g}x ... {'OK' if ok else 'FAIL'}\n"
        )
    return report, to_json(result), ok


def _campaign(
    seeds: Sequence[int] = range(25), broken: bool = False, **config
):
    from .analysis.campaign import render_report, run_suite, to_json
    from .campaign.engine import CampaignConfig, broken_config

    config = CampaignConfig(**config)
    if broken:
        config = broken_config(config)
    suite = run_suite(config, seeds)
    if broken:
        # Broken mode succeeds when the harness caught the unsound
        # config and produced a small reproducer for every violation.
        ok = bool(suite.violating) and all(
            o.reproducer is not None and len(o.reproducer.events) <= 10
            for o in suite.violating
        )
    else:
        ok = suite.ok
    return render_report(suite), to_json(suite), ok


def _serve(**kwargs):
    from .analysis.serve import run_serve

    result = run_serve(**kwargs)
    chaos = result["chaos"]
    lines = [
        f"serve[{result['mode']}]: {result['clients']} clients x "
        f"{result['ops_per_client']} ops: {result['total_ops']} ops; "
        f"failed sessions: {result['failed_sessions']}, "
        f"failed ops: {result['failed_ops']}"
    ]
    if chaos["enabled"]:
        lines.append(
            f"chaos[seed={chaos['policy']['seed']}]: "
            f"delivered={chaos['delivered']} dropped={chaos['dropped']} "
            f"partition_dropped={chaos['partition_dropped']} "
            f"duplicated={chaos['duplicated']} "
            f"corrupted={chaos['corrupted']}; "
            f"linearizable={chaos['linearizable']} "
            f"({chaos['blocks_checked']} blocks checked)"
        )
    ok = result["failed_sessions"] == 0 and chaos["linearizable"]
    return "\n".join(lines) + "\n", json.dumps(result, indent=2), ok


def _seed_range(text: str) -> range:
    """``--seeds N`` sweeps seeds 0..N-1; an empty sweep checks nothing."""
    count = int(text)
    if count < 1:
        raise SystemExit(f"--seeds wants at least 1 seed, got {count}")
    return range(count)


def _parse_partition(spec: str):
    """Parse ``start:end:p1,p2`` into a partition window tuple.

    The window must open before it heals and name at least one pid.
    """
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


_JSON = ("--json", dict(
    help="also write the machine-readable results to this file",
))

#: name -> (help, handler, flags).  Only flags a shipped caller passes
#: exist; each is ``(option, add_argument keywords)``.
_COMMANDS = {
    "figure2": ("MTTDL vs capacity", _figure2, ()),
    "figure3": ("overhead vs MTTDL", _figure3, ()),
    "table1": ("protocol costs", _table1, ()),
    "scrub": (
        "scrub-daemon corruption experiment",
        _scrub,
        (
            ("--ops", dict(type=int, help="client ops per daemon run")),
            ("--corrupt-rate", dict(
                dest="corrupt_rates", type=float, nargs="+",
                help="per-op corruption probabilities to sweep",
            )),
            ("--out", dict(help="also write the report to this file")),
            _JSON,
        ),
    ),
    "placement": (
        "placement-group rebuild economics: LRC group-local vs "
        "Reed-Solomon global repair per failed brick",
        _placement,
        (
            ("--min-ratio", dict(
                type=float,
                help="exit 1 unless RS reads at least this many times "
                     "more fragments than LRC at every sweep point",
            )),
            _JSON,
        ),
    ),
    "campaign": (
        "randomized fault campaign with online invariant checks",
        _campaign,
        (
            ("--seeds", dict(
                type=_seed_range, help="number of seeds to sweep (0..N-1)",
            )),
            ("--duration", dict(type=float, help="schedule horizon")),
            ("--ops", dict(
                dest="ops_per_client", type=int, help="operations per client",
            )),
            ("--corrupt-weight", dict(
                type=float,
                help="weight of silent-corruption faults in the mix",
            )),
            ("--scrub", dict(
                dest="scrub_enabled", action="store_true",
                help="run the background scrub-and-repair daemon",
            )),
            ("--broken", dict(
                action="store_true",
                help="run the deliberately unsound n < 2f + m "
                     "configuration; exit 0 iff the violation is caught "
                     "and shrunk",
            )),
            _JSON,
        ),
    ),
    "serve": (
        "host a cluster on the asyncio transport and load it with "
        "concurrent sessions",
        _serve,
        (
            ("--clients", dict(
                type=int, help="concurrent volume sessions (one stripe each)",
            )),
            ("--ops", dict(
                dest="ops_per_client", type=int, help="operations per client",
            )),
            ("--mode", dict(
                choices=("loopback", "tcp"),
                help="asyncio substrate: in-process loopback or TCP framing",
            )),
            ("--port", dict(
                dest="base_port", type=int,
                help="base TCP port (brick pid p listens on port + p - 1)",
            )),
            ("--drop-rate", dict(
                type=float,
                help="per-message drop probability injected at the "
                     "transport boundary (any fault flag enables chaos mode)",
            )),
            ("--duplicate-rate", dict(
                type=float, help="per-message duplication probability",
            )),
            ("--corrupt-rate", dict(
                type=float,
                help="per-message bit-flip probability; flips are "
                     "CRC-detected and become counted drops",
            )),
            ("--partition", dict(
                type=_parse_partition,
                help="timed partition start_ms:end_ms:pid[,pid...] cutting "
                     "the pid group off for that window",
            )),
            ("--chaos-seed", dict(
                type=int,
                help="seed for every chaos decision (same seed = same faults)",
            )),
            _JSON,
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the DSN'04 erasure-coded "
                    "virtual disks paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in _COMMANDS.items():
        command = subparsers.add_parser(name, help=summary)
        for option, keywords in flags:
            command.add_argument(
                option, default=argparse.SUPPRESS, **keywords
            )
        command.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code (1, with one line on
    stderr, for a bad domain argument)."""
    kwargs = vars(build_parser().parse_args(argv))
    command, handler = kwargs.pop("command"), kwargs.pop("func")
    out, json_path = kwargs.pop("out", None), kwargs.pop("json", None)
    try:
        report, payload, ok = handler(**kwargs)
    except ConfigurationError as error:
        print(f"repro {command}: {error}", file=sys.stderr)
        return 1
    print(report, end="")
    if out:
        _write_artifact(out, report)
    if json_path:
        _write_artifact(json_path, payload + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
