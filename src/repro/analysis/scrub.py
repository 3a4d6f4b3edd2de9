"""Scrub-daemon experiments: detection latency, repair throughput, overhead.

Three questions about the background scrubber, each answered by a
seeded, repeatable run:

* **Detection latency** — after a silent bit flip lands in a *cold*
  register (one no client touches), how long until the scanning daemon
  finds it?  Client I/O cannot help there; the scrubber is the only
  thing standing between latent damage and eventual multi-fragment
  loss.
* **Repair throughput** — once found (by scrub or by a client's
  degraded read), how quickly does the write-back repair path restore
  full redundancy?
* **Overhead** — what does running the scrubber cost a corruption-free
  workload?  The daemon verifies checksums out-of-band (no protocol
  messages), so the answer should be "almost nothing"; the bench
  asserts < 15% ops/s.

The workload deliberately touches only *half* the registers; corruption
is injected across *all* of them.  Damage in the active half is usually
caught by client reads (degraded reads + write-back), damage in the
cold half only by the daemon — so one run exercises both detection
paths.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..campaign.schedule import FaultEvent, apply_event
from ..core.cluster import ClusterConfig, FabCluster
from ..core.coordinator import CoordinatorConfig
from ..errors import ConfigurationError
from ..scrub.daemon import ScrubDaemon

__all__ = [
    "ScrubRunResult",
    "ScrubExperiment",
    "run_scrub_run",
    "run_scrub_experiment",
    "render_report",
    "to_json",
]

#: Daemon-run shape: an RS(3, 5) stripe per register, registers (clients
#: touch the first half), block size, wake-up period, client think time,
#: and the post-workload drain that lets the daemon finish.  A full pass
#: every 240 time units audits the 40 pairs at one pair per 6 units.
_N = 5
_RUN_M = 3
_RUN_REGISTERS = 8
_RUN_BLOCK_SIZE = 64
_RUN_SCRUB_INTERVAL = 240.0
_RUN_THINK_TIME = 2.0
_RUN_DRAIN = 400.0
#: Interleaved scrub-off / scrub-on slices behind the overhead ratio.
_OVERHEAD_REPEATS = 8


@dataclass
class ScrubRunResult:
    """One seeded workload run with (or without) the scrub daemon."""

    ops: int
    corrupt_rate: float
    scrub_enabled: bool
    seed: int
    sim_time: float = 0.0
    wall_seconds: float = 0.0
    #: CPU seconds spent in the op loop — unlike wall time, immune to
    #: scheduler preemption, so the overhead comparison uses this.
    cpu_seconds: float = 0.0
    ops_per_sec: float = 0.0
    injected: int = 0
    checksum_failures: int = 0
    degraded_reads: int = 0
    scrub_scans: int = 0
    scrub_detections: int = 0
    scrub_repairs: int = 0
    #: Sim-time from injection to scrub detection, per cold-register hit.
    detection_latencies: List[float] = field(default_factory=list)
    mean_time_to_repair: float = 0.0
    #: Scrub repairs per 1000 units of simulated time.
    repair_throughput: float = 0.0
    #: True iff every register verified clean on every brick at the end.
    clean_after: bool = True
    read_mismatches: int = 0

    @property
    def mean_detection_latency(self) -> float:
        if not self.detection_latencies:
            return 0.0
        return sum(self.detection_latencies) / len(self.detection_latencies)

    @property
    def max_detection_latency(self) -> float:
        return max(self.detection_latencies, default=0.0)

    def to_dict(self) -> Dict:
        return {
            "ops": self.ops,
            "corrupt_rate": self.corrupt_rate,
            "scrub_enabled": self.scrub_enabled,
            "seed": self.seed,
            "sim_time": self.sim_time,
            "wall_seconds": round(self.wall_seconds, 4),
            "cpu_seconds": round(self.cpu_seconds, 4),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "injected": self.injected,
            "checksum_failures": self.checksum_failures,
            "degraded_reads": self.degraded_reads,
            "scrub_scans": self.scrub_scans,
            "scrub_detections": self.scrub_detections,
            "scrub_repairs": self.scrub_repairs,
            "mean_detection_latency": round(self.mean_detection_latency, 2),
            "max_detection_latency": round(self.max_detection_latency, 2),
            "mean_time_to_repair": round(self.mean_time_to_repair, 2),
            "repair_throughput": round(self.repair_throughput, 3),
            "clean_after": self.clean_after,
            "read_mismatches": self.read_mismatches,
        }


def _corrupt(cluster, pid: int, register_id: int, seed: int) -> bool:
    """Flip one bit of ``register_id``'s log on brick ``pid`` now.

    Drops the replica's volatile mirror so the damage is not masked by
    caching.  True iff a bit was flipped.
    """
    event = FaultEvent(
        time=cluster.env.now, kind="corrupt", targets=(pid, register_id),
        value=float(seed),
    )
    if not apply_event(cluster, event):
        return False
    cluster.replicas[pid].drop_mirror(register_id)
    return True


def run_scrub_run(
    ops: int = 300,
    corrupt_rate: float = 0.0,
    scrub_enabled: bool = True,
    seed: int = 0,
) -> ScrubRunResult:
    """One mixed read/write workload with corruption and (maybe) scrub.

    ``corrupt_rate`` is per-operation: before each client op, with this
    probability, one bit is flipped in a random (brick, register) pair
    — over *all* registers, while the clients only ever touch the first
    half.  Detection latency is measured for the scrubber's finds.
    """
    m, n, registers = _RUN_M, _N, _RUN_REGISTERS
    block_size = _RUN_BLOCK_SIZE
    result = ScrubRunResult(
        ops=ops, corrupt_rate=corrupt_rate,
        scrub_enabled=scrub_enabled, seed=seed,
    )
    cluster = FabCluster(ClusterConfig(
        m=m, n=n, block_size=block_size, seed=seed,
        coordinator=CoordinatorConfig(gc_enabled=True),
        metrics_history_limit=256,
    ))
    rng = random.Random(seed ^ 0x5C4B)
    #: register -> bricks ever corrupted there.  Bounded by f: with
    #: more than f corrupt fragments a clean quorum no longer exists
    #: and the register is *designed* to be unrecoverable — the
    #: experiment measures the scrubber, not the code's limits.
    corrupted: Dict[int, List[int]] = {}
    budget = cluster.quorum_system.f
    daemon = ScrubDaemon(cluster, interval=_RUN_SCRUB_INTERVAL)
    if scrub_enabled:
        daemon.start()

    def fresh(tag: int) -> List[bytes]:
        stamp = f"r{tag}o{rng.randrange(1 << 20)}.".encode()
        return [
            (stamp * block_size)[:block_size] for _ in range(m)
        ]

    # Pre-populate every register so each brick holds a fragment.
    contents: Dict[int, List[bytes]] = {}
    for register_id in range(registers):
        stripe = fresh(register_id)
        cluster.register(register_id).write_stripe(stripe)
        contents[register_id] = stripe

    active = max(1, registers // 2)  # clients never touch the cold half
    inject_log: List[Tuple[float, int, int]] = []

    started = time.perf_counter()
    cpu_started = time.process_time()
    for _ in range(ops):
        if corrupt_rate > 0 and rng.random() < corrupt_rate:
            register_id = rng.randrange(registers)
            bricks = corrupted.setdefault(register_id, [])
            if len(bricks) < budget:
                pid = rng.randint(1, n)
            else:  # budget spent: re-corrupt an already-dirty brick
                pid = rng.choice(bricks)
            if _corrupt(cluster, pid, register_id, rng.randrange(1 << 16)):
                result.injected += 1
                if pid not in bricks:
                    bricks.append(pid)
                inject_log.append((cluster.env.now, pid, register_id))
        register_id = rng.randrange(active)
        handle = cluster.register(register_id)
        if rng.random() < 0.5:
            stripe = fresh(register_id)
            if handle.write_stripe(stripe):
                contents[register_id] = stripe
        else:
            stripe = handle.read_stripe()
            expected = contents[register_id]
            if (
                isinstance(stripe, (list, tuple))
                and list(stripe) != list(expected)
            ):
                result.read_mismatches += 1
        cluster.run(until=cluster.env.now + _RUN_THINK_TIME)
    result.wall_seconds = time.perf_counter() - started
    result.cpu_seconds = time.process_time() - cpu_started
    result.ops_per_sec = (
        ops / result.wall_seconds if result.wall_seconds > 0 else 0.0
    )

    # Let the daemon finish sweeping and repairing the cold half.
    if scrub_enabled:
        cluster.run(until=cluster.env.now + _RUN_DRAIN)
    daemon.stop()

    metrics = cluster.metrics
    result.sim_time = cluster.env.now
    result.checksum_failures = metrics.checksum_failures
    result.degraded_reads = metrics.degraded_reads
    result.scrub_scans = metrics.scrub_scans
    result.scrub_detections = metrics.scrub_detections
    result.scrub_repairs = metrics.scrub_repairs
    result.mean_time_to_repair = metrics.mean_time_to_repair
    if result.sim_time > 0:
        result.repair_throughput = (
            1000.0 * metrics.scrub_repairs / result.sim_time
        )

    # Detection latency: match each scrub detection to the earliest
    # unmatched injection on the same (brick, register).
    pending: Dict[Tuple[int, int], List[float]] = {}
    for when, pid, register_id in inject_log:
        pending.setdefault((pid, register_id), []).append(when)
    for when, pid, register_id in daemon.detections:
        times = pending.get((pid, register_id))
        if times:
            result.detection_latencies.append(when - times.pop(0))

    # Final audit: every register clean on every up brick.
    result.clean_after = all(
        replica.audit(register_id)
        for register_id in range(registers)
        for pid, replica in cluster.replicas.items()
        if cluster.nodes[pid].is_up
    )
    return result


@dataclass
class ScrubExperiment:
    """A full sweep: baseline, scrub-on-clean, and corrupting runs."""

    baseline: ScrubRunResult  # scrub off, no corruption
    scrub_clean: ScrubRunResult  # scrub on, no corruption
    runs: List[ScrubRunResult] = field(default_factory=list)
    #: Median of per-pair (scrub-on / scrub-off) throughput ratios from
    #: interleaved timing pairs; robust to process-level drift.
    throughput_ratio: float = 1.0
    #: First and third quartile of those per-pair ratios.
    ratio_q1: float = 1.0
    ratio_q3: float = 1.0
    pairs: int = 0

    @property
    def overhead_percent(self) -> float:
        """Ops/s cost of scrubbing a corruption-free workload."""
        return 100.0 * (1.0 - self.throughput_ratio)

    @property
    def overhead_spread(self) -> Tuple[float, float]:
        """The overhead's q1–q3 over the pairs (low, high) in percent."""
        return 100.0 * (1.0 - self.ratio_q3), 100.0 * (1.0 - self.ratio_q1)

    def to_dict(self) -> Dict:
        return {
            "benchmark": "scrub",
            "baseline": self.baseline.to_dict(),
            "scrub_clean": self.scrub_clean.to_dict(),
            "overhead_percent": round(self.overhead_percent, 2),
            "overhead_q1_q3_percent": [
                round(value, 2) for value in self.overhead_spread
            ],
            "overhead_pairs": self.pairs,
            "runs": [run.to_dict() for run in self.runs],
        }


def run_scrub_experiment(
    ops: int = 300,
    corrupt_rates: Sequence[float] = (0.02, 0.08),
) -> ScrubExperiment:
    """Baseline + scrub-on-clean + one corrupting run per rate.

    The two clean runs feed the overhead headline.  Wall-clock
    throughput at these run lengths is dominated by scheduler and
    host-frequency noise (the same deterministic sim work varies 2x
    between runs), so the comparison uses CPU seconds spent in the op
    loop, and alternates scrub-off / scrub-on slices ``_OVERHEAD_REPEATS``
    times
    — the noise shifts on a multi-second timescale, so fine-grained
    alternation lands both sides in the same noise regime.  The
    overhead is the median of the per-pair CPU ratios (one slow slice
    moves it by at most one rank), reported with their q1–q3 spread.
    """
    if ops < 1:
        raise ConfigurationError(f"ops must be >= 1, got {ops}")
    for rate in corrupt_rates:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(
                f"corrupt rate must be in [0, 1), got {rate}"
            )
    ratios = []
    last = {}
    for _ in range(_OVERHEAD_REPEATS):
        cpu = {}
        for enabled in (False, True):
            last[enabled] = run_scrub_run(
                ops=ops, corrupt_rate=0.0, scrub_enabled=enabled,
            )
            cpu[enabled] = last[enabled].cpu_seconds
        ratios.append(cpu[False] / cpu[True] if cpu[True] > 0 else 1.0)
    q1, _median, q3 = statistics.quantiles(ratios, n=4)
    experiment = ScrubExperiment(
        baseline=last[False],
        scrub_clean=last[True],
        throughput_ratio=statistics.median(ratios),
        ratio_q1=q1,
        ratio_q3=q3,
        pairs=len(ratios),
    )
    for rate in corrupt_rates:
        experiment.runs.append(run_scrub_run(
            ops=ops, corrupt_rate=rate, scrub_enabled=True,
        ))
    return experiment


def render_report(experiment: ScrubExperiment) -> str:
    """Human-readable experiment summary."""
    low, high = experiment.overhead_spread
    lines = [
        "Scrub daemon — detection latency, repair throughput, overhead",
        f"workload: {experiment.baseline.ops} ops, seed "
        f"{experiment.baseline.seed}; corruption injected across all "
        "registers, clients touch only the active half",
        "",
        f"scrub overhead on clean run: {experiment.overhead_percent:.1f}% "
        f"(median of {experiment.pairs} interleaved off/on CPU-time "
        f"pairs; q1–q3 {low:.1f}–{high:.1f}%)",
        "",
        f"{'rate':>6} {'inject':>7} {'detect':>7} {'scrubdet':>9} "
        f"{'degraded':>9} {'repairs':>8} {'latency':>8} {'mttr':>7} "
        f"{'clean':>6}",
    ]
    for run in experiment.runs:
        lines.append(
            f"{run.corrupt_rate:>6g} {run.injected:>7} "
            f"{run.checksum_failures:>7} {run.scrub_detections:>9} "
            f"{run.degraded_reads:>9} {run.scrub_repairs:>8} "
            f"{run.mean_detection_latency:>8.1f} "
            f"{run.mean_time_to_repair:>7.1f} "
            f"{str(run.clean_after):>6}"
        )
    lines.append("")
    lines.append(
        "latency = sim-time from bit flip to scrub detection (cold "
        "registers); mttr = detection to repaired"
    )
    mismatches = sum(run.read_mismatches for run in experiment.runs)
    lines.append(
        f"client reads returning wrong data across all runs: {mismatches}"
    )
    return "\n".join(lines) + "\n"


def to_json(experiment: ScrubExperiment) -> str:
    return json.dumps(experiment.to_dict(), indent=2)
