"""Pipelined-throughput experiments for the volume session engine.

The paper's bricks serve many clients concurrently; a single blocking
client cannot expose that concurrency.  These experiments drive a
seeded workload through :class:`~repro.core.session.VolumeSession` at
varying ``max_inflight`` depths and crash rates, measuring how
throughput (completed ops per simulated time unit) scales with
pipeline depth and how gracefully it degrades under brick churn.

Three experiments:

* :func:`sweep_inflight` — same workload at depths 1/4/16/64.
* :func:`sweep_crash_rate` — fixed depth, rising failure churn.
* :func:`crash_failover_run` — a scripted coordinator crash mid-batch,
  asserting the session absorbs it with zero client-visible errors.

:func:`render_report` formats all three as the text artifact the
pipeline benchmark writes to ``benchmarks/out/`` and ``python -m
repro.cli pipeline`` prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import open_volume
from ..core.routing import RouteOptions
from ..campaign.schedule import (
    CampaignSchedule,
    FaultEvent,
    apply_schedule,
    generate_schedule,
)

__all__ = [
    "PipelineResult",
    "run_pipeline",
    "sweep_inflight",
    "sweep_crash_rate",
    "crash_failover_run",
    "render_report",
    "DEFAULT_INFLIGHTS",
]

#: Depths the inflight sweep measures.
DEFAULT_INFLIGHTS = (1, 4, 16, 64)


@dataclass
class PipelineResult:
    """Outcome of one pipelined workload run."""

    max_inflight: int
    ops: int
    errors: int
    elapsed: float
    retries: int
    failovers: int
    coalesced_writes: int
    peak_inflight: int
    crash_probability: float = 0.0
    crashes_injected: int = 0

    @property
    def throughput(self) -> float:
        """Completed operations per simulated time unit."""
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


def _seeded_workload(
    num_blocks: int, num_ops: int, block_size: int, seed: int
) -> List[tuple]:
    """A deterministic mixed read/write block workload.

    Returns ``("write", block, payload)`` / ``("read", block, None)``
    tuples, ~60% writes so coalescing and conflicts both get exercise.
    """
    rng = random.Random(seed)
    ops = []
    for index in range(num_ops):
        block = rng.randrange(num_blocks)
        if rng.random() < 0.6:
            payload = bytes([(index + block) % 256]) * block_size
            ops.append(("write", block, payload))
        else:
            ops.append(("read", block, None))
    return ops


def run_pipeline(
    max_inflight: int,
    *,
    num_stripes: int = 32,
    num_ops: int = 120,
    m: int = 3,
    n: int = 5,
    block_size: int = 64,
    seed: int = 0,
    crash_probability: float = 0.0,
    workload_seed: int = 17,
) -> PipelineResult:
    """Run the seeded workload through one session at ``max_inflight``.

    With ``crash_probability > 0`` a crash-only fault plan churns
    bricks underneath — on average ``crash_probability`` crashes per
    brick per 10 time units, each down for 5-35, never more than ``f``
    down at once, so the volume stays available and every error is the
    session's fault.
    """
    volume = open_volume(
        m=m, n=n, stripes=num_stripes, block_size=block_size, seed=seed,
    )
    cluster = volume.cluster
    churn = {}
    if crash_probability > 0.0:
        mean_gap = 10.0 / (crash_probability * n)
        churn = apply_schedule(cluster, generate_schedule(
            seed=seed + 1, n=n, duration=10.0 * num_ops,
            max_down=cluster.quorum_system.f,
            partition_weight=0.0, drop_weight=0.0,
            event_gap=(0.0, 2 * mean_gap), down_time=(5.0, 35.0),
        ))
    workload = _seeded_workload(
        volume.num_blocks, num_ops, block_size, workload_seed
    )
    start = cluster.env.now
    with volume.session(max_inflight=max_inflight, seed=seed) as session:
        for kind, block, payload in workload:
            if kind == "write":
                session.submit_write(block, payload)
            else:
                session.submit_read(block)
    stats = session.stats
    errors = sum(1 for op in session.ops if op.status != "ok")
    return PipelineResult(
        max_inflight=max_inflight,
        ops=stats.ops_completed,
        errors=errors,
        elapsed=cluster.env.now - start,
        retries=stats.retries,
        failovers=stats.failovers,
        coalesced_writes=stats.coalesced_writes,
        peak_inflight=stats.peak_inflight,
        crash_probability=crash_probability,
        crashes_injected=churn.get("crash", 0),
    )


def sweep_inflight(
    inflights: Sequence[int] = DEFAULT_INFLIGHTS, **kwargs
) -> List[PipelineResult]:
    """The same seeded workload at each pipeline depth."""
    return [run_pipeline(depth, **kwargs) for depth in inflights]


def sweep_crash_rate(
    crash_probabilities: Sequence[float] = (0.0, 0.05, 0.15),
    max_inflight: int = 16,
    **kwargs,
) -> List[PipelineResult]:
    """Fixed depth, rising background failure churn."""
    return [
        run_pipeline(max_inflight, crash_probability=p, **kwargs)
        for p in crash_probabilities
    ]


def crash_failover_run(
    *,
    max_inflight: int = 8,
    num_ops: int = 60,
    crash_at: float = 8.0,
    seed: int = 7,
) -> PipelineResult:
    """Pin the session to one coordinator and crash it mid-batch.

    The brick recovers much later, so completing the batch requires the
    session's failover path, not just waiting out the outage.  Client
    code sees no errors — the paper's multipathing argument (Section 3):
    strict linearizability makes reissuing through another brick safe.
    """
    volume = open_volume(m=3, n=5, stripes=24, block_size=64, seed=seed)
    cluster = volume.cluster
    victim = 2

    apply_schedule(cluster, CampaignSchedule(events=[
        FaultEvent(time=crash_at, kind="crash", targets=(victim,)),
        FaultEvent(time=11 * crash_at, kind="recover", targets=(victim,)),
    ]))
    workload = _seeded_workload(volume.num_blocks, num_ops, 64, seed)
    start = cluster.env.now
    with volume.session(
        max_inflight=max_inflight,
        route=RouteOptions(coordinator=victim),
        seed=seed,
    ) as session:
        for kind, block, payload in workload:
            if kind == "write":
                session.submit_write(block, payload)
            else:
                session.submit_read(block)
    stats = session.stats
    errors = sum(1 for op in session.ops if op.status != "ok")
    return PipelineResult(
        max_inflight=max_inflight,
        ops=stats.ops_completed,
        errors=errors,
        elapsed=cluster.env.now - start,
        retries=stats.retries,
        failovers=stats.failovers,
        coalesced_writes=stats.coalesced_writes,
        peak_inflight=stats.peak_inflight,
        crashes_injected=1,
    )


def render_report(
    inflight_results: Sequence[PipelineResult],
    crash_results: Sequence[PipelineResult],
    failover_result: Optional[PipelineResult] = None,
) -> str:
    """Format the sweeps as the ``pipeline_throughput`` text artifact."""
    lines = [
        "Pipelined volume throughput (VolumeSession)",
        "",
        "throughput vs max_inflight (same seeded workload):",
        f"{'inflight':>9s}{'ops':>6s}{'errors':>8s}{'tput':>9s}"
        f"{'peak':>6s}{'retries':>9s}{'coalesced':>11s}",
    ]
    for r in inflight_results:
        lines.append(
            f"{r.max_inflight:>9d}{r.ops:>6d}{r.errors:>8d}"
            f"{r.throughput:>9.4f}{r.peak_inflight:>6d}"
            f"{r.retries:>9d}{r.coalesced_writes:>11d}"
        )
    base = inflight_results[0].throughput if inflight_results else 0.0
    if base > 0:
        best = max(r.throughput for r in inflight_results)
        lines.append(f"speedup (best vs inflight=1): {best / base:.2f}x")
    lines += [
        "",
        "throughput vs crash rate (max_inflight="
        f"{crash_results[0].max_inflight if crash_results else '-'}):",
        f"{'crash_p':>9s}{'ops':>6s}{'errors':>8s}{'tput':>9s}"
        f"{'crashes':>9s}{'retries':>9s}{'failovers':>11s}",
    ]
    for r in crash_results:
        lines.append(
            f"{r.crash_probability:>9.2f}{r.ops:>6d}{r.errors:>8d}"
            f"{r.throughput:>9.4f}{r.crashes_injected:>9d}"
            f"{r.retries:>9d}{r.failovers:>11d}"
        )
    if failover_result is not None:
        r = failover_result
        lines += [
            "",
            "scripted coordinator crash mid-batch (pinned coordinator):",
            f"  ops={r.ops} errors={r.errors} failovers={r.failovers} "
            f"retries={r.retries} tput={r.throughput:.4f}",
        ]
    return "\n".join(lines)
