"""Trace format and replay.

The paper validates its no-concurrent-conflicts assumption against real
I/O traces.  We cannot ship those, so :func:`synthesize_trace` produces
the closest synthetic equivalent — a timestamped block-level trace with
a configurable inter-arrival process and access pattern — and
:class:`TraceReplayer` runs any trace against a
:class:`~repro.core.volume.LogicalVolume`, reporting throughput and the
observed abort rate (which, per the paper, should be zero when the
trace has no overlapping conflicting accesses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.session import RetryPolicy
from ..core.volume import LogicalVolume
from ..errors import ConfigurationError
from ..types import ABORT
from .generators import AccessPattern, UniformPattern

__all__ = ["TraceOp", "TraceReplayer", "synthesize_trace"]


@dataclass(frozen=True)
class TraceOp:
    """One trace record: at ``time``, ``op`` block ``block``.

    ``tag`` uniquifies write payloads.
    """

    time: float
    op: str  # "read" | "write"
    block: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ConfigurationError(f"op must be read|write, got {self.op!r}")


def synthesize_trace(
    num_ops: int,
    num_blocks: int,
    read_fraction: float = 0.7,
    mean_interarrival: float = 10.0,
    pattern: Optional[AccessPattern] = None,
    seed: int = 0,
) -> List[TraceOp]:
    """A synthetic timestamped trace (exponential inter-arrivals)."""
    if num_ops < 0:
        raise ConfigurationError("num_ops must be >= 0")
    rng = random.Random(seed)
    pattern = pattern or UniformPattern()
    trace: List[TraceOp] = []
    now = 0.0
    for index in range(num_ops):
        now += rng.expovariate(1.0 / mean_interarrival)
        block = pattern.next_block(rng, num_blocks)
        if rng.random() < read_fraction:
            trace.append(TraceOp(time=now, op="read", block=block))
        else:
            trace.append(TraceOp(time=now, op="write", block=block, tag=index + 1))
    return trace


@dataclass
class ReplayStats:
    """Outcome of a trace replay."""

    operations: int = 0
    reads: int = 0
    writes: int = 0
    aborts: int = 0
    duration: float = 0.0
    by_block_writes: Dict[int, int] = field(default_factory=dict)

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.operations if self.operations else 0.0

    @property
    def throughput(self) -> float:
        """Operations per simulated time unit."""
        return self.operations / self.duration if self.duration else 0.0


class TraceReplayer:
    """Replays a trace against a logical volume.

    Operations are issued sequentially from trace order (the replayer
    is a single client: one session with one operation in flight); the
    trace timestamps pace the issue times, so a dense trace stresses
    the cluster and a sparse one idles it.  The session makes one
    attempt per operation, so a ⊥ is counted as an abort, not retried;
    a crashed coordinator still fails over.
    """

    def __init__(self, volume: LogicalVolume) -> None:
        self.volume = volume
        self.session = volume.session(
            max_inflight=1, retry=RetryPolicy(attempts=1)
        )

    def _payload(self, op: TraceOp) -> bytes:
        body = f"trace-{op.tag}-{op.block}".encode()
        size = self.volume.block_size
        return (body * (size // len(body) + 1))[:size]

    def replay(self, trace: List[TraceOp]) -> ReplayStats:
        """Run the whole trace; returns aggregate statistics."""
        stats = ReplayStats()
        env = self.volume.cluster.env
        start = env.now
        for op in sorted(trace, key=lambda record: record.time):
            if env.now < start + op.time:
                env.run(until=start + op.time)
            stats.operations += 1
            if op.op == "read":
                stats.reads += 1
                result = self.session.read(op.block)
            else:
                stats.writes += 1
                result = self.session.write(op.block, self._payload(op))
                stats.by_block_writes[op.block] = (
                    stats.by_block_writes.get(op.block, 0) + 1
                )
            if result is ABORT:
                stats.aborts += 1
        stats.duration = env.now - start
        return stats
