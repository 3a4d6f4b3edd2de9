"""Metric counters for protocol measurement.

Table 1 of the paper reports, per operation type: latency (in units of
the one-way message delay δ), message count, disk reads, disk writes,
and network bandwidth.  :class:`Metrics` is the global sink the network
and node layers report into; :class:`OpMetrics` scopes counters to a
single register operation so benchmarks can attribute costs per
operation and per fast/slow path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Metrics", "OpMetrics", "SessionStats"]


@dataclass
class OpMetrics:
    """Counters for one register operation.

    Attributes:
        kind: operation label, e.g. ``"read-stripe"``.
        path: ``"fast"``, ``"slow"`` (the operation recovered or took
            the overlay write), or ``"retarget"`` (a read that went
            around a silent target with a second fast round); set by
            the coordinator.
        messages: protocol messages sent on behalf of the operation
            (requests plus replies, as in Table 1's accounting).
        bytes_sent: total payload bytes moved over the network.
        disk_reads: replica log/block reads (timestamps live in NVRAM
            and are not counted, matching the paper's convention).
        disk_writes: replica log/block writes.
        round_trips: number of request-reply phases (latency is
            ``2 * round_trips`` in δ units).
        started_at / finished_at: simulated wall-clock bounds.
        aborted: True if the operation returned ⊥.

    The counters are exact only for an operation that ran alone: while
    operations overlap, every count goes to the one that began last
    (see :class:`Metrics`).
    """

    kind: str
    path: str = "fast"
    messages: int = 0
    bytes_sent: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    round_trips: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None
    aborted: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Simulated duration, if finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def latency_in_delta(self) -> int:
        """Latency in δ units (one-way hops): two per round trip."""
        return 2 * self.round_trips


@dataclass
class SessionStats:
    """Counters for one :class:`~repro.core.session.VolumeSession`.

    The session engine reports here so benchmarks can attribute retry,
    failover, and concurrency behaviour per pipeline rather than only
    globally.

    Attributes:
        ops_submitted: logical operations accepted by the session
            (after write coalescing — a coalesced stripe write is one).
        ops_completed: operations finished with a client-visible value
            (including those that exhausted retries and returned ⊥).
        ops_failed: operations that finished with a hard error (e.g.
            coordinator crash with failover disabled).
        retries: re-executions after a ⊥ attempt, across all
            operations (an attempt with no brick up, or with every live
            brick transport-down, ends ⊥ too).
        aborts_exhausted: operations that surfaced ⊥ after the retry
            policy's ``attempts`` ran out.
        failovers: coordinator rotations after a coordinator crashed
            mid-operation.
        coalesced_writes: block writes merged into wider stripe
            operations (each merge of k blocks counts k - 1).
        peak_inflight: maximum simultaneously-running operations.
        started_at / finished_at: simulated wall-clock bounds (the
            session stamps ``finished_at`` at each drain).
    """

    ops_submitted: int = 0
    ops_completed: int = 0
    ops_failed: int = 0
    retries: int = 0
    aborts_exhausted: int = 0
    failovers: int = 0
    coalesced_writes: int = 0
    peak_inflight: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None

    def note_inflight(self, count: int) -> None:
        """Record an observed concurrency level."""
        if count > self.peak_inflight:
            self.peak_inflight = count


class Metrics:
    """Global metric sink with an optional per-operation context.

    The network and node layers call :meth:`count_message`,
    :meth:`count_disk_read`, and :meth:`count_disk_write`; whatever
    operation context is current absorbs the counts in addition to the
    global totals.

    The current context is the operation that began last, so per-op
    counts are exact only when operations run one at a time.  While
    operations overlap (a pipelined session, concurrent clients) the
    totals stay exact but the split between operations does not: four
    pipelined RS(3,5) stripe writes (80 messages) record 5/5/5/65
    messages and 0/0/0/8 round trips.  :meth:`summary` rows are Table 1
    figures only for sequential runs.

    Counters are always on and O(1) per event; the *history* of
    per-operation records is what can grow without bound over long
    runs.  ``history_limit`` bounds it (keeping the most recent
    records) so 10k+-op benchmark runs keep metric memory flat; the
    scalar totals are unaffected.
    """

    def __init__(self, history_limit: Optional[int] = None) -> None:
        self.total_messages = 0
        self.total_bytes = 0
        self.total_disk_reads = 0
        self.total_disk_writes = 0
        self.dropped_messages = 0
        self.total_retransmissions = 0
        self.ops_started = 0
        self.ops_finished = 0
        #: Checksum-failed loads detected by replicas (one per register
        #: quarantined, not per retransmitted reply).
        self.checksum_failures = 0
        #: Client reads whose recovery routed around corrupt fragments
        #: (and whose write-back repaired them).  A read that went
        #: around a crashed or silent brick (``"retarget"`` ops) is not
        #: one: nothing there was corrupt.
        self.degraded_reads = 0
        #: Registers repaired by the scrub daemon's write-back.
        self.scrub_repairs = 0
        #: Register sweeps completed by the scrub daemon.
        self.scrub_scans = 0
        #: Corruptions first found by the scrubber (vs. by client I/O).
        self.scrub_detections = 0
        #: Sum of (repair time - injection/detection time) over scrub
        #: repairs, for mean time-to-repair reporting.
        self.scrub_repair_time = 0.0
        self.operations: "List[OpMetrics]" = (
            deque(maxlen=history_limit) if history_limit is not None else []
        )  # type: ignore[assignment]
        self.sessions: List[SessionStats] = []
        self._current: Optional[OpMetrics] = None

    # -- operation scoping ---------------------------------------------

    def begin_op(self, kind: str, now: float) -> OpMetrics:
        """Open a per-operation context; returns its counter object."""
        op = OpMetrics(kind=kind, started_at=now)
        self.ops_started += 1
        self.operations.append(op)
        self._current = op
        return op

    def end_op(self, op: OpMetrics, now: float, aborted: bool = False) -> None:
        """Close an operation context."""
        op.finished_at = now
        op.aborted = aborted
        self.ops_finished += 1
        if self._current is op:
            self._current = None

    # -- session scoping --------------------------------------------------

    def begin_session(self, now: float = 0.0) -> SessionStats:
        """Open a per-session counter block; returns it for direct updates."""
        stats = SessionStats(started_at=now)
        self.sessions.append(stats)
        return stats

    # -- counting hooks --------------------------------------------------

    def count_retransmission(self) -> None:
        """Record one quorum-phase retransmission round."""
        self.total_retransmissions += 1

    def count_message(self, size: int) -> None:
        """Record one protocol message of ``size`` payload bytes."""
        self.total_messages += 1
        self.total_bytes += size
        if self._current is not None:
            self._current.messages += 1
            self._current.bytes_sent += size

    def count_drop(self) -> None:
        """Record a message dropped by the network."""
        self.dropped_messages += 1

    def count_disk_read(self, blocks: int = 1) -> None:
        """Record replica disk reads."""
        self.total_disk_reads += blocks
        if self._current is not None:
            self._current.disk_reads += blocks

    def count_disk_write(self, blocks: int = 1) -> None:
        """Record replica disk writes."""
        self.total_disk_writes += blocks
        if self._current is not None:
            self._current.disk_writes += blocks

    def count_round_trip(self) -> None:
        """Record one request-reply messaging phase."""
        if self._current is not None:
            self._current.round_trips += 1

    def count_checksum_failure(self, count: int = 1) -> None:
        """Record detection of checksum-failed persistent state."""
        self.checksum_failures += count

    def count_degraded_read(self) -> None:
        """Record a read served from < n fragments due to corruption."""
        self.degraded_reads += 1

    def count_scrub_repair(self, elapsed: float = 0.0) -> None:
        """Record one scrub-daemon repair taking ``elapsed`` sim time."""
        self.scrub_repairs += 1
        self.scrub_repair_time += elapsed

    def count_scrub_scan(self) -> None:
        """Record one completed scrub verification of a register/brick."""
        self.scrub_scans += 1

    def count_scrub_detection(self) -> None:
        """Record a corruption first detected by the scrub daemon."""
        self.scrub_detections += 1

    @property
    def mean_time_to_repair(self) -> float:
        """Mean sim-time between detection and repair for scrub repairs."""
        if not self.scrub_repairs:
            return 0.0
        return self.scrub_repair_time / self.scrub_repairs

    # -- reporting -------------------------------------------------------

    def by_kind_and_path(self) -> Dict[str, List[OpMetrics]]:
        """Group finished operations by ``"kind/path"`` label."""
        groups: Dict[str, List[OpMetrics]] = {}
        for op in self.operations:
            if op.finished_at is None:
                continue
            groups.setdefault(f"{op.kind}/{op.path}", []).append(op)
        return groups

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Mean counters per operation group — the measured Table 1 rows."""
        result: Dict[str, Dict[str, float]] = {}
        for label, ops in self.by_kind_and_path().items():
            count = len(ops)
            result[label] = {
                "count": count,
                "messages": sum(o.messages for o in ops) / count,
                "bytes": sum(o.bytes_sent for o in ops) / count,
                "disk_reads": sum(o.disk_reads for o in ops) / count,
                "disk_writes": sum(o.disk_writes for o in ops) / count,
                "latency_delta": sum(o.latency_in_delta for o in ops) / count,
                "abort_rate": sum(1 for o in ops if o.aborted) / count,
            }
        return result
