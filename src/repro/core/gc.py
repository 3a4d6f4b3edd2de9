"""Log garbage collection (paper Section 5.1).

For correctness it suffices that each process remember the most recent
timestamp-data pair that was part of a *complete* write.  After a
coordinator has updated a full quorum with timestamp ``ts`` it may,
asynchronously, tell all processes to discard log entries older than
``ts``.

The online path is built into the protocol: set
``CoordinatorConfig.gc_enabled`` and every complete write — a
``store-stripe`` or a fast-path ``Modify`` that reached an all-true
quorum — broadcasts a :class:`~repro.core.messages.GcReq`.  This
module adds an *offline* collector for inspection and batch trimming,
plus log-size statistics used by the GC benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import CorruptionDetected
from ..timestamps import Timestamp
from .replica import Replica

__all__ = ["LogStats", "TrimReport", "GarbageCollector"]


@dataclass
class LogStats:
    """Aggregate log sizes across replicas for one register."""

    register_id: int
    entries_per_replica: Dict[int, int]

    @property
    def total_entries(self) -> int:
        return sum(self.entries_per_replica.values())

    @property
    def max_entries(self) -> int:
        return max(self.entries_per_replica.values(), default=0)


@dataclass
class TrimReport:
    """Outcome of one offline :meth:`GarbageCollector.trim` pass.

    Attributes:
        removed: entries removed per *live* replica (by process id).
        skipped_down: replicas that were down and therefore untouched —
            their logs keep the stale entries until an online GC notice
            or a later offline pass reaches them after recovery.
        skipped_quarantined: replicas whose copy of the register failed
            checksum verification — compacting a corrupt log would
            destroy the very evidence the repair path (degraded read /
            scrub write-back) needs, so GC leaves it untouched.
    """

    register_id: int
    ts: Timestamp
    removed: Dict[int, int] = field(default_factory=dict)
    skipped_down: List[int] = field(default_factory=list)
    skipped_quarantined: List[int] = field(default_factory=list)

    @property
    def total_removed(self) -> int:
        return sum(self.removed.values())


class GarbageCollector:
    """Offline log inspection and trimming across a set of replicas.

    Args:
        replicas: mapping process id → replica (as built by FabCluster).
    """

    def __init__(self, replicas: Dict[int, Replica]) -> None:
        self.replicas = replicas

    def stats(self, register_id: int) -> LogStats:
        """Current per-replica log sizes for ``register_id``.

        Quarantined (checksum-failed) copies are omitted: their logs
        cannot be trusted enough to even count entries.
        """
        entries: Dict[int, int] = {}
        for pid, replica in self.replicas.items():
            try:
                entries[pid] = len(replica.state(register_id).log)
            except CorruptionDetected:
                continue
        return LogStats(register_id=register_id, entries_per_replica=entries)

    def trim(self, register_id: int, ts: Timestamp) -> TrimReport:
        """Trim live replica logs below ``ts``; reports per-replica removals.

        Only safe when ``ts`` is the timestamp of a complete write (one
        that reached a full quorum) — the caller asserts this, exactly
        as the protocol's coordinator does before broadcasting GC.

        Crashed replicas are *skipped* and reported, never mutated: a
        down brick cannot execute a trim, and reaching into its stable
        store from outside would violate the crash-recovery model (the
        online GC notice such a brick misses is simply a lost message).
        """
        report = TrimReport(register_id=register_id, ts=ts)
        for pid, replica in self.replicas.items():
            if not replica.node.is_up:
                report.skipped_down.append(pid)
                continue
            try:
                state = replica.state(register_id)
            except CorruptionDetected:
                report.skipped_quarantined.append(pid)
                continue
            count = state.log.trim_below(ts)
            if count:
                # Route through the replica's persistence path so the
                # journal is compacted exactly as the online GC notice
                # would leave it.
                replica.persist_trim(register_id, state)
            report.removed[pid] = count
        return report

    def high_water_mark(self, register_id: int) -> int:
        """Largest log (in entries) across replicas — the GC bench metric."""
        return self.stats(register_id).max_entries
