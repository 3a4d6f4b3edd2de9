"""Brick scrubbing and rebuild: the one maintenance plane.

The reliability model (Figures 2-3) assumes a failed brick's data is
re-protected within hours by a *distributed rebuild*: every surviving
brick contributes, and the replacement (or the recovered brick itself)
is brought back to full redundancy.  The protocol makes this trivially
safe — a rebuild is just a recovery (``read-prev-stripe`` +
``store-stripe``) per register, pushed to *all* live bricks instead of
a bare quorum — but the paper never spells out the machinery.  This
module provides it, once for every caller:

* :class:`Scrubber` — audit: for each register, verify every up
  brick's stored copy (:meth:`~repro.core.replica.Replica.audit`, the
  one copy audit) and classify bricks as current, stale, corrupt or
  empty.
* :func:`start_repair` — the one repair launch: recovery with a
  :func:`live_coverage` write-back, coordinated by the first live brick
  other than the one under repair.  The scrub daemon, the
  :class:`Rebuilder` and the sharded fleet's ``rebuild_brick`` all
  launch repairs here.
* :class:`Rebuilder` — synchronous repair with the one retry rule:
  up to ``_REPAIR_ATTEMPTS`` launches per register, re-auditing before
  each, so every live brick (in particular a freshly recovered or
  replaced one) ends up holding its block of the latest value.

Repairs run through the ordinary protocol messages, so they are safe
under concurrent client I/O: a rebuild is linearized like any other
write (and aborts, harmlessly, if it races a newer client write).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import StorageError
from ..timestamps import Timestamp
from ..types import ABORT, ProcessId
from .cluster import FabCluster

__all__ = [
    "ScrubReport", "Scrubber", "RebuildReport", "Rebuilder", "start_repair",
]

#: Launches a synchronous repair makes per register before reporting
#: ``"aborted"`` — each abort means a racing client write won.
_REPAIR_ATTEMPTS = 3


@dataclass
class ScrubReport:
    """Redundancy audit for one register.

    Attributes:
        register_id: the audited stripe.
        newest_ts: highest version timestamp seen on any replica.
        current: bricks whose log reflects ``newest_ts``.
        stale: bricks holding only older versions.
        down: bricks that could not be audited (crashed).
        corrupt: up bricks whose persistent state failed checksum
            verification (quarantined) — their fragment is lost until a
            repair write-back replaces it.
        empty: up bricks holding *no* state for the register at all —
            typically a blank replacement brick (hot spare promoted
            after a crash).  An empty brick contributes nothing to
            redundancy, so it counts against :attr:`fully_redundant`
            whenever some other brick does hold the register.
    """

    register_id: int
    newest_ts: Optional[Timestamp] = None
    current: List[ProcessId] = field(default_factory=list)
    stale: List[ProcessId] = field(default_factory=list)
    down: List[ProcessId] = field(default_factory=list)
    corrupt: List[ProcessId] = field(default_factory=list)
    empty: List[ProcessId] = field(default_factory=list)

    @property
    def fully_redundant(self) -> bool:
        """True iff every up brick reflects the newest version.

        An up-but-empty brick breaks full redundancy when the register
        exists elsewhere: it should be holding its block and is not
        (the bug this guards against — a freshly promoted spare passing
        the audit and silently skipping re-protection).
        """
        if self.stale or self.corrupt:
            return False
        return not (self.empty and self.newest_ts is not None)

    @property
    def redundancy(self) -> int:
        """Bricks holding the newest version — the margin before data loss."""
        return len(self.current)


class Scrubber:
    """Redundancy audit over a cluster's replicas.

    The scrubber inspects replica state directly (an operator tool, not
    a protocol participant), so it costs no protocol messages and never
    perturbs timestamps.  Each copy goes through
    :meth:`~repro.core.replica.Replica.audit`: a copy whose stored log
    fails its checksum is quarantined and reported corrupt even when a
    warm volatile mirror still holds the old value.
    """

    def __init__(self, cluster: FabCluster) -> None:
        self.cluster = cluster

    def scrub_register(self, register_id: int) -> ScrubReport:
        """Audit one register across all bricks."""
        report = ScrubReport(register_id=register_id)
        versions: Dict[ProcessId, Timestamp] = {}
        for pid, replica in self.cluster.replicas.items():
            if not self.cluster.nodes[pid].is_up:
                report.down.append(pid)
            elif not replica.has_register(register_id):
                # No state at all (blank replacement brick): distinct
                # from stale, and checked *without* materializing a
                # phantom RegisterState on the replica.
                report.empty.append(pid)
            elif not replica.audit(register_id):
                report.corrupt.append(pid)
            else:
                versions[pid] = replica.state(register_id).log.max_ts()
        if not versions:
            return report
        report.newest_ts = max(versions.values())
        for pid, version in sorted(versions.items()):
            if version == report.newest_ts:
                report.current.append(pid)
            else:
                report.stale.append(pid)
        return report

    def scrub(self, register_ids: Iterable[int]) -> List[ScrubReport]:
        """Audit a set of registers."""
        return [self.scrub_register(register_id) for register_id in register_ids]

    def stale_registers(self, register_ids: Iterable[int]) -> List[int]:
        """Registers where at least one up brick is stale."""
        return [
            report.register_id
            for report in self.scrub(register_ids)
            if not report.fully_redundant
        ]


def live_coverage(cluster: FabCluster):
    """Prefer predicate for a repair's write-back: every live brick.

    Coverage is resolved *per reply*, not snapshotted up front: the
    write-back completes as soon as every currently-live brick has
    replied.  A brick crashing mid-repair shrinks the live set, so the
    predicate re-evaluates against the survivors — and even if the last
    reply never arrives, the quorum + grace fallback in the RPC layer
    terminates the phase.
    """
    def covered(replies) -> bool:
        return set(cluster.live_processes()) <= set(replies)

    return covered


def start_repair(
    cluster: FabCluster, register_id: int, avoid: Optional[ProcessId] = None
):
    """Launch one repair of ``register_id``; the spawned process or None.

    The repair is the coordinator's recovery (re-read the latest
    recoverable version, write it back at a fresh timestamp) with the
    write-back required to reach every live brick
    (:func:`live_coverage`).  The first live brick other than ``avoid``
    (the brick under repair) coordinates; None when no brick can.
    """
    live = [pid for pid in cluster.live_processes() if pid != avoid]
    if not live:
        return None
    pid = live[0]
    generator = cluster.coordinators[pid]._recover(
        register_id, prefer=live_coverage(cluster)
    )
    try:
        return cluster.nodes[pid].spawn(generator)
    except StorageError:
        generator.close()
        return None


@dataclass
class RebuildReport:
    """Outcome of a rebuild pass."""

    attempted: int = 0
    repaired: int = 0
    already_current: int = 0
    aborted: int = 0

    @property
    def success(self) -> bool:
        return self.aborted == 0


class Rebuilder:
    """Repairs redundancy by recovery-with-full-coverage.

    Args:
        cluster: the cluster to repair.  Every repair is coordinated by
            the first live brick (see :func:`start_repair`).
    """

    def __init__(self, cluster: FabCluster) -> None:
        self.cluster = cluster
        self.scrubber = Scrubber(cluster)

    def rebuild_register(
        self, register_id: int, avoid: Optional[ProcessId] = None
    ) -> str:
        """Bring every up brick to the newest version of one register.

        Audits the register, then launches a repair (:func:`start_repair`,
        coordinated away from ``avoid``) if any up brick is stale,
        corrupt or empty.  A repair that loses a race with a client
        write is retried, re-audited first, up to ``_REPAIR_ATTEMPTS``
        launches in all (the client write already re-protected the data
        at quorum, so a retry usually finds the register merely stale,
        not at risk).  Returns ``"repaired"``, ``"current"`` (no work
        needed), or ``"aborted"`` (every attempt lost its race).
        """
        for _attempt in range(_REPAIR_ATTEMPTS):
            if self.scrubber.scrub_register(register_id).fully_redundant:
                return "current"
            process = start_repair(self.cluster, register_id, avoid)
            if process is None:
                break
            if self.cluster.transport.run_until_complete(process) is not ABORT:
                return "repaired"
        return "aborted"

    def rebuild(self, register_ids: Iterable[int]) -> RebuildReport:
        """Rebuild a set of registers (e.g. everything a dead brick held)."""
        report = RebuildReport()
        for register_id in register_ids:
            report.attempted += 1
            outcome = self.rebuild_register(register_id)
            if outcome == "repaired":
                report.repaired += 1
            elif outcome == "current":
                report.already_current += 1
            else:
                report.aborted += 1
        return report

    def rebuild_brick(self, pid: ProcessId, register_ids: Iterable[int]):
        """Convenience: recover brick ``pid`` and repair its registers."""
        self.cluster.recover(pid)
        return self.rebuild(register_ids)
