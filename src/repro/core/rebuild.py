"""Brick scrubbing and rebuild.

The reliability model (Figures 2-3) assumes a failed brick's data is
re-protected within hours by a *distributed rebuild*: every surviving
brick contributes, and the replacement (or the recovered brick itself)
is brought back to full redundancy.  The protocol makes this trivially
safe — a rebuild is just a recovery (``read-prev-stripe`` +
``store-stripe``) per register, pushed to *all* live bricks instead of
a bare quorum — but the paper never spells out the machinery.  This
module provides it:

* :class:`Scrubber` — read-only audit: for each register, collect every
  replica's newest version and classify bricks as current, stale, or
  empty.  Used by operators (and tests) to see where redundancy stands.
* :class:`Rebuilder` — repair: re-run recovery for chosen registers with
  a full-coverage write-back, so every live brick (in particular a
  freshly recovered or replaced one) ends up holding its block of the
  latest value.

Both run through the ordinary protocol messages, so they are safe under
concurrent client I/O: a rebuild is linearized like any other write
(and aborts, harmlessly, if it races a newer client write).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import CorruptionDetected
from ..timestamps import Timestamp
from ..types import ABORT, ProcessId
from .cluster import FabCluster

__all__ = ["ScrubReport", "Scrubber", "RebuildReport", "Rebuilder"]


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
    """Read-only redundancy audit over a cluster's replicas.

    The scrubber inspects replica state directly (an operator tool, not
    a protocol participant), so it costs no protocol messages and never
    perturbs timestamps.
    """

    def __init__(self, cluster: FabCluster) -> None:
        self.cluster = cluster

    def scrub_register(self, register_id: int) -> ScrubReport:
        """Audit one register across all bricks."""
        report = ScrubReport(register_id=register_id)
        versions: Dict[ProcessId, Timestamp] = {}
        for pid, replica in self.cluster.replicas.items():
            node = self.cluster.nodes[pid]
            if not node.is_up:
                report.down.append(pid)
                continue
            if not replica.has_register(register_id):
                # No state at all (blank replacement brick): distinct
                # from stale, and checked *without* materializing a
                # phantom RegisterState on the replica.
                report.empty.append(pid)
                continue
            try:
                versions[pid] = replica.state(register_id).log.max_ts()
            except CorruptionDetected:
                report.corrupt.append(pid)
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
        cluster: the cluster to repair.
        route: the pid of the brick that coordinates rebuild
            operations; it must be up (pick any survivor).  Defaults to
            brick 1.
    """

    def __init__(
        self, cluster: FabCluster, route: Optional[ProcessId] = None
    ) -> None:
        self.cluster = cluster
        self.route = route
        self.scrubber = Scrubber(cluster)

    def rebuild_register(self, register_id: int) -> str:
        """Bring every up brick to the newest version of one register.

        Runs the coordinator's recovery (which re-reads the latest
        recoverable version and writes it back at a fresh timestamp)
        with the write-back required to reach *every live brick*, not
        just an m-quorum.  Returns ``"repaired"``, ``"current"`` (no
        work needed), or ``"aborted"`` (lost a race with a client
        write; safe to retry).
        """
        report = self.scrubber.scrub_register(register_id)
        if report.fully_redundant:
            return "current"
        coordinator = self.cluster.register(register_id, self.route).coordinator
        process = coordinator.node.spawn(
            coordinator._recover(register_id, prefer=live_coverage(self.cluster))
        )
        result = self.cluster.transport.run_until_complete(process)
        return "aborted" if result is ABORT else "repaired"

    def rebuild(self, register_ids: Iterable[int],
                retries: int = 2) -> RebuildReport:
        """Rebuild a set of registers (e.g. everything a dead brick held).

        Races with client writes abort individual registers; those are
        retried up to ``retries`` times (the client write already
        re-protected the data at quorum, so a retry usually finds the
        register merely stale, not at risk).
        """
        report = RebuildReport()
        for register_id in register_ids:
            report.attempted += 1
            outcome = "aborted"
            for _attempt in range(retries + 1):
                outcome = self.rebuild_register(register_id)
                if outcome != "aborted":
                    break
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
