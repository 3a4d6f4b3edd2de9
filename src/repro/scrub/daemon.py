"""The background scrub-and-repair daemon.

Checksummed persistence (:mod:`repro.sim.node`) turns silent corruption
into *detectable* corruption, and the degraded-read path routes around
it — but only for data a client happens to read.  Latent damage in cold
registers would otherwise sit until enough fragments rot to defeat the
code.  The scrub daemon closes that gap: a rate-limited background
process that verifies stored envelope checksums brick by brick and
repairs any damage it finds by erasure-decoding the surviving fragments
and writing the stripe back (the one repair launch,
:func:`~repro.core.rebuild.start_repair`, so the repaired brick ends up
holding its fragment again).

One scan order.  Each wake-up is one full pass: every (register,
brick) pair, in ``(register_id, pid)`` order, over the registers the
cluster holds at that moment (:meth:`~repro.core.cluster.FabCluster.
register_ids`).  So a register created after :meth:`ScrubDaemon.start`
is scrubbed from the next wake-up on, and one that no longer exists
costs nothing.  The interval is the rate limit.  Repair write-backs
are admitted first in, first out, at most ``_MAX_INFLIGHT_REPAIRS`` at
once, so a detection burst cannot flood the protocol with rebuild
traffic.

Detection is an *offline* audit — the one copy audit,
:meth:`~repro.core.replica.Replica.audit`, reads stable storage
directly, costing no protocol messages and never perturbing
timestamps.  Repair runs through the ordinary protocol, so
it is linearized like any client write and safe under concurrent I/O
(an abort just means a racing client write already re-protected the
data; the next scan retries).

All progress is reported through :class:`~repro.sim.monitor.Metrics`
(``scrub_scans`` / ``scrub_detections`` / ``scrub_repairs`` and the
repair-time accumulator behind ``mean_time_to_repair``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..types import ABORT, ProcessId
from ..core.cluster import FabCluster
from ..core.rebuild import start_repair

__all__ = ["ScrubDaemon"]

#: Concurrent repair write-backs.
_MAX_INFLIGHT_REPAIRS = 4
#: Bound on retained first-detection marks (the MTTR accounting map);
#: the oldest marks are evicted beyond it.
_DETECTED_LIMIT = 4096


class ScrubDaemon:
    """Rate-limited background verify-and-repair pass over a cluster.

    Args:
        cluster: the cluster to scrub (its metrics sink absorbs all
            scrub counters).  Every register it holds is scrubbed.
        interval: simulated time between wake-ups, each a full pass;
            the rate limit.  Must be > 0.
        horizon: simulated time after which the daemon stops itself
            (None = run until :meth:`stop`).

    Repair write-backs coordinate on the first live brick.  The daemon
    is driven by simulation timers: call :meth:`start` once and let the
    environment run.  :meth:`sweep_now` is the synchronous alternative
    for tools that want one pass without waiting for timers.
    """

    def __init__(
        self,
        cluster: FabCluster,
        interval: float = 20.0,
        horizon: Optional[float] = None,
    ) -> None:
        # A zero interval re-arms the tick at the same instant: the
        # simulation would never advance.
        if not interval > 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        self.cluster = cluster
        self.interval = interval
        self.horizon = horizon
        self.metrics = cluster.metrics
        self.running = False
        self.sweeps_completed = 0
        self.repairs_done = 0
        self.repair_aborts = 0
        #: (time, pid, register_id) for every scrub-detected corruption.
        self.detections: List[Tuple[float, int, int]] = []
        #: (pid, register_id) -> sim time the daemon first saw it dirty.
        #: Bounded by ``_DETECTED_LIMIT``; marks clear when a
        #: repair lands *or a later scan verifies the pair clean* (a
        #: client write may repair it behind the daemon's back).
        self._detected_at: Dict[Tuple[int, int], float] = {}
        #: Registers waiting for a repair slot, in detection order.
        self._queued: Deque[int] = deque()
        self._inflight: Set[int] = set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin the background scan (idempotent)."""
        if self.running:
            return
        self.running = True
        self._arm_timer()

    def stop(self) -> None:
        """Stop waking up; in-flight repairs finish on their own."""
        self.running = False

    def _arm_timer(self) -> None:
        self.cluster.transport.set_timer(self.interval, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        if (
            self.horizon is not None
            and self.cluster.transport.now() >= self.horizon
        ):
            self.stop()
            return
        self.sweep_now()
        self._arm_timer()

    # -- the pass ------------------------------------------------------------

    def sweep_now(self) -> int:
        """One full verification pass, right now; returns pairs scanned.

        Repairs found along the way are *scheduled* (they run through
        the protocol); advance the simulation to let them complete.
        """
        register_ids = self.cluster.register_ids()
        for register_id in register_ids:
            for pid in range(1, self.cluster.config.n + 1):
                self._scan_one(pid, register_id)
        if register_ids:
            self.sweeps_completed += 1
        self._pump_repairs()
        return len(register_ids) * self.cluster.config.n

    def _scan_one(self, pid: ProcessId, register_id: int) -> None:
        node = self.cluster.nodes.get(pid)
        replica = self.cluster.replicas.get(pid)
        if node is None or not node.is_up:
            return
        self.metrics.count_scrub_scan()
        # Quarantined already: client I/O found it first, and our job
        # is only the repair.
        known = register_id in replica.quarantined
        if replica.audit(register_id):
            # Clean — possibly repaired by a client write since we last
            # marked it.
            self._detected_at.pop((pid, register_id), None)
            return
        if not known:
            # Latent damage found before any client read did; the audit
            # has quarantined the copy.
            self.metrics.count_scrub_detection()
            self.detections.append(
                (self.cluster.transport.now(), pid, register_id)
            )
        self._mark_dirty(pid, register_id)
        self._offer_repair(register_id)

    def _mark_dirty(self, pid: ProcessId, register_id: int) -> None:
        self._detected_at.setdefault(
            (pid, register_id), self.cluster.transport.now()
        )
        while len(self._detected_at) > _DETECTED_LIMIT:
            # Evict the oldest mark (dict preserves insertion order) —
            # its repair, if any, just loses MTTR attribution.
            self._detected_at.pop(next(iter(self._detected_at)))

    # -- repair --------------------------------------------------------------

    def _offer_repair(self, register_id: int) -> None:
        if register_id not in self._inflight and register_id not in self._queued:
            self._queued.append(register_id)
        self._pump_repairs()

    def _pump_repairs(self) -> None:
        """Admit queued repairs up to the concurrency budget."""
        while self._queued and len(self._inflight) < _MAX_INFLIGHT_REPAIRS:
            register_id = self._queued.popleft()
            if not self._start_repair(register_id):
                # Could not start (no live coordinator, crash race):
                # stand down — the register stays dirty, so a later
                # scan re-offers.
                return

    def _start_repair(self, register_id: int) -> bool:
        process = start_repair(self.cluster, register_id)
        if process is None:
            return False
        self._inflight.add(register_id)
        process._add_callback(
            lambda event, r=register_id: self._repair_done(r, event)
        )
        return True

    def _repair_done(self, register_id: int, event) -> None:
        self._inflight.discard(register_id)
        if not event.ok or event.value is ABORT:
            # Lost a race (or the coordinator crashed): the quarantine
            # persists, so a later scan simply retries.
            self.repair_aborts += 1
            self._pump_repairs()
            return
        self.repairs_done += 1
        marks = [k for k in self._detected_at if k[1] == register_id]
        detected = min(
            (self._detected_at[k] for k in marks),
            default=self.cluster.transport.now(),
        )
        for key in marks:
            del self._detected_at[key]
        self.metrics.count_scrub_repair(
            self.cluster.transport.now() - detected
        )
        self._pump_repairs()

    def summary(self) -> Dict[str, float]:
        """Daemon-local progress counters (metrics hold the totals)."""
        return {
            "sweeps_completed": self.sweeps_completed,
            "detections": len(self.detections),
            "repairs_done": self.repairs_done,
            "repair_aborts": self.repair_aborts,
            "pending_repairs": len(self._inflight),
            "queued_repairs": len(self._queued),
            "tracked_marks": len(self._detected_at),
        }
