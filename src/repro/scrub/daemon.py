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

One scheduler (:mod:`repro.scrub.sampler`).  Each wake-up scans a
budget of (register, brick) pairs: ``samples_per_tick`` if set, else
the sample size that detects corruption at the assumed rate with the
target confidence — independent of fleet size, and clamped to the pair
space, so a small cluster gets a full pass every wake-up.  The budget
goes first to a prioritized revisit queue (dirty / quarantined /
just-repaired registers), then to the next pairs of one seeded
permutation of the pair space.  The permutation is a *lap*: when it is
walked, the register set is re-resolved from the cluster and shuffled
afresh, and the lap counts as a completed sweep.  So registers created
after :meth:`ScrubDaemon.start` are scrubbed from the next lap on,
registers that no longer exist stop consuming scan budget, and every
pair is visited within ``ceil(pairs / budget)`` wake-ups (revisits
aside).  All randomness derives from ``ScrubConfig.seed``, so
fixed-seed campaigns stay deterministic.  Repair write-backs flow
through a budgeted queue (at most ``_MAX_INFLIGHT_REPAIRS`` at once)
ordered by fragments-lost severity, so a detection burst cannot flood
the protocol with rebuild traffic.

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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..types import ABORT, ProcessId
from ..core.cluster import FabCluster
from ..core.rebuild import start_repair
from .sampler import PairSampler, RepairQueue, RevisitQueue, required_samples

__all__ = ["ScrubConfig", "ScrubDaemon"]

#: Revisit priority for a just-repaired register (re-verify the
#: write-back); detections enqueue at ``1.0 + fragments lost``, so
#: known-dirty registers always outrank post-repair re-checks.
_REVISIT_REPAIRED = 0.5
#: Assumed corrupt fraction of the (register, brick) pair space, from
#: which the confidence target derives the per-wake-up scan budget.
_ASSUMED_CORRUPT_RATE = 0.01
#: Share of each wake-up's budget reserved for the revisit queue.
_REVISIT_FRACTION = 0.25
#: Concurrent repair write-backs.
_MAX_INFLIGHT_REPAIRS = 4
#: Bound on retained first-detection marks (the MTTR accounting map);
#: the oldest marks are evicted beyond it.
_DETECTED_LIMIT = 4096


@dataclass
class ScrubConfig:
    """Scrub-daemon knobs.

    Attributes:
        interval: simulated time between daemon wake-ups.  Together
            with the per-wake-up scan budget this is the rate limit.
        seed: sampling RNG seed; fixed seeds reproduce identical scan
            sequences.
        target_confidence: per-wake-up probability of detecting
            corruption at a 1% corrupt rate, used to derive the scan
            budget via :func:`~repro.scrub.sampler.required_samples`.
        samples_per_tick: explicit scan budget per wake-up (None =
            derive from the confidence target; the derived budget is
            clamped to the pair-space size, so tiny clusters get a full
            pass every wake-up).  A budget of at least the pair count
            is a full pass every wake-up on any cluster.

    Repair write-backs coordinate on the first live brick.
    """

    interval: float = 20.0
    seed: int = 0
    target_confidence: float = 0.95
    samples_per_tick: Optional[int] = None

    def __post_init__(self) -> None:
        # A zero interval re-arms the tick at the same instant (the
        # simulation never advances); the rest would fail late, inside
        # the first tick, or silently scan nothing.
        for name, ok, want in (
            ("interval", self.interval > 0, "> 0"),
            ("target_confidence", 0 < self.target_confidence < 1, "in (0, 1)"),
            ("samples_per_tick", self.samples_per_tick is None
             or self.samples_per_tick >= 1, ">= 1 when set"),
        ):
            if not ok:
                raise ConfigurationError(
                    f"{name} must be {want}, got {getattr(self, name)!r}"
                )


class ScrubDaemon:
    """Rate-limited background verify-and-repair scheduler over a cluster.

    Args:
        cluster: the cluster to scrub (its metrics sink absorbs all
            scrub counters).
        registers: optional register-id filter.  ``None`` (recommended)
            scrubs every register the cluster holds, re-resolved when
            each lap starts; an explicit iterable restricts
            scanning to those ids (still intersected with what actually
            exists, so ids never written — or GC'd away — cost no scan
            budget).
        config: scan budget and rate limit.
        horizon: simulated time after which the daemon stops itself
            (None = run until :meth:`stop`).

    The daemon is driven by simulation timers: call :meth:`start` once
    and let the environment run.  :meth:`sweep_now` is the synchronous
    alternative for tools that want one full verification pass without
    waiting for timers.
    """

    def __init__(
        self,
        cluster: FabCluster,
        registers: Optional[Iterable[int]] = None,
        config: Optional[ScrubConfig] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self.cluster = cluster
        self._register_filter: Optional[Set[int]] = (
            None if registers is None else set(registers)
        )
        self.config = config or ScrubConfig()
        self.horizon = horizon
        self.metrics = cluster.metrics
        self.running = False
        self.sweeps_completed = 0
        self.repairs_done = 0
        self.repair_aborts = 0
        #: (time, pid, register_id) for every scrub-detected corruption.
        self.detections: List[Tuple[float, int, int]] = []
        #: The registers of the sampler's current lap.
        self._lap_registers: Set[int] = set()
        #: (pid, register_id) -> sim time the daemon first saw it dirty.
        #: Bounded by ``_DETECTED_LIMIT``; marks clear when a
        #: repair lands *or a later scan verifies the pair clean* (a
        #: client write may repair it behind the daemon's back).
        self._detected_at: Dict[Tuple[int, int], float] = {}
        self._sampler = PairSampler(seed=self.config.seed)
        self._revisit = RevisitQueue()
        self._repairs = RepairQueue(max_inflight=_MAX_INFLIGHT_REPAIRS)

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
        self.cluster.transport.set_timer(self.config.interval, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        if (
            self.horizon is not None
            and self.cluster.transport.now() >= self.horizon
        ):
            self.stop()
            return
        self._step()
        self._pump_repairs()
        self._arm_timer()

    # -- the register/pair universe -----------------------------------------

    @property
    def registers(self) -> List[int]:
        """The registers currently subject to scrubbing (sorted).

        Resolved live from the cluster — never a stale construction
        snapshot — intersected with the optional id filter.
        """
        ids = self.cluster.register_ids()
        if self._register_filter is not None:
            ids = [r for r in ids if r in self._register_filter]
        return ids

    def _pairs(self, registers: List[int]) -> List[Tuple[int, int]]:
        n = self.cluster.config.n
        return [
            (register_id, pid)
            for register_id in registers
            for pid in range(1, n + 1)
        ]

    # -- scheduling ----------------------------------------------------------

    def _budget(self, total_pairs: int) -> int:
        if self.config.samples_per_tick is not None:
            return min(self.config.samples_per_tick, total_pairs)
        return required_samples(
            self.config.target_confidence,
            _ASSUMED_CORRUPT_RATE,
            total_pairs,
        )

    def _step(self) -> None:
        """One wake-up: revisits first, then the lap's next pairs.

        A budget covering the whole pair space is a full lap, which
        re-verifies every revisit candidate anyway.
        """
        sampler = self._sampler
        if sampler.lap_done:
            # Resolving walks every brick's store, so it happens once
            # per lap, not every wake-up.
            registers = self.registers
            sampler.start_lap(self._pairs(registers))
            self._lap_registers = set(registers)
        budget = self._budget(len(sampler.lap))
        scanned = 0
        if budget < len(sampler.lap):
            scanned = self._scan_revisits(budget, self._lap_registers)
        drawn = sampler.draw(budget - scanned)
        for register_id, pid in drawn:
            self._scan_one(pid, register_id)
        if drawn and sampler.lap_done:
            self.sweeps_completed += 1

    def _scan_revisits(self, budget: int, live_registers: Set[int]) -> int:
        """Re-verify queued registers; returns the pairs scanned.

        Priority revisits: dirty / quarantined / just-repaired
        registers, highest severity first.  Each revisit re-verifies
        the whole register (all n bricks) — damage severity is a
        per-register property.  A register found still dirty
        re-enqueues itself via the detection path, for the *next*
        wake-up (popped ids are deduped within this one).
        """
        n = self.cluster.config.n
        revisit_budget = int(budget * _REVISIT_FRACTION)
        popped: List[int] = []
        while revisit_budget >= n:
            register_id = self._revisit.pop()
            if register_id is None or register_id in popped:
                break
            popped.append(register_id)
            revisit_budget -= n
        scanned = 0
        for register_id in popped:
            if register_id not in live_registers:
                continue  # deleted since it was enqueued
            for pid in range(1, n + 1):
                self._scan_one(pid, register_id)
                scanned += 1
        return scanned

    # -- the scan primitive --------------------------------------------------

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
        self._revisit.push(register_id, 1.0 + self._fragments_lost(register_id))

    def _fragments_lost(self, register_id: int) -> int:
        """Bricks whose copy of the register is known dirty."""
        quarantined = sum(
            1
            for replica in self.cluster.replicas.values()
            if register_id in replica.quarantined
        )
        marked = sum(
            1 for _pid, marked_id in self._detected_at if marked_id == register_id
        )
        return max(quarantined, marked)

    # -- repair --------------------------------------------------------------

    def _offer_repair(self, register_id: int) -> None:
        self._repairs.offer(register_id, self._fragments_lost(register_id))
        self._pump_repairs()

    def _pump_repairs(self) -> None:
        """Admit queued repairs up to the concurrency budget."""
        while True:
            register_id = self._repairs.next_ready()
            if register_id is None:
                return
            if not self._start_repair(register_id):
                # Could not start (no live coordinator, crash race):
                # release the slot and stand down — the register stays
                # dirty, so a later scan re-offers.
                self._repairs.finished(register_id)
                return

    def _start_repair(self, register_id: int) -> bool:
        process = start_repair(self.cluster, register_id)
        if process is None:
            return False
        process._add_callback(
            lambda event, r=register_id: self._repair_done(r, event)
        )
        return True

    def _repair_done(self, register_id: int, event) -> None:
        self._repairs.finished(register_id)
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
        # Re-verify the write-back ahead of cold registers.
        self._revisit.push(register_id, _REVISIT_REPAIRED)
        self._pump_repairs()

    # -- synchronous use ------------------------------------------------------

    def sweep_now(self) -> int:
        """One full verification pass, right now; returns pairs scanned.

        Scans the current pair space in register order, whatever the
        budget (the point of the synchronous form is *complete*
        coverage).  Repairs found along the way are *scheduled* (they
        run through the protocol); advance the simulation to let them
        complete.
        """
        pairs = self._pairs(self.registers)
        for register_id, pid in pairs:
            self._scan_one(pid, register_id)
        if pairs:
            self.sweeps_completed += 1
        self._pump_repairs()
        return len(pairs)

    def summary(self) -> Dict[str, float]:
        """Daemon-local progress counters (metrics hold the totals)."""
        return {
            "sweeps_completed": self.sweeps_completed,
            "detections": len(self.detections),
            "repairs_done": self.repairs_done,
            "repair_aborts": self.repair_aborts,
            "pending_repairs": self._repairs.inflight,
            "queued_repairs": self._repairs.queued,
            "revisit_queue": len(self._revisit),
            "tracked_marks": len(self._detected_at),
        }
