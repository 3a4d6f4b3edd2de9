"""Online invariant checking for fault campaigns.

Five invariants, checked *while the campaign runs* (not as a post-hoc
log analysis):

1. **Quorum-intersection preconditions** — the configuration must
   satisfy Theorem 2: ``n >= 2f + m``, equivalently any two quorums of
   size ``n - f`` intersect in at least ``m`` processes.  Checked once
   at campaign start; a deliberately broken configuration fails here at
   ``t = 0``.
2. **Recovery equivalence** — at every crash the monitor snapshots each
   register's persistent image (``ord-ts`` + the serialized log) from
   the replica's volatile mirror, which the ``store(var)`` discipline
   guarantees matches stable storage; after the matching recovery the
   freshly reloaded state must compare bit-for-bit equal.  This is the
   journal's "replay reconstructs exactly the log the mutations
   produced" contract, enforced under real crash schedules.
3. **Timestamp monotonicity** — per (replica, register), the observed
   ``ord-ts`` and ``max-ts(log)`` never decrease across samples (taken
   after every fault event and on a periodic timer).  Stable storage
   plus the handlers' guards make these high-water marks; a decrease
   means lost persistent state.
4. **Strict linearizability** — at campaign end the recorded history of
   every register is projected per block and checked against
   Definition 5 via :mod:`repro.verify`.
5. **Read verification** — no client read ever returns data that fails
   end-to-end verification: every OK read's blocks must be values the
   campaign actually wrote (all written payloads carry a unique seed
   tag), the all-zero block, or nil.  With checksums on, injected
   corruption is detected and routed around, so this never fires; a
   store built with ``StableStore(verify_checksums=False)`` demonstrates
   the detector is load-bearing by letting bit-flipped garbage reach
   clients.

Injected *corruption* events are faults, not violations: when the
campaign engine flips a bit it calls :meth:`CampaignMonitor.note_corruption`
so invariants 2 and 3 stand down for that (brick, register) — a
quarantined register refuses state reads until repaired, and its
post-repair log legitimately differs from any pre-crash image.  The
monitor only observes: it never loads a copy it knows is damaged
(loading would quarantine it), so the damage stays for a client read
or the scrub daemon to find.  It checks the pair's stored checksum
instead, which has no side effects, and resumes once the copy verifies
clean.

Violations are collected, never raised: a campaign run always completes
and reports, so the shrinker can re-run reduced schedules mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.cluster import FabCluster
from ..errors import CorruptionDetected
from ..quorum.theorems import max_fault_tolerance
from ..types import OpStatus
from ..verify.linearizability import check_strict_linearizability

__all__ = ["Violation", "CampaignMonitor"]


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    invariant: str  # quorum-precondition | recovery-equivalence |
    #                 timestamp-monotonicity | linearizability |
    #                 read-verification
    time: float  # simulated time of detection
    detail: str

    def to_dict(self) -> Dict:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "detail": self.detail,
        }


class CampaignMonitor:
    """Watches one cluster for invariant violations during a campaign."""

    def __init__(self, cluster: FabCluster) -> None:
        self.cluster = cluster
        self.violations: List[Violation] = []
        self.recoveries_checked = 0
        self.samples_taken = 0
        self.corruptions_noted = 0
        self.reads_verified = 0
        # (pid, register_id) -> (ord_ts, max_ts) high-water marks.
        self._ts_marks: Dict[Tuple[int, int], Tuple] = {}
        # pid -> {register_id: (ord_ts, serialized log)} at last crash.
        self._crash_images: Dict[int, Dict[int, Tuple]] = {}
        # (pid, register_id) corrupted and not yet seen verifying clean.
        self._unverified: Set[Tuple[int, int]] = set()
        self._check_quorum_preconditions()
        for pid, node in cluster.nodes.items():
            node.on_crash(lambda p=pid: self._snapshot_at_crash(p))
            # Registered after Replica's _reload hook, so by the time
            # this runs the replica serves freshly reloaded state.
            node.on_recovery(lambda p=pid: self._check_recovery(p))

    def _record(self, invariant: str, detail: str) -> None:
        self.violations.append(
            Violation(
                invariant=invariant,
                time=self.cluster.env.now,
                detail=detail,
            )
        )

    # -- invariant 1: quorum preconditions ---------------------------------

    def _check_quorum_preconditions(self) -> None:
        qs = self.cluster.quorum_system
        n, m, f = qs.n, qs.m, qs.f
        code = self.cluster.code
        bound = max_fault_tolerance(code)
        if f > bound:
            self._record(
                "quorum-precondition",
                f"f={f} exceeds floor((d-1)/2)={bound} for {code!r} "
                f"(d={code.min_distance}): two quorums can meet in a set "
                "that does not decode",
            )
        intersection = 2 * qs.quorum_size - n
        if intersection < m:
            self._record(
                "quorum-precondition",
                f"two quorums of size {qs.quorum_size} can intersect in "
                f"only {intersection} < m={m} processes",
            )

    # -- fault notifications ------------------------------------------------

    def note_corruption(self, pid: int, register_id: int) -> None:
        """The engine injected corruption into (brick, register).

        Withdraws monitor state the fault invalidates: the pending
        crash image (recovery will reload damaged-then-repaired state,
        not the pre-crash image) and the timestamp mark (a repair write
        starts a fresh log; its timestamps are still monotone, but the
        quarantine window makes the register unsampleable meanwhile).
        The pair is skipped until its stored copy verifies clean.
        """
        self.corruptions_noted += 1
        images = self._crash_images.get(pid)
        if images is not None:
            images.pop(register_id, None)
        self._ts_marks.pop((pid, register_id), None)
        self._unverified.add((pid, register_id))

    def _damaged(self, pid: int, register_id: int) -> bool:
        """Whether (brick, register) still holds noted, unrepaired damage.

        Reads the stored checksum only (:meth:`~repro.sim.node.
        StableStore.verify`), so the copy is neither loaded nor
        quarantined; a pair that verifies clean is forgotten.
        """
        key = (pid, register_id)
        if key not in self._unverified:
            return False
        replica = self.cluster.replicas[pid]
        if not replica.node.stable.verify(replica.log_key(register_id)):
            return True
        self._unverified.discard(key)
        return False

    # -- invariant 2: recovery equivalence ---------------------------------

    def _register_image(self, pid: int, register_id: int) -> Tuple:
        state = self.cluster.replicas[pid].state(register_id)
        return (state.ord_ts, tuple(state.log.to_state()))

    def _snapshot_at_crash(self, pid: int) -> None:
        replica = self.cluster.replicas[pid]
        images = {}
        for register_id in replica.register_ids():
            if self._unverified and self._damaged(pid, register_id):
                continue
            try:
                images[register_id] = self._register_image(pid, register_id)
            except CorruptionDetected:
                continue  # quarantined: no trustworthy image to hold
        self._crash_images[pid] = images

    def _check_recovery(self, pid: int) -> None:
        images = self._crash_images.pop(pid, None)
        if images is None:
            return
        self.recoveries_checked += 1
        for register_id, before in images.items():
            if self._unverified and self._damaged(pid, register_id):
                continue
            try:
                after = self._register_image(pid, register_id)
            except CorruptionDetected:
                # Corrupted while down (note_corruption only clears
                # images for faults it sees; direct store damage on a
                # crashed brick surfaces here): a fault, not a
                # violation.  Repair will restore the register.
                continue
            if after != before:
                self._record(
                    "recovery-equivalence",
                    f"brick {pid} register {register_id}: reloaded state "
                    f"differs from pre-crash persistent image "
                    f"(before={before!r}, after={after!r})",
                )

    # -- invariant 3: timestamp monotonicity -------------------------------

    def sample(self) -> None:
        """Record one observation of every live replica's timestamps."""
        self.samples_taken += 1
        for pid, replica in self.cluster.replicas.items():
            if not replica.node.is_up:
                continue
            for register_id in replica.register_ids():
                if self._unverified and self._damaged(pid, register_id):
                    continue
                try:
                    state = replica.state(register_id)
                except CorruptionDetected:
                    continue  # quarantined until repaired; nothing to mark
                current = (state.ord_ts, state.log.max_ts())
                mark = self._ts_marks.get((pid, register_id))
                if mark is not None and (
                    current[0] < mark[0] or current[1] < mark[1]
                ):
                    self._record(
                        "timestamp-monotonicity",
                        f"brick {pid} register {register_id}: observed "
                        f"(ord_ts, max_ts) went from {mark!r} to "
                        f"{current!r}",
                    )
                self._ts_marks[(pid, register_id)] = current

    # -- invariant 4: strict linearizability -------------------------------

    def check_history(self, register_id: int, recorder, m: int) -> int:
        """Check one register's completed history; returns blocks checked."""
        recorder.close()
        checked = 0
        for index in recorder.block_indices(m):
            result = check_strict_linearizability(
                recorder.per_block_history(index)
            )
            checked += 1
            if not result.ok:
                for violation in result.violations:
                    self._record(
                        "linearizability",
                        f"register {register_id} block {index}: {violation}",
                    )
        return checked

    # -- invariant 5: read verification ------------------------------------

    def check_read_integrity(
        self,
        register_id: int,
        recorder,
        written_blocks: Set[bytes],
        block_size: int,
    ) -> int:
        """Check every OK read returned only verifiable data.

        ``written_blocks`` is the set of payloads the campaign actually
        issued (each carries a unique seed tag, so any bit flip leaves
        the set).  The all-zero block and nil are the legitimate
        never-written values.  Returns the number of reads checked.
        """
        zero = bytes(block_size)
        checked = 0
        for record in recorder.records:
            if not record.is_read or record.status is not OpStatus.OK:
                continue
            checked += 1
            value = record.value
            blocks = value if isinstance(value, (list, tuple)) else [value]
            for position, block in enumerate(blocks):
                if block is None or block == zero or block in written_blocks:
                    continue
                self._record(
                    "read-verification",
                    f"register {register_id} op {record.op_id} "
                    f"({record.kind.value}) returned data failing "
                    f"end-to-end verification at block position "
                    f"{position}: {block[:32]!r}...",
                )
        self.reads_verified += checked
        return checked
