"""Replica message handlers (paper Algorithm 2 + the Modify handler).

A :class:`Replica` runs on a :class:`~repro.transport.base.Node` and manages
the per-register persistent state (``ord-ts`` and the log) for every
register whose stripe places a block on this brick.  Handlers are
synchronous — Algorithm 2's handlers never block — and reply directly
over the network.

Persistence follows the paper's ``store(var)`` discipline: every
mutation of ``ord-ts`` or the log is pushed to the node's stable store
before the reply is sent; on recovery the replica reloads exactly those
values, so a crash between mutation and reply is equivalent to the
reply being lost in the network.  The log is persisted as a journal:
one O(1) record per append, replayed on recovery.  Every GC trim
resets it to the surviving entries' own records, so the store re-seals
none of the blocks it already holds.

Retransmission handling: the coordinator's quorum primitive resends
requests until enough replies arrive (fair-loss channels).  A replica
keeps a small volatile cache of its last reply per ``(coordinator,
request_id)`` and resends it verbatim on duplicates, giving at-most-once
execution per request without changing the paper's handler logic.  The
cache is volatile: losing it on a crash can only cause a request to be
re-executed and refused (``status = false``), which at worst aborts the
operation — never a safety violation.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..errors import CorruptionDetected
from ..erasure.interface import ErasureCode
from ..timestamps import LOW_TS, Timestamp
from ..transport.base import Node
from ..types import ProcessId
from .log import (
    BOTTOM,
    INITIAL_RECORD,
    ReplicaLog,
    journal_records,
    replay_journal,
)
from .messages import (
    ALL,
    GcReq,
    ModifyReply,
    ModifyReq,
    OrderReadReply,
    OrderReadReq,
    OrderReply,
    OrderReq,
    ReadReply,
    ReadReq,
    WriteReply,
    WriteReq,
)

__all__ = ["Replica", "RegisterState"]

#: Bound on the per-coordinator duplicate-reply cache.
_REPLY_CACHE_LIMIT = 64


class RegisterState:
    """Persistent per-register state on one replica: ``ord-ts`` + log."""

    def __init__(self, log: Optional[ReplicaLog] = None,
                 ord_ts: Timestamp = LOW_TS) -> None:
        self.log = log or ReplicaLog()
        self.ord_ts = ord_ts


class Replica:
    """The brick-side protocol endpoint for process ``p_i``.

    Args:
        node: the hosting simulation node.
        code: the stripe's erasure code (needed by the Modify handler to
            run ``modify_{j,i}`` locally).
        process_index: this process's 1-based index ``i`` — which block
            of each stripe it stores.

    Log block reads and writes are counted, not timed: the paper's cost
    model keeps latency in δ units, so every reply leaves at once.
    """

    def __init__(self, node: Node, code: ErasureCode,
                 process_index: int) -> None:
        self.node = node
        self.code = code
        self.i = process_index
        self._registers: Dict[int, RegisterState] = {}
        #: Registers whose persistent log failed its checksum on load.
        #: A quarantined register answers protocol requests with
        #: ``corrupt=True`` (its fragment is an erasure) until a repair
        #: write rebuilds it.  ``ord-ts`` lives in NVRAM and survives.
        self.quarantined: Set[int] = set()
        self._reply_cache: Dict[Tuple[ProcessId, int], object] = {}
        node.register_handler(ReadReq, self._on_read)
        node.register_handler(OrderReq, self._on_order)
        node.register_handler(OrderReadReq, self._on_order_read)
        node.register_handler(WriteReq, self._on_write)
        node.register_handler(ModifyReq, self._on_modify)
        node.register_handler(GcReq, self._on_gc)
        node.on_recovery(self._reload)

    # -- state access -------------------------------------------------------

    def state(self, register_id: int) -> RegisterState:
        """The (volatile mirror of) persistent state for one register.

        Raises :class:`CorruptionDetected` when the register's
        persistent log fails its checksum (and quarantines it).
        """
        if register_id in self.quarantined:
            raise CorruptionDetected(
                f"register {register_id} quarantined on replica {self.i}",
                key=self.log_key(register_id),
                process_id=self.i,
            )
        found = self._registers.get(register_id)
        if found is None:
            try:
                found = self._load(register_id)
            except CorruptionDetected as err:
                self.quarantined.add(register_id)
                self.node.metrics.count_checksum_failure()
                err.process_id = self.i
                raise
            self._registers[register_id] = found
        return found

    def _handler_state(self, register_id: int) -> Optional[RegisterState]:
        """State for a message handler; None when quarantined (⊥)."""
        try:
            return self.state(register_id)
        except CorruptionDetected:
            return None

    def drop_mirror(self, register_id: int) -> None:
        """Forget the volatile mirror so the next access re-reads disk.

        Fault injectors call this after corrupting stable storage: the
        volatile mirror models a cache that would otherwise mask the
        damage indefinitely.
        """
        self._registers.pop(register_id, None)

    def audit(self, register_id: int) -> bool:
        """Verify this brick's stored copy of a register; True iff clean.

        The one copy audit every maintenance path shares: it checks the
        register's log cell on stable storage, never the volatile
        mirror, which can hide rot indefinitely.  A mismatch drops the
        mirror and quarantines the register through the standard load
        path, so the accounting matches a read-triggered detection and
        the next repair write-back rebuilds the copy.  A register
        already quarantined is dirty; one the brick never held is
        clean.  Costs no protocol messages.
        """
        if register_id in self.quarantined:
            return False
        if self.node.stable.verify(self.log_key(register_id)):
            return True
        self.drop_mirror(register_id)
        try:
            self.state(register_id)
        except CorruptionDetected:
            pass
        return False

    def has_register(self, register_id: int) -> bool:
        """Whether any state exists for the register on this replica.

        Unlike :meth:`state`, this never materializes a volatile mirror
        — important for the scrubber, which audits every replica for
        every register and must not fabricate empty ``RegisterState``
        entries on bricks that simply never held the fragment (e.g. a
        blank replacement brick).
        """
        if register_id in self._registers or register_id in self.quarantined:
            return True
        stable = self.node.stable
        return (
            self.log_key(register_id) in stable
            or self._ord_key(register_id) in stable
        )

    def ord_ts_of(self, register_id: int) -> Timestamp:
        """The register's NVRAM ``ord-ts`` straight from stable storage.

        Available even for quarantined registers — ``ord-ts`` is never
        subject to log corruption.
        """
        return self.node.stable.load(self._ord_key(register_id), LOW_TS)

    def register_ids(self) -> list:
        """Ids of every register with state on this replica (sorted).

        Covers both the volatile mirror and registers whose state lives
        only in stable storage (e.g. after a crash dropped the mirror) —
        the public accessor tools like the scrub daemon should use
        instead of reaching into ``_registers``.
        """
        seen = set(self._registers)
        for key in self.node.stable.keys():
            prefix, _, tail = key.partition(":")
            if prefix in ("logj", "ordts") and tail.isdigit():
                seen.add(int(tail))
        return sorted(seen)

    def log_key(self, register_id: int) -> str:
        """The stable-store key holding the register's persisted log.

        :meth:`audit` verifies this cell.  (The fault applier in
        :mod:`repro.campaign.schedule` sits below this layer and repeats
        the format to damage the same cell.)
        """
        return f"logj:{register_id}"

    def _ord_key(self, register_id: int) -> str:
        return f"ordts:{register_id}"

    def _load(self, register_id: int) -> RegisterState:
        stable = self.node.stable
        stored_ord = stable.load(self._ord_key(register_id), LOW_TS)
        log = replay_journal(stable.load_journal(self.log_key(register_id)))
        return RegisterState(log=log, ord_ts=stored_ord)

    def _reload(self) -> None:
        """Recovery hook: drop volatile mirrors, reread stable storage."""
        self._registers.clear()
        self._reply_cache.clear()

    def _store_ord(self, register_id: int, state: RegisterState) -> None:
        # ord-ts lives in NVRAM per the paper's cost model: persisted,
        # but not counted as disk I/O.
        self.node.stable.store(self._ord_key(register_id), state.ord_ts)

    def persist_append(self, register_id: int, record: tuple) -> None:
        """Persist one ``log.append`` that was just applied.

        ``record`` is the journal record the append returned.  A fresh
        journal first gets the initial ``[LowTS, nil]`` entry's record,
        so every journal holds one record per live entry.
        """
        stable = self.node.stable
        key = self.log_key(register_id)
        if not stable.journal_len(key):
            stable.append(key, INITIAL_RECORD)
        stable.append(key, record)

    def persist_trim(self, register_id: int, state: RegisterState) -> None:
        """Persist a ``log.trim_below`` that was just applied.

        A trim is the one compaction point: the journal is reset to the
        surviving entries' records (``journal_records``), so the bytes
        at rest are the live log's and recovery replays O(appends since
        the last trim).  The survivors'
        records are the objects the store already holds, so it keeps
        their envelopes instead of re-sealing them; one that bit rot
        replaced on disk is sealed afresh from the volatile log, which
        heals it.
        """
        self.node.stable.reset_journal(
            self.log_key(register_id), journal_records(state.log)
        )

    # -- duplicate suppression -------------------------------------------------

    def _cached_reply(self, src: ProcessId, request_id: int):
        return self._reply_cache.get((src, request_id))

    def _remember_reply(self, src: ProcessId, request_id: int, reply) -> None:
        self._reply_cache[(src, request_id)] = reply
        if len(self._reply_cache) > _REPLY_CACHE_LIMIT * 4:
            # Drop the oldest half (dict preserves insertion order).
            for key in list(self._reply_cache)[: _REPLY_CACHE_LIMIT * 2]:
                del self._reply_cache[key]

    def _disk_read(self, blocks: int = 1) -> None:
        """Count a log block read."""
        self.node.metrics.count_disk_read(blocks)

    def _disk_write(self, blocks: int = 1) -> None:
        """Count a log block write."""
        self.node.metrics.count_disk_write(blocks)

    def _reply(self, src: ProcessId, request_id: int, reply) -> None:
        self._remember_reply(src, request_id, reply)
        self.node.send(src, reply, size=reply.size)

    def _resend_if_duplicate(self, src: ProcessId, request) -> bool:
        cached = self._cached_reply(src, request.request_id)
        if cached is None:
            return False
        self.node.send(src, cached, size=cached.size)
        return True

    # -- handlers (Algorithm 2) -------------------------------------------------

    def _on_read(self, src: ProcessId, req: ReadReq) -> None:
        """``[Read, targets]``: report val-ts; targets also return a block."""
        if self._resend_if_duplicate(src, req):
            return
        state = self._handler_state(req.register_id)
        if state is None:
            # Checksum-failed fragment: report ⊥ (an erasure), never data.
            self._reply(src, req.request_id, ReadReply(
                register_id=req.register_id,
                request_id=req.request_id,
                corrupt=True,
            ))
            return
        val_ts = state.log.max_ts()
        status = val_ts >= state.ord_ts
        block = None
        if status and self.i in req.targets:
            _ts, value = state.log.max_block()
            if isinstance(value, (bytes, bytearray)):
                self._disk_read()
                block = bytes(value)
            # A nil value (never-written register) costs no disk read
            # and is reported as a None block with status true.
        reply = ReadReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=status,
            val_ts=val_ts,
            block=block,
        )
        self._reply(src, req.request_id, reply)

    def _on_order(self, src: ProcessId, req: OrderReq) -> None:
        """``[Order, ts]``: reserve a place in the write order."""
        if self._resend_if_duplicate(src, req):
            return
        state = self._handler_state(req.register_id)
        if state is None:
            # Cannot certify ordering against a corrupt log (its max-ts
            # is unknown); refuse, flagged so the coordinator excludes
            # this replica from the quorum instead of aborting.
            self._reply(src, req.request_id, OrderReply(
                register_id=req.register_id,
                request_id=req.request_id,
                corrupt=True,
                max_seen=self.ord_ts_of(req.register_id),
            ))
            return
        status = req.ts > state.log.max_ts() and req.ts >= state.ord_ts
        if status:
            state.ord_ts = req.ts
            self._store_ord(req.register_id, state)
        reply = OrderReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=status,
            max_seen=max(state.ord_ts, state.log.max_ts()),
        )
        self._reply(src, req.request_id, reply)

    def _on_order_read(self, src: ProcessId, req: OrderReadReq) -> None:
        """``[Order&Read, j, max, ts]``: order ``ts``; return max-below block."""
        if self._resend_if_duplicate(src, req):
            return
        state = self._handler_state(req.register_id)
        if state is None:
            self._reply(src, req.request_id, OrderReadReply(
                register_id=req.register_id,
                request_id=req.request_id,
                corrupt=True,
            ))
            return
        status = req.ts > state.log.max_ts() and req.ts >= state.ord_ts
        lts: Timestamp = LOW_TS
        block = None
        corrupt = False
        if status:
            state.ord_ts = req.ts
            self._store_ord(req.register_id, state)
        if status and (req.j == self.i or req.j == ALL):
            # A log that starts above LowTS (trimmed, or rebuilt by a
            # repair write-back) knows nothing below its first entry:
            # asked for a version there, it answers as an erasure,
            # never as nil.
            first = state.log.min_ts()
            corrupt = first > LOW_TS and first >= req.max_ts
            if not corrupt:
                # The reported timestamp is the newest *version* this
                # replica reflects below the bound — ⊥ entries count,
                # because a ⊥ at time t certifies "my block is unchanged
                # at version t".  The block is the newest non-⊥ value.
                # Reporting the value's own (possibly older) timestamp
                # instead would make a committed fast block-write look
                # incomplete to any recovery quorum that misses p_j,
                # rolling back a committed operation.
                lts = state.log.max_ts_below(req.max_ts)
                _value_ts, value = state.log.max_below(req.max_ts)
                if isinstance(value, (bytes, bytearray)):
                    self._disk_read()
                    block = bytes(value)
        reply = OrderReadReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=status,
            lts=lts,
            block=block,
            corrupt=corrupt,
        )
        self._reply(src, req.request_id, reply)

    def _on_write(self, src: ProcessId, req: WriteReq) -> None:
        """``[Write, b_i, ts]``: append the new block to the log."""
        if self._resend_if_duplicate(src, req):
            return
        state = self._handler_state(req.register_id)
        if state is None:
            self._repair_write(src, req)
            return
        status = req.ts > state.log.max_ts() and req.ts >= state.ord_ts
        if status:
            self.persist_append(
                req.register_id, state.log.append(req.ts, req.block)
            )
            if req.block is not None:
                self._disk_write()
        reply = WriteReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=status,
            max_seen=max(state.ord_ts, state.log.max_ts()),
        )
        self._reply(src, req.request_id, reply)

    def _repair_write(self, src: ProcessId, req: WriteReq) -> None:
        """Accept a write to a quarantined register as its repair.

        The corrupt log cannot gate on ``max-ts``, but ``ord-ts``
        (NVRAM, uncorrupted) still orders the repair: any write at
        ``ts >= ord-ts`` carries a fragment at least as fresh as
        anything this replica could have certified, so replacing the
        whole log with it restores a consistent state.  Stale writes
        (``ts < ord-ts``) are refused as usual.  This is how both the
        recovery write-back of a degraded read and the scrub daemon's
        rebuild heal a brick in place.
        """
        ord_ts = self.ord_ts_of(req.register_id)
        status = req.ts >= ord_ts
        if status:
            log = ReplicaLog()
            log.append(req.ts, req.block)
            state = RegisterState(log=log, ord_ts=ord_ts)
            self.node.stable.reset_journal(
                self.log_key(req.register_id), journal_records(log)
            )
            if req.block is not None:
                self._disk_write()
            self._registers[req.register_id] = state
            self.quarantined.discard(req.register_id)
        reply = WriteReply(
            register_id=req.register_id,
            request_id=req.request_id,
            status=status,
            max_seen=max(ord_ts, req.ts) if status else ord_ts,
        )
        self._reply(src, req.request_id, reply)

    def _on_modify(self, src: ProcessId, req: ModifyReq) -> None:
        """``[Modify, j, b_j, b, ts_j, ts]``: block-write fast path.

        Accepts only if this replica's newest log timestamp is exactly
        ``ts_j`` (the version the coordinator read), guaranteeing the
        parity delta applies to the same base version everywhere.
        """
        if self._resend_if_duplicate(src, req):
            return
        state = self._handler_state(req.register_id)
        if state is None:
            # The incremental path needs a trusted base version; a
            # quarantined register has none.  Refuse — the coordinator's
            # slow path recovers and repairs via the Write handler.
            self._reply(src, req.request_id, ModifyReply(
                register_id=req.register_id,
                request_id=req.request_id,
                status=False,
            ))
            return
        status = req.ts_j == state.log.max_ts() and req.ts >= state.ord_ts
        if status:
            if self.i == req.j:
                block: object = req.new_block
            elif self.i > self.code.m:
                _ts, current = state.log.max_block()
                if isinstance(current, (bytes, bytearray)):
                    self._disk_read()
                    block = self.code.apply_delta(
                        req.j, self.i, req.delta, bytes(current)
                    )
                else:
                    # No parity value yet (register never written): the
                    # fast path cannot produce a consistent parity block.
                    status = False
                    block = BOTTOM
            else:
                block = BOTTOM
        if status:
            self.persist_append(
                req.register_id, state.log.append(req.ts, block)
            )
            if isinstance(block, (bytes, bytearray)):
                self._disk_write()
        reply = ModifyReply(
            register_id=req.register_id, request_id=req.request_id, status=status
        )
        self._reply(src, req.request_id, reply)

    def _on_gc(self, src: ProcessId, req: GcReq) -> None:
        """Garbage-collection notice: trim log entries below ``ts``."""
        state = self._handler_state(req.register_id)
        if state is None:
            return  # never compact a quarantined register
        removed = state.log.trim_below(req.ts)
        if removed:
            self.persist_trim(req.register_id, state)
