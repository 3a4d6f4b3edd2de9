"""Coordinator-side protocol (paper Algorithms 1 and 3).

Any brick can coordinate any operation.  A :class:`Coordinator` lives on
one :class:`~repro.sim.node.Node` and exposes the four register methods
— ``read_stripe``, ``write_stripe``, ``read_block``, ``write_block`` —
as simulation coroutines (generators).  Spawn them with
``node.spawn(...)`` so a node crash interrupts them mid-protocol,
producing exactly the partial operations the paper's recovery path must
handle.

The ``quorum()`` primitive of Section 2.2 is implemented by
:class:`QuorumRpc`: send a request to every process, collect replies,
retransmit periodically to non-responders (fair-loss channels make this
non-blocking), and complete once an m-quorum has replied.  A *prefer*
predicate lets callers wait a short grace period past quorum for the
specific replies the fast path needs (e.g. the ``targets`` of a read) —
without it, a fast path would spuriously fail whenever one of its
targets happened to reply just after the quorum filled.

Abort semantics follow the paper: conflicting concurrent operations or
stale timestamps make an operation return ⊥ (:data:`~repro.types.ABORT`),
which is always safe; callers may retry with a fresh timestamp.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ProtocolInvariantError
from ..erasure.interface import ErasureCode
from ..quorum.strategy import QuorumStrategy, RandomQuorumStrategy
from ..quorum.system import MajorityMQuorumSystem
from ..sim.monitor import Metrics
from ..sim.node import Node
from ..transport.base import TimerHandle, Transport
from ..timestamps import HIGH_TS, LOW_TS, Timestamp, TimestampSource
from ..types import ABORT, Block, ProcessId
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

__all__ = ["Coordinator", "CoordinatorConfig", "QuorumRpc"]

#: Return value of successful writes (the paper's OK).
OK = "OK"


@dataclass
class CoordinatorConfig:
    """Coordinator behaviour knobs.

    Attributes:
        retransmit_interval: period between retransmissions to
            processes that have not replied (fair-loss handling).
        grace: extra time to wait after a quorum has replied for the
            fast path's preferred replies to arrive.  Measured in the
            same units as network latency; 2x the max one-way delay is
            a natural choice.
        op_timeout: overall cap on one quorum phase; ``None`` waits
            forever (the paper's model).  When set, an expired phase
            makes the operation abort instead of hanging — useful for
            experiments that permanently lose a quorum.
        observe_timestamps: adopt timestamps seen in replies into the
            local clock (reduces aborts under clock skew; never affects
            safety).
        gc_enabled: send asynchronous garbage-collection notices after
            every complete write (Section 5.1).
        disable_fast_read: ablation switch — skip the optimistic
            one-round read and always run recovery.  Correct but
            expensive (6δ reads); quantifies what the fast path buys.
        unsafe_one_phase_writes: ablation switch — skip the Order phase
            of writes.  DELIBERATELY UNSAFE: partial writes become
            undetectable and strict linearizability fails (the Figure 5
            anomaly returns).  Exists so the checker can demonstrate
            *why* the paper's two-phase write is necessary; never use
            outside that experiment.
    """

    retransmit_interval: float = 8.0
    grace: float = 2.0
    op_timeout: Optional[float] = None
    observe_timestamps: bool = True
    gc_enabled: bool = False
    disable_fast_read: bool = False
    unsafe_one_phase_writes: bool = False


class _PendingCall:
    """Book-keeping for one in-flight quorum phase."""

    def __init__(
        self,
        transport: Transport,
        min_count: int,
        prefer: Optional[Callable[[Dict[ProcessId, object]], bool]],
        grace: float,
    ) -> None:
        self.transport = transport
        self.min_count = min_count
        self.prefer = prefer
        self.grace = grace
        self.replies: Dict[ProcessId, object] = {}
        self.complete = transport.event()
        self.finished = False
        self.expired = False
        self._grace_started = False
        #: Retransmit / op_timeout / grace timers still armed for this
        #: phase; cancelled on completion so the kernel heap stops
        #: pinning the call, its reply map and the request closures.
        self._timers: Dict[str, TimerHandle] = {}

    def arm(self, role: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm this phase's ``role`` timer (replacing its previous one)."""
        self._timers[role] = self.transport.set_timer(delay, callback)

    def on_reply(self, src: ProcessId, reply: object) -> None:
        if self.finished or src in self.replies:
            return
        self.replies[src] = reply
        self._evaluate()

    def _evaluate(self) -> None:
        if self.finished:
            return
        if self.prefer is not None and self.prefer(self.replies):
            self._finish()
            return
        if len(self.replies) >= self.min_count:
            if self.prefer is None:
                self._finish()
            elif not self._grace_started:
                self._grace_started = True
                self.arm("grace", self.grace, self._finish)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.complete.succeed(dict(self.replies))

    def expire(self) -> None:
        """Give up on the phase (op_timeout).

        If a quorum never arrived, the phase is marked expired and the
        caller receives ``None`` — an expired sub-quorum phase must
        never be mistaken for a successful quorum round.
        """
        if not self.finished and len(self.replies) < self.min_count:
            self.expired = True
        self._finish()


class QuorumRpc:
    """The ``quorum(msg)`` primitive over fair-loss channels.

    Registers reply handlers on the owning node and routes replies to
    pending calls by ``request_id``.
    """

    _REPLY_TYPES = (ReadReply, OrderReply, OrderReadReply, WriteReply, ModifyReply)

    def __init__(
        self,
        node: Node,
        universe: Sequence[ProcessId],
        quorum_size: int,
        config: CoordinatorConfig,
    ) -> None:
        self.node = node
        self.transport = node.transport
        self.universe = list(universe)
        self.quorum_size = quorum_size
        self.config = config
        self._pending: Dict[int, _PendingCall] = {}
        self._next_request_id = 1
        for reply_type in self._REPLY_TYPES:
            node.register_handler(reply_type, self._on_reply)
        node.on_recovery(self._pending.clear)

    def next_request_id(self) -> int:
        """A fresh request id, unique within this coordinator."""
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def _on_reply(self, src: ProcessId, reply) -> None:
        call = self._pending.get(reply.request_id)
        if call is not None:
            call.on_reply(src, reply)

    def call(
        self,
        make_request: Callable[[ProcessId, int], object],
        prefer: Optional[Callable[[Dict[ProcessId, object]], bool]] = None,
        min_count: Optional[int] = None,
    ):
        """Generator: run one quorum phase and return the reply map.

        Args:
            make_request: builds the per-destination request given
                ``(destination, request_id)`` — destinations may receive
                different payloads (e.g. their own Write block).
            prefer: early-completion predicate over the reply map.
            min_count: replies required to complete (defaults to the
                m-quorum size).

        Returns (via StopIteration): dict ``{process_id: reply}``.
        """
        request_id = self.next_request_id()
        needed = self.quorum_size if min_count is None else min_count
        call = _PendingCall(self.transport, needed, prefer, self.config.grace)
        self._pending[request_id] = call

        def transmit() -> None:
            for destination in self.universe:
                if destination in call.replies:
                    continue
                request = make_request(destination, request_id)
                self.node.send(destination, request, size=request.size)

        def retransmit_loop() -> None:
            # Stop when the phase finished, the call was abandoned (the
            # coordinator crashed and its pending table was cleared on
            # recovery), or the node is down — otherwise a crashed
            # coordinator would retransmit forever and the simulation
            # would never drain.
            if call.finished or self._pending.get(request_id) is not call:
                return
            if not self.node.is_up:
                return
            self.node.metrics.count_retransmission()
            transmit()
            call.arm(
                "retransmit", self.config.retransmit_interval, retransmit_loop
            )

        transmit()
        call.arm("retransmit", self.config.retransmit_interval, retransmit_loop)
        if self.config.op_timeout is not None:
            call.arm("op_timeout", self.config.op_timeout, call.expire)

        replies = yield call.complete
        del self._pending[request_id]
        self.node.metrics.count_round_trip()
        if call.expired:
            return None
        return replies


class Coordinator:
    """One brick acting as I/O coordinator (Algorithms 1 and 3).

    Args:
        node: hosting node (the coordinator dies with it).
        code: the stripe's erasure code.
        quorum_system: the m-quorum system over processes ``1..n``.
        ts_source: this process's ``newTS`` implementation.
        block_size: stripe unit size in bytes (used to materialize
            zero-filled blocks when block-writing a never-written
            stripe).
        config: behaviour knobs.
        rng: randomness for fast-read target selection (seed for
            reproducibility).
        strategy: quorum selection policy for fast-read targets;
            defaults to the paper's uniform-random choice.
    """

    def __init__(
        self,
        node: Node,
        code: ErasureCode,
        quorum_system: MajorityMQuorumSystem,
        ts_source: TimestampSource,
        block_size: int,
        config: Optional[CoordinatorConfig] = None,
        rng: Optional[random.Random] = None,
        strategy: Optional[QuorumStrategy] = None,
    ) -> None:
        self.node = node
        self.transport = node.transport
        self.code = code
        self.quorum_system = quorum_system
        self.ts_source = ts_source
        self.block_size = block_size
        self.config = config or CoordinatorConfig()
        self.metrics: Metrics = node.metrics
        self._rng = rng or random.Random()
        #: Policy choosing which bricks the fast read targets first.
        #: The paper's line 6 is "Pick m random processes"; other
        #: strategies (preferred order, suspicion-aware) trade load
        #: spreading for locality — see repro.quorum.strategy.
        self.strategy = strategy or RandomQuorumStrategy(self._rng)
        #: Whether the most recent _read_prev_stripe routed around
        #: corrupt fragments (read between the generator resumptions of
        #: one operation, so never racy across interleaved ops).
        self._last_prev_degraded = False
        self.rpc = QuorumRpc(
            node,
            universe=quorum_system.universe,
            quorum_size=quorum_system.quorum_size,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.code.m

    @property
    def n(self) -> int:
        return self.code.n

    def _new_ts(self) -> Timestamp:
        return self.ts_source.new_ts()

    def _observe(self, ts: Optional[Timestamp]) -> None:
        if ts is not None and self.config.observe_timestamps:
            self.ts_source.observe(ts)

    def _decode_stripe(self, blocks: Dict[int, object]) -> Optional[List[Block]]:
        """Decode a stripe from replica blocks; None means the nil stripe."""
        values = {i: b for i, b in blocks.items() if isinstance(b, (bytes, bytearray))}
        if len(values) >= self.m:
            return self.code.decode({i: bytes(b) for i, b in values.items()})
        if all(b is None for b in blocks.values()) and len(blocks) >= self.m:
            return None  # nil: the register was never written
        return ABORT  # type: ignore[return-value]

    def _zero_stripe(self) -> List[Block]:
        return [bytes(self.block_size) for _ in range(self.m)]

    def _clean(self, replies: Dict[ProcessId, object]) -> Dict[ProcessId, object]:
        """Replies from replicas whose fragment passed its checksum.

        Corrupt-flagged replies are erasures (Konwar et al.,
        arXiv:1605.01748): they carry no usable block and no ordering
        certificate, so they are excluded from quorum conditions rather
        than counted as refusals.
        """
        return {
            i: reply
            for i, reply in replies.items()
            if not getattr(reply, "corrupt", False)
        }

    def _clean_quorum(self, replies: Dict[ProcessId, object]) -> bool:
        """Prefer predicate: a full quorum of non-corrupt replies."""
        return len(self._clean(replies)) >= self.quorum_system.quorum_size

    def _all_replied(self, replies: Dict[ProcessId, object]) -> bool:
        """Prefer predicate: every process replied (grace-bounded).

        Used to widen a read past the first quorum: combined with the
        default ``min_count`` the call returns once all ``n`` replicas
        answer, or a grace period after a quorum did — so crashed
        bricks cannot stall it.
        """
        return len(replies) >= len(self.quorum_system.universe)

    # ------------------------------------------------------------------
    # Algorithm 1 — stripe access
    # ------------------------------------------------------------------

    def read_stripe(self, register_id: int):
        """``read-stripe()``: returns the stripe (list of m blocks),
        ``None`` for a never-written stripe, or ABORT."""
        op = self.metrics.begin_op("read-stripe", self.transport.now())
        if self.config.disable_fast_read:
            op.path = "slow"
            value = yield from self._recover(register_id)
        else:
            value = yield from self._fast_read_stripe(register_id)
            if value is ABORT:
                op.path = "slow"
                value = yield from self._recover(register_id)
        self.metrics.end_op(op, self.transport.now(), aborted=value is ABORT)
        return value

    def _fast_read_stripe(self, register_id: int):
        """``fast-read-stripe()``: one round, no replica state change."""
        targets = self._pick_read_targets()

        def good(replies: Dict[ProcessId, ReadReply]) -> bool:
            if len(replies) < self.quorum_system.quorum_size:
                return False
            if not targets <= set(replies):
                return False
            return self._fast_read_condition(replies, targets)

        replies = yield from self.rpc.call(
            lambda dst, rid: ReadReq(
                register_id=register_id, request_id=rid, targets=targets
            ),
            prefer=good,
        )
        if replies is None:
            return ABORT
        for reply in replies.values():
            self._observe(reply.val_ts)
        if not self._fast_read_condition(replies, targets):
            return ABORT
        blocks = {i: replies[i].block for i in targets}
        stripe = self._decode_stripe(blocks)
        return stripe

    def _pick_read_targets(self) -> frozenset:
        """Pick ``m`` read targets whose blocks jointly decode.

        The paper's line 6 ("pick m random processes") is sound for MDS
        codes, where every ``m``-subset decodes.  Non-MDS codes (LRC)
        have rank-deficient ``m``-subsets — e.g. a local group's data
        plus its own parity — so redraw until the code accepts the set,
        falling back to the systematic data blocks, which always span.
        """
        universe = self.quorum_system.universe
        for _ in range(8):
            targets = frozenset(self.strategy.pick(universe, self.m))
            if self.code.is_decodable(targets):
                return targets
        return frozenset(range(1, self.m + 1))

    def _fast_read_condition(
        self, replies: Dict[ProcessId, ReadReply], targets: frozenset
    ) -> bool:
        if not targets <= set(replies):
            return False
        if not all(reply.status for reply in replies.values()):
            return False
        timestamps = {reply.val_ts for reply in replies.values()}
        return len(timestamps) == 1

    def write_stripe(self, register_id: int, stripe: Sequence[Block]):
        """``write-stripe(stripe)``: two-phase write; returns OK or ABORT."""
        op = self.metrics.begin_op("write-stripe", self.transport.now())
        ts = self._new_ts()
        if not self.config.unsafe_one_phase_writes:
            replies = yield from self.rpc.call(
                lambda dst, rid: OrderReq(
                    register_id=register_id, request_id=rid, ts=ts
                ),
                prefer=self._clean_quorum,
            )
            clean = self._clean(replies) if replies is not None else {}
            if (
                replies is None
                or len(clean) < self.quorum_system.quorum_size
                or not all(reply.status for reply in clean.values())
            ):
                if replies is not None:
                    for reply in replies.values():
                        self._observe(reply.max_seen)
                self.metrics.end_op(op, self.transport.now(), aborted=True)
                return ABORT
        result = yield from self._store_stripe(register_id, list(stripe), ts)
        self.metrics.end_op(op, self.transport.now(), aborted=result is ABORT)
        return result

    def _recover(self, register_id: int):
        """``recover()``: re-establish and write back the latest value.

        When the preceding read had to route around checksum-failed
        fragments, the successful recovery is a degraded read — and its
        write-back is precisely what repairs the quarantined replicas
        (they accept the fresh fragment via the repair-write path).
        """
        ts = self._new_ts()
        stripe = yield from self._read_prev_stripe(register_id, ts)
        if stripe is ABORT:
            return ABORT
        degraded = self._last_prev_degraded
        stored = yield from self._store_stripe(register_id, stripe, ts)
        if stored is OK:
            if degraded:
                self.metrics.count_degraded_read()
            return stripe
        return ABORT

    def _read_prev_stripe(self, register_id: int, ts: Timestamp):
        """``read-prev-stripe(ts)``: newest version with >= m blocks.

        Returns the stripe (list of blocks), ``None`` for nil, or ABORT.

        Corrupt-flagged replies (checksum-failed fragments) are treated
        as erasures: they never contribute blocks or ordering
        certificates, and the quorum conditions are evaluated over the
        clean replies only.  A read that succeeds despite corrupt
        fragments is a *degraded read* (counted); the caller's
        write-back then repairs the quarantined replicas.
        """
        max_ts = HIGH_TS
        degraded = False
        self._last_prev_degraded = False
        widen_next = False
        widened_at: Optional[Timestamp] = None
        # Fragments seen per version across rounds of this walk.  A
        # replica's fragment for a given (register, version) never
        # changes, so evidence from earlier rounds stays valid even
        # when a later (e.g. widened) round hears a different subset
        # of replicas.
        evidence: Dict[Timestamp, Dict[ProcessId, Optional[Block]]] = {}
        while True:
            current_max = max_ts
            prefer = self._clean_quorum
            if widen_next:
                widen_next = False
                prefer = self._all_replied
            replies = yield from self.rpc.call(
                lambda dst, rid: OrderReadReq(
                    register_id=register_id,
                    request_id=rid,
                    j=ALL,
                    max_ts=current_max,
                    ts=ts,
                ),
                prefer=prefer,
            )
            if replies is None:
                return ABORT
            clean = self._clean(replies)
            if len(clean) < self.quorum_system.quorum_size:
                return ABORT  # not enough verifiable fragments live
            if not all(reply.status for reply in clean.values()):
                for reply in clean.values():
                    self._observe(reply.lts)
                return ABORT
            degraded = degraded or len(clean) < len(replies)
            max_ts = max(reply.lts for reply in clean.values())
            blocks = {
                i: reply.block
                for i, reply in clean.items()
                if reply.lts == max_ts
            }
            if max_ts != LOW_TS:
                pool = evidence.setdefault(max_ts, {})
                pool.update(blocks)
                blocks = dict(pool)
            if len(blocks) >= self.m:
                if max_ts == LOW_TS:
                    self._last_prev_degraded = degraded
                    return None  # nil: never written
                value_blocks = {
                    i: b for i, b in blocks.items()
                    if isinstance(b, (bytes, bytearray))
                }
                if len(value_blocks) >= self.m:
                    if self.code.is_decodable(value_blocks):
                        self._last_prev_degraded = degraded
                        return self.code.decode(
                            {i: bytes(b) for i, b in value_blocks.items()}
                        )
                    # Non-MDS code: >= m blocks that do not span the
                    # stripe.  The version may still be *complete* —
                    # its spanning fragments can live at replicas
                    # outside this quorum, and once GC has trimmed
                    # everything below it, descending would walk off
                    # the log floor and fabricate a nil.  Re-read this
                    # level once, waiting to hear from every replica,
                    # before concluding the version is partial.
                    if widened_at != max_ts:
                        widened_at = max_ts
                        widen_next = True
                        max_ts = current_max
                        continue
                    # Still no spanning set with the whole universe
                    # heard: a genuinely partial write; keep looking
                    # below, like any other short version.
                elif all(b is None for b in blocks.values()):
                    self._last_prev_degraded = degraded
                    return None  # a complete nil write (recovery stored nil)
                else:
                    raise ProtocolInvariantError(
                        f"version {max_ts!r} mixes nil and value blocks: "
                        f"{sorted(blocks)}"
                    )

    def _store_stripe(self, register_id: int, stripe, ts: Timestamp,
                      min_count: Optional[int] = None, prefer=None):
        """``store-stripe(stripe, ts)``: write encoded blocks to a quorum.

        ``min_count`` widens the write-back beyond an m-quorum, and
        ``prefer`` is forwarded to the quorum call — the rebuilder uses
        the pair to push the value to every *currently* live brick
        while still terminating (quorum + grace) if a brick crashes
        mid-write-back.
        """
        if stripe is None:
            encoded: List[Optional[Block]] = [None] * self.n
        else:
            encoded = list(self.code.encode(list(stripe)))
        replies = yield from self.rpc.call(
            lambda dst, rid: WriteReq(
                register_id=register_id,
                request_id=rid,
                block=encoded[dst - 1],
                ts=ts,
            ),
            min_count=min_count,
            prefer=prefer,
        )
        if replies is not None and all(
            reply.status for reply in replies.values()
        ):
            if self.config.gc_enabled:
                self._send_gc(register_id, ts)
            return OK
        if replies is not None:
            for reply in replies.values():
                self._observe(reply.max_seen)
        return ABORT

    def _send_gc(self, register_id: int, ts: Timestamp) -> None:
        """Asynchronous GC notice to all processes (Section 5.1)."""
        request_id = self.rpc.next_request_id()
        for destination in self.quorum_system.universe:
            self.node.send(
                destination,
                GcReq(register_id=register_id, request_id=request_id, ts=ts),
                size=0,
            )

    # ------------------------------------------------------------------
    # Algorithm 3 — block access
    # ------------------------------------------------------------------

    def _check_block_indices(self, js) -> None:
        """Refuse an index outside ``1..m`` (0 would alias block ``m``)."""
        for j in js:
            if not 1 <= j <= self.m:
                raise ProtocolInvariantError(
                    f"block index {j} outside 1..{self.m}"
                )

    def read_block(self, register_id: int, j: int):
        """``read-block(j)``: returns the block, None for nil, or ABORT."""
        self._check_block_indices((j,))
        op = self.metrics.begin_op("read-block", self.transport.now())
        targets = frozenset({j})

        def good(replies: Dict[ProcessId, ReadReply]) -> bool:
            if len(replies) < self.quorum_system.quorum_size:
                return False
            return self._fast_read_condition(replies, targets)

        replies = yield from self.rpc.call(
            lambda dst, rid: ReadReq(
                register_id=register_id, request_id=rid, targets=targets
            ),
            prefer=good,
        )
        if replies is None:
            self.metrics.end_op(op, self.transport.now(), aborted=True)
            return ABORT
        for reply in replies.values():
            self._observe(reply.val_ts)
        if self._fast_read_condition(replies, targets):
            self.metrics.end_op(op, self.transport.now(), aborted=False)
            return replies[j].block
        op.path = "slow"
        stripe = yield from self._recover(register_id)
        if stripe is ABORT:
            self.metrics.end_op(op, self.transport.now(), aborted=True)
            return ABORT
        self.metrics.end_op(op, self.transport.now(), aborted=False)
        if stripe is None:
            return None
        return stripe[j - 1]

    def write_block(self, register_id: int, j: int, block: Block):
        """``write-block(j, b)``: fast Modify path, else full recovery."""
        self._check_block_indices((j,))
        op = self.metrics.begin_op("write-block", self.transport.now())
        ts = self._new_ts()
        result, modify_sent = yield from self._fast_write_block(
            register_id, j, block, ts
        )
        if result is not OK:
            op.path = "slow"
            if modify_sent:
                # The Modify may have landed at a minority before the
                # fast path gave up (lossy links): those replicas' log
                # top is now ``ts``, so re-ordering at the same ts would
                # be rejected there forever.  Take a fresh timestamp so
                # the recovery write supersedes the incomplete version
                # instead of colliding with it.
                ts = self._new_ts()
            result = yield from self._slow_write_block(register_id, j, block, ts)
        self.metrics.end_op(op, self.transport.now(), aborted=result is not OK)
        return result

    def _fast_write_block(self, register_id: int, j: int, block: Block,
                          ts: Timestamp):
        """Optimistic incremental write; returns ``(result, modify_sent)``.

        ``modify_sent`` tells the caller whether a ``Modify(ts)`` hit
        the wire: once it has, ``ts`` may be logged at a minority of
        replicas and an aborting caller must not reuse it.
        """
        def got_j(replies: Dict[ProcessId, OrderReadReply]) -> bool:
            return (
                len(replies) >= self.quorum_system.quorum_size
                and j in replies
                and all(reply.status for reply in replies.values())
            )

        replies = yield from self.rpc.call(
            lambda dst, rid: OrderReadReq(
                register_id=register_id,
                request_id=rid,
                j=j,
                max_ts=HIGH_TS,
                ts=ts,
            ),
            prefer=got_j,
        )
        if replies is None:
            return ABORT, False
        statuses_ok = all(reply.status for reply in replies.values())
        if not statuses_ok or j not in replies:
            for reply in replies.values():
                self._observe(reply.lts)
            return ABORT, False
        b_j = replies[j].block
        ts_j = replies[j].lts
        if b_j is None:
            # p_j holds no base value (never-written register, or a
            # recovery stored nil): the incremental Modify path has
            # nothing to modify.  Abort *before* sending Modify so the
            # slow path can reuse this operation's timestamp cleanly.
            return ABORT, False

        delta = self.code.encode_delta(j, b_j, block)

        def make_modify(dst: ProcessId, rid: int) -> ModifyReq:
            return ModifyReq(
                register_id=register_id,
                request_id=rid,
                j=j,
                new_block=block if dst == j else None,
                delta=delta if dst > self.m else None,
                ts_j=ts_j,
                ts=ts,
            )

        replies = yield from self.rpc.call(make_modify)
        if replies is not None and all(
            reply.status for reply in replies.values()
        ):
            return OK, True
        return ABORT, True

    # ------------------------------------------------------------------
    # Multi-block access (paper footnote 2: "the single-block methods
    # can easily be extended to access multiple blocks")
    # ------------------------------------------------------------------

    def read_blocks(self, register_id: int, js: Sequence[int]):
        """Read several blocks of one stripe in a single operation.

        Fast path: one Read round targeting every requested block (2δ,
        2n messages, ``len(js)`` disk reads).  On any inconsistency the
        recovery path reconstructs the whole stripe.  Returns a dict
        ``{j: block}`` (values ``None`` for a nil stripe) or ABORT.
        """
        targets = frozenset(js)
        self._check_block_indices(targets)
        op = self.metrics.begin_op("read-blocks", self.transport.now())

        def good(replies: Dict[ProcessId, ReadReply]) -> bool:
            if len(replies) < self.quorum_system.quorum_size:
                return False
            return self._fast_read_condition(replies, targets)

        replies = yield from self.rpc.call(
            lambda dst, rid: ReadReq(
                register_id=register_id, request_id=rid, targets=targets
            ),
            prefer=good,
        )
        if replies is not None:
            for reply in replies.values():
                self._observe(reply.val_ts)
            if self._fast_read_condition(replies, targets):
                self.metrics.end_op(op, self.transport.now(), aborted=False)
                return {j: replies[j].block for j in targets}
        op.path = "slow"
        stripe = yield from self._recover(register_id)
        if stripe is ABORT:
            self.metrics.end_op(op, self.transport.now(), aborted=True)
            return ABORT
        self.metrics.end_op(op, self.transport.now(), aborted=False)
        if stripe is None:
            return {j: None for j in targets}
        return {j: stripe[j - 1] for j in targets}

    def write_blocks(self, register_id: int, updates: Dict[int, Block]):
        """Write several blocks of one stripe atomically.

        One ``Order&Read(ALL)`` round both reserves the timestamp and
        returns every replica's current block; with a consistent newest
        version the coordinator decodes the stripe, overlays the
        updates, and stores the result — 4δ and 4n messages regardless
        of how many blocks change.  Inconsistent versions (a concurrent
        partial write) fall back to the recovery-based path with the
        same timestamp.  Returns OK or ABORT.
        """
        if not updates:
            return OK
        self._check_block_indices(updates)
        op = self.metrics.begin_op("write-blocks", self.transport.now())
        ts = self._new_ts()
        replies = yield from self.rpc.call(
            lambda dst, rid: OrderReadReq(
                register_id=register_id,
                request_id=rid,
                j=ALL,
                max_ts=HIGH_TS,
                ts=ts,
            ),
            prefer=self._clean_quorum,
        )
        result = None
        clean = self._clean(replies) if replies is not None else {}
        if (
            replies is None
            or len(clean) < self.quorum_system.quorum_size
            or not all(reply.status for reply in clean.values())
        ):
            if replies is not None:
                for reply in clean.values():
                    self._observe(reply.lts)
            self.metrics.end_op(op, self.transport.now(), aborted=True)
            return ABORT
        newest = max(reply.lts for reply in clean.values())
        blocks = {
            i: reply.block for i, reply in clean.items()
            if reply.lts == newest
        }
        value_blocks = {
            i: b for i, b in blocks.items() if isinstance(b, (bytes, bytearray))
        }
        if len(value_blocks) >= self.m and self.code.is_decodable(value_blocks):
            stripe = self.code.decode(
                {i: bytes(b) for i, b in value_blocks.items()}
            )
        elif newest == LOW_TS or all(b is None for b in blocks.values()):
            if len(blocks) >= self.m:
                stripe = self._zero_stripe()
            else:
                stripe = None  # incomplete version: recover below
        else:
            stripe = None
        if stripe is None:
            op.path = "slow"
            stripe = yield from self._read_prev_stripe(register_id, ts)
            if stripe is ABORT:
                self.metrics.end_op(op, self.transport.now(), aborted=True)
                return ABORT
            if stripe is None:
                stripe = self._zero_stripe()
        stripe = list(stripe)
        for j, block in updates.items():
            stripe[j - 1] = block
        result = yield from self._store_stripe(register_id, stripe, ts)
        self.metrics.end_op(op, self.transport.now(), aborted=result is not OK)
        return result

    def _slow_write_block(self, register_id: int, j: int, block: Block,
                          ts: Timestamp):
        stripe = yield from self._read_prev_stripe(register_id, ts)
        if stripe is ABORT:
            return ABORT
        if stripe is None:
            stripe = self._zero_stripe()
        stripe = list(stripe)
        stripe[j - 1] = block
        result = yield from self._store_stripe(register_id, stripe, ts)
        return result
