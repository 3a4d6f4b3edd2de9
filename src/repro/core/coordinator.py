"""Coordinator-side protocol (paper Algorithms 1 and 3).

Any brick can coordinate any operation.  A :class:`Coordinator` lives on
one :class:`~repro.transport.base.Node` and exposes the register methods —
``read_stripe``, ``write_stripe``, ``read_block``, ``write_block`` and
their multi-block forms ``read_blocks``, ``write_blocks`` — as
simulation coroutines (generators).  Each phase kind of the paper is
sent from one place: the fast read (``_fast_read``), the recovery
(``_recover``) and the overlay write (``_overlay_write``) serve every
method that needs them.  A fast read whose only defect is a silent
target reads once more from ``m`` repliers that decode, instead of
recovering (:meth:`Coordinator._read_around`).  A brick runs at most
``_MAX_ACTIVE_OPS`` client operations at once; the rest wait, unstarted,
in arrival order (:func:`_admitted`).  Spawn them with
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
stale timestamps make an operation return ⊥ (:data:`~repro.types.ABORT`).
An aborted ``Write``/``Modify`` may still have landed at a minority of
replicas, and a later reader can roll it forward, so a caller's retry is
a new operation (Section 4), not a replay of the aborted one.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ProtocolInvariantError
from ..erasure.interface import ErasureCode
from ..quorum.system import MajorityMQuorumSystem
from ..sim.kernel import Event
from ..sim.monitor import Metrics
from ..transport.base import Node, TimerHandle
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

#: Period between retransmissions to processes that have not replied
#: (fair-loss handling), in transport time units.
_RETRANSMIT_INTERVAL = 8.0
#: Extra time a phase with a ``prefer`` predicate waits after a quorum
#: has replied for the preferred (block-carrying) replies: 2x the sim's
#: default maximum one-way delay.
_GRACE = 2.0
#: Client operations one brick coordinates at once; later ones wait in
#: arrival order until a running one ends.  Equal to ``VolumeSession``'s
#: default ``max_inflight``, so one default session never waits.
_MAX_ACTIVE_OPS = 8


@dataclass
class CoordinatorConfig:
    """Coordinator behaviour knobs.

    Retransmission (every ``_RETRANSMIT_INTERVAL`` units) and the
    fast path's grace window (``_GRACE`` units past quorum) are fixed.

    Attributes:
        op_timeout: bound on one quorum phase, counted in retransmission
            rounds: the phase expires at the first round ``k`` with
            ``k * _RETRANSMIT_INTERVAL >= op_timeout`` (15 rounds, 120
            units, by default) and its operation returns ⊥ — the
            paper's safe outcome — instead of retransmitting forever
            once fewer than a quorum of bricks can answer.  Must be
            positive.
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

    op_timeout: float = 120.0
    observe_timestamps: bool = True
    gc_enabled: bool = False
    disable_fast_read: bool = False
    unsafe_one_phase_writes: bool = False

    def __post_init__(self) -> None:
        if self.op_timeout is None or self.op_timeout <= 0:
            raise ConfigurationError(
                f"op_timeout must be positive, got {self.op_timeout!r}"
            )


class _PendingCall:
    """Book-keeping for one in-flight quorum phase.

    The phase owns its sends (:meth:`transmit` / :meth:`retransmit`)
    rather than closing over itself in a retransmit closure: its only
    reference cycle is call → armed timer → bound method → call, which
    :meth:`_finish` breaks by cancelling every timer and a fired timer
    breaks by dropping its callback.  A finished phase, or an abandoned
    one whose timers have fired, is freed by reference counting alone —
    the cyclic collector never has to find it.
    """

    def __init__(
        self,
        rpc: "QuorumRpc",
        request_id: int,
        make_request: Callable[[ProcessId, int], object],
        min_count: int,
        prefer: Optional[Callable[[Dict[ProcessId, object]], bool]],
    ) -> None:
        self.rpc = rpc
        self.transport = rpc.transport
        self.request_id = request_id
        self.make_request = make_request
        self.min_count = min_count
        self.prefer = prefer
        self.replies: Dict[ProcessId, object] = {}
        self.complete = self.transport.event()
        self.finished = False
        self.expired = False
        #: Retransmission rounds fired so far; the phase expires once
        #: they add up to ``op_timeout``.
        self.rounds = 0
        self._grace_started = False
        #: Retransmit and grace timers still armed for this
        #: phase; cancelled on completion so the kernel heap stops
        #: pinning the call, its reply map and the request closures.
        self._timers: Dict[str, TimerHandle] = {}

    def arm(self, role: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm this phase's ``role`` timer (replacing its previous one)."""
        self._timers[role] = self.transport.set_timer(delay, callback)

    def transmit(self) -> None:
        """Send the request to every process that has not replied."""
        node = self.rpc.node
        for destination in self.rpc.universe:
            if destination in self.replies:
                continue
            request = self.make_request(destination, self.request_id)
            node.send(destination, request, size=request.size)

    def retransmit(self) -> None:
        """Retransmit timer: resend to non-responders and re-arm, or
        expire the phase once its rounds add up to ``op_timeout``."""
        rpc = self.rpc
        # Stop when the phase finished, the call was abandoned (the
        # coordinator crashed and its pending table was cleared on
        # recovery), or the node is down — otherwise a crashed
        # coordinator would retransmit forever and the simulation
        # would never drain.
        if self.finished or rpc._pending.get(self.request_id) is not self:
            return
        if not rpc.node.is_up:
            return
        self.rounds += 1
        if self.rounds * _RETRANSMIT_INTERVAL >= rpc.config.op_timeout:
            self.expire()
            return
        rpc.node.metrics.count_retransmission()
        self.transmit()
        self.arm("retransmit", _RETRANSMIT_INTERVAL, self.retransmit)

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
                self.arm("grace", _GRACE, self._finish)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.complete.succeed(dict(self.replies))

    def expire(self) -> None:
        """Give up on the phase (its rounds reached ``op_timeout``).

        If a quorum never arrived, the phase is marked expired and the
        caller receives ``None`` — an expired sub-quorum phase must
        never be mistaken for a successful quorum round.
        """
        if not self.finished and len(self.replies) < self.min_count:
            self.expired = True
        self._finish()


class _Admission:
    """One brick's admission gate for client operations.

    At most ``_MAX_ACTIVE_OPS`` operations hold a slot; the rest wait on
    an event each, oldest first, and a finishing operation hands its
    slot straight to the oldest waiter.  The gate is volatile: the
    coordinator replaces it on recovery, so the slots and places of the
    operations a crash interrupted go with the old gate.
    """

    __slots__ = ("active", "waiters")

    def __init__(self) -> None:
        self.active = 0
        self.waiters: Deque[Event] = deque()

    def release(self) -> None:
        """Pass a finished operation's slot on, or free it."""
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.active -= 1


def _admitted(operation):
    """Run a public client operation once its brick admits it.

    The wait comes before the operation's ``begin_op`` and first phase,
    so per-operation latencies measure only the protocol, and an
    operation admitted at once costs no kernel event.  Repairs call
    ``_recover`` directly and are never gated.
    """

    @functools.wraps(operation)
    def gated(self, *args):
        gate = self._admission
        if gate.active < _MAX_ACTIVE_OPS:
            gate.active += 1
        else:
            slot = self.transport.event()
            gate.waiters.append(slot)
            yield slot
        try:
            return (yield from operation(self, *args))
        finally:
            gate.release()

    return gated


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
        call = _PendingCall(self, request_id, make_request, needed, prefer)
        self._pending[request_id] = call
        call.transmit()
        call.arm("retransmit", _RETRANSMIT_INTERVAL, call.retransmit)

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
        self.rpc = QuorumRpc(
            node,
            universe=quorum_system.universe,
            quorum_size=quorum_system.quorum_size,
            config=self.config,
        )
        self._admission = _Admission()
        node.on_recovery(self._reset_admission)

    def _reset_admission(self) -> None:
        self._admission = _Admission()

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

    @_admitted
    def read_stripe(self, register_id: int):
        """``read-stripe()``: returns the stripe (list of m blocks),
        ``None`` for a never-written stripe, or ABORT."""
        op = self.metrics.begin_op("read-stripe", self.transport.now())
        value = ABORT
        if not self.config.disable_fast_read:
            blocks = yield from self._fast_read(
                register_id, self._pick_read_targets(),
                range(1, self.m + 1), op,
            )
            if blocks is not None:
                value = self._decode_stripe(blocks)
        if value is ABORT:
            op.path = "slow"
            value = yield from self._recover(register_id)
        self.metrics.end_op(op, self.transport.now(), aborted=value is ABORT)
        return value

    def _fast_read(self, register_id: int, targets: frozenset,
                   wanted: Sequence[int], op):
        """``[Read, targets]``: the fast read, with no replica state change.

        Returns ``{i: block}`` for the ``m`` (or, for a block read, the
        requested) targets of a round that met the fast-read condition
        (line 8), else ``None``: a refused, inconsistent, corrupt or
        expired round alike, each of which the caller answers with
        ``recover()``.  A round whose only defect is a target that never
        replied is run once more at targets :meth:`_read_around` picks
        from its repliers (``op.path = "retarget"``); the blocks then
        are those ``m`` targets', which the caller decodes.
        """
        replies = yield from self._read_round(register_id, targets)
        if replies is None:
            return None
        if not self._fast_read_condition(replies, targets):
            targets = self._read_around(replies, wanted)
            if targets is None:
                return None
            op.path = "retarget"
            replies = yield from self._read_round(register_id, targets)
            if replies is None or not self._fast_read_condition(
                replies, targets
            ):
                return None
        return {i: replies[i].block for i in targets}

    def _read_round(self, register_id: int, targets: frozenset):
        """One ``[Read, targets]`` round: the reply map, None if expired."""
        quorum_size = self.quorum_system.quorum_size

        def good(replies: Dict[ProcessId, ReadReply]) -> bool:
            return (
                len(replies) >= quorum_size
                and self._fast_read_condition(replies, targets)
            )

        replies = yield from self.rpc.call(
            lambda dst, rid: ReadReq(
                register_id=register_id, request_id=rid, targets=targets
            ),
            prefer=good,
        )
        if replies is not None:
            for reply in replies.values():
                self._observe(reply.val_ts)
        return replies

    def _read_around(self, replies: Dict[ProcessId, ReadReply],
                     wanted: Sequence[int]) -> Optional[frozenset]:
        """Targets for a second fast round around a silent target.

        Applies only when the failed round's sole defect is a target
        that never replied: a quorum answered, every reply is clean with
        ``status = true``, and all carry one ``val_ts``.  Any other
        defect — a refusal, mixed ``val_ts`` (a partial write) or a
        corrupt reply (``status`` false, so the write-back repairs it) —
        returns ``None`` and the caller recovers.  Otherwise returns
        ``m`` repliers the code decodes from, preferring the ``wanted``
        blocks' own bricks, then the data bricks; ``None`` if the
        repliers do not span the stripe.
        """
        if not all(reply.status for reply in replies.values()):
            return None
        if len({reply.val_ts for reply in replies.values()}) != 1:
            return None
        if not self.code.is_decodable(replies):
            return None
        order = sorted(replies, key=lambda i: (i not in wanted, i > self.m, i))
        for subset in itertools.combinations(order, self.m):
            if self.code.is_decodable(subset):
                return frozenset(subset)
        return None

    def _pick_read_targets(self) -> frozenset:
        """Pick ``m`` random read targets whose blocks jointly decode.

        The paper's line 6 ("pick m random processes") is sound for MDS
        codes, where every ``m``-subset decodes.  Non-MDS codes (LRC)
        have rank-deficient ``m``-subsets — e.g. a local group's data
        plus its own parity — so redraw until the code accepts the set,
        falling back to the systematic data blocks, which always span.
        """
        for _ in range(8):
            order = list(self.quorum_system.universe)
            self._rng.shuffle(order)
            targets = frozenset(order[:self.m])
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

    @_admitted
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

    def _recover(self, register_id: int, prefer=None):
        """``recover()``: re-establish and write back the latest value.

        Returns the stripe, ``None`` for nil, or ABORT.  When the walk
        had to route around checksum-failed fragments, a client read's
        recovery is a degraded read (counted) — and its write-back is
        precisely what repairs the quarantined replicas (they accept
        the fresh fragment via the repair-write path).

        ``prefer`` is forwarded to the write-back's quorum call: the
        rebuilder and the scrub daemon pass every-live-brick coverage.
        Such a recovery is a repair, not a client read, and is not
        counted as a degraded read.
        """
        ts = self._new_ts()
        stripe, degraded, _rounds = yield from self._read_prev_stripe(
            register_id, ts
        )
        if stripe is ABORT:
            return ABORT
        stored = yield from self._store_stripe(
            register_id, stripe, ts, prefer=prefer
        )
        if stored is not OK:
            return ABORT
        if degraded and prefer is None:
            self.metrics.count_degraded_read()
        return stripe

    def _read_prev_stripe(self, register_id: int, ts: Timestamp):
        """``read-prev-stripe(ts)``: newest version with >= m blocks.

        Returns ``(value, degraded, rounds)``: the stripe (list of
        blocks), ``None`` for nil, or ABORT; whether corrupt fragments
        were routed around; and the ``Order&Read`` rounds taken (one
        when the newest version decided).

        Corrupt-flagged replies (checksum-failed fragments) are treated
        as erasures: they never contribute blocks or ordering
        certificates, and the quorum conditions are evaluated over the
        clean replies only.
        """
        max_ts = HIGH_TS
        degraded = False
        rounds = 0
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
            rounds += 1
            if replies is None:
                return ABORT, degraded, rounds
            clean = self._clean(replies)
            if len(clean) < self.quorum_system.quorum_size:
                # not enough verifiable fragments live
                return ABORT, degraded, rounds
            if not all(reply.status for reply in clean.values()):
                for reply in clean.values():
                    self._observe(reply.lts)
                return ABORT, degraded, rounds
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
                    return None, degraded, rounds  # nil: never written
                value_blocks = {
                    i: b for i, b in blocks.items()
                    if isinstance(b, (bytes, bytearray))
                }
                if len(value_blocks) >= self.m:
                    if self.code.is_decodable(value_blocks):
                        stripe = self.code.decode(
                            {i: bytes(b) for i, b in value_blocks.items()}
                        )
                        return stripe, degraded, rounds
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
                    # a complete nil write (recovery stored nil)
                    return None, degraded, rounds
                else:
                    raise ProtocolInvariantError(
                        f"version {max_ts!r} mixes nil and value blocks: "
                        f"{sorted(blocks)}"
                    )

    def _store_stripe(self, register_id: int, stripe, ts: Timestamp,
                      prefer=None):
        """``store-stripe(stripe, ts)``: write encoded blocks to a quorum.

        ``prefer`` is forwarded to the quorum call, so a repair can
        push the value to every *currently* live brick while still
        terminating (quorum + grace) if a brick crashes mid-write-back.
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
        notice = GcReq(
            register_id=register_id,
            request_id=self.rpc.next_request_id(),
            ts=ts,
        )
        for destination in self.quorum_system.universe:
            self.node.send(destination, notice, size=0)

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

    @_admitted
    def read_block(self, register_id: int, j: int):
        """``read-block(j)``: returns the block, None for nil, or ABORT.

        The fast read with ``targets = {j}`` (2δ, one disk read); a
        second fast round decoding from ``m`` repliers when only ``p_j``
        was silent; ``recover()`` when it fails otherwise —
        :meth:`read_blocks` for one block.
        """
        blocks = yield from self._read_blocks(register_id, (j,), "read-block")
        return ABORT if blocks is ABORT else blocks[j]

    @_admitted
    def write_block(self, register_id: int, j: int, block: Block):
        """``write-block(j, b)``: fast Modify path, else the overlay write."""
        self._check_block_indices((j,))
        # p_j logs the Modify's block object itself: a caller's mutable
        # buffer must not become replica state.
        block = bytes(block)
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
            result, _rounds = yield from self._overlay_write(
                register_id, {j: block}, ts
            )
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
            if self.config.gc_enabled:
                self._send_gc(register_id, ts)
            return OK, True
        return ABORT, True

    # ------------------------------------------------------------------
    # Multi-block access (paper footnote 2: "the single-block methods
    # can easily be extended to access multiple blocks")
    # ------------------------------------------------------------------

    @_admitted
    def read_blocks(self, register_id: int, js: Sequence[int]):
        """Read several blocks of one stripe in a single operation.

        Fast path: one Read round targeting every requested block (2δ,
        2n messages, ``len(js)`` disk reads).  When a requested brick is
        silent and nothing else is wrong, a second Read round targets
        ``m`` repliers and decodes (4δ, two rounds of ``n`` requests,
        labelled ``retarget``).  Any other failed fast round recovers the whole
        stripe.  Returns a dict ``{j: block}`` (values ``None`` for a
        nil stripe) or ABORT.
        """
        return (yield from self._read_blocks(register_id, js, "read-blocks"))

    def _read_blocks(self, register_id: int, js: Sequence[int], kind: str):
        """Algorithm 3's ``read-block`` over the targets ``js``."""
        targets = frozenset(js)
        self._check_block_indices(targets)
        op = self.metrics.begin_op(kind, self.transport.now())
        fetched = yield from self._fast_read(register_id, targets, js, op)
        if fetched is not None and targets <= fetched.keys():
            blocks = {j: fetched[j] for j in targets}
        else:
            # Blocks from a retargeted round decode; a failed one recovers.
            stripe = ABORT if fetched is None else self._decode_stripe(fetched)
            if stripe is ABORT:
                op.path = "slow"
                stripe = yield from self._recover(register_id)
            if stripe is ABORT:
                blocks = ABORT
            elif stripe is None:
                blocks = dict.fromkeys(targets)
            else:
                blocks = {j: stripe[j - 1] for j in targets}
        self.metrics.end_op(op, self.transport.now(), aborted=blocks is ABORT)
        return blocks

    @_admitted
    def write_blocks(self, register_id: int, updates: Dict[int, Block]):
        """Write several blocks of one stripe atomically.

        The overlay write at a fresh timestamp: its first
        ``Order&Read(ALL)`` round both reserves the timestamp and
        returns every replica's current block, so with a decodable
        newest version the operation costs 4δ and 4n messages however
        many blocks change (labelled fast).  A partial newest version
        makes the walk descend (labelled slow).  Returns OK or ABORT.
        """
        if not updates:
            return OK
        self._check_block_indices(updates)
        op = self.metrics.begin_op("write-blocks", self.transport.now())
        result, rounds = yield from self._overlay_write(
            register_id, updates, self._new_ts()
        )
        if rounds > 1:
            op.path = "slow"
        self.metrics.end_op(op, self.transport.now(), aborted=result is not OK)
        return result

    def _overlay_write(self, register_id: int, updates: Dict[int, Block],
                       ts: Timestamp):
        """``read-prev-stripe`` + overlay + ``store-stripe`` at ``ts``.

        A nil stripe is overlaid on zeros (standard disk semantics for
        unwritten space).  Returns ``(result, rounds)``: OK or ABORT,
        and the ``Order&Read`` rounds the walk took.
        """
        stripe, _degraded, rounds = yield from self._read_prev_stripe(
            register_id, ts
        )
        if stripe is ABORT:
            return ABORT, rounds
        stripe = self._zero_stripe() if stripe is None else list(stripe)
        for j, block in updates.items():
            stripe[j - 1] = block
        result = yield from self._store_stripe(register_id, stripe, ts)
        return result, rounds
