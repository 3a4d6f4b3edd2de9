"""Pipelined volume I/O with retry and coordinator failover.

The paper's cost model (Table 1) is per-operation, but FAB itself is a
throughput system: clients keep many block operations in flight at once
and any brick can coordinate any of them.  :class:`VolumeSession` is
that client — a pipelined I/O engine over one
:class:`~repro.core.volume.LogicalVolume` which

* keeps up to ``max_inflight`` operations running as simultaneous
  simulation processes (kernel ``AnyOf`` drives the completion pump);
* coalesces the block writes of one ``submit_write_range`` call that
  land in the same stripe into a single ``write-stripe`` (full stripe)
  or atomic ``write-blocks`` (partial stripe) operation — the paper's
  large-write fast path, applied automatically;
* wraps every operation in a :class:`RetryPolicy`: aborts (the
  paper's ⊥) are retried with exponential backoff and deterministic
  jitter, and a crashed coordinator triggers failover to the next live
  brick.  ``RetryPolicy.attempts`` is the one budget that ends an op:
  an attempt with no brick up, or with every live brick
  transport-unreachable, ends ⊥ like any other;
* reports per-session concurrency/retry/abort/failover counters into
  :class:`~repro.sim.monitor.SessionStats`.

Operations are **submitted** (returning a :class:`SessionOp` future)
and run when the simulation advances; :meth:`VolumeSession.drain` runs
the event loop until every submitted operation has finished.  Several
sessions may be live on one cluster — draining any of them advances
them all, which is how multi-client pipelined histories are produced.

A retry is a new operation (the paper's Section 4), not a replay of
the old one: an aborted ``Write``/``Modify`` may have landed at a
minority of bricks, and a later reader can roll it forward.  Konwar et
al.'s SODA likewise states atomicity per write *invocation*.  The
session nevertheless records one history op spanning all attempts.  A
retried ``Modify`` that lands twice is the known consequence, pinned by
the strict xfail
``tests/core/test_coordinator_block.py::TestKnownFindings::test_1a_partial_modify_takes_effect_twice``.

Typical use::

    volume = repro.api.open_volume(m=3, n=5, blocks=48)
    with volume.session(max_inflight=16) as session:
        for block in range(48):
            session.submit_write(block, payload(block))
    # drained on exit; session.stats has retries/failovers/peak_inflight
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, CorruptionDetected, StorageError
from ..sim.kernel import Interrupt, Process
from ..sim.monitor import SessionStats
from ..types import ABORT, Block, OpKind, OpStatus, ProcessId
from ..verify.history import OpRecord

__all__ = ["RetryPolicy", "SessionOp", "VolumeSession", "DEFAULT_SESSION_RETRY"]

#: Multiplier applied to the backoff after each failed try.
_BACKOFF_GROWTH = 1.5
#: Fraction of the current backoff added as deterministic jitter (drawn
#: from the session's seeded RNG): the actual wait is uniform in
#: ``[backoff, backoff * (1 + _JITTER)]``, so colliding pipelines
#: de-synchronize.
_JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    Attributes:
        attempts: total tries (first attempt included); must be >= 1.
        backoff: simulated time to wait before the first retry; each
            later wait grows by 1.5x, plus up to 50% seeded jitter.
            Backoff matters: conflicting coordinators that retry in
            lockstep re-collide, while even a small stagger lets one of
            them win.
        max_failovers: bound on coordinator rotations per operation
            (crash-driven) before giving up; 0 disables failover, so a
            crashed coordinator fails the operation.

    An attempt is never abandoned: every quorum phase ends by itself
    within ``CoordinatorConfig.op_timeout``, as ⊥ when no quorum
    answers.  So a retry starts only once its previous attempt has
    returned, and an op that cannot reach a quorum ends ``"aborted"``
    after ``attempts`` tries, whatever the cause: a lost quorum, every
    live brick transport-down, or no brick up at all (that attempt is
    ⊥ without being sent).
    """

    attempts: int = 3
    backoff: float = 5.0
    max_failovers: int = 16

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")
        if self.max_failovers < 0:
            raise ConfigurationError("max_failovers must be >= 0")


#: The session default: persistent enough to ride out abort storms and
#: brief quorum loss, with jitter so colliding pipelines de-synchronize.
DEFAULT_SESSION_RETRY = RetryPolicy(attempts=10, backoff=2.0)


class SessionOp:
    """One submitted operation: a future resolved when the op finishes.

    Attributes:
        kind: ``"read-block" | "read-blocks" | "write-block" |
            "write-blocks" | "write-stripe"`` (coalescing chooses the
            widest applicable kind).
        register_id: stripe register the operation addresses.
        blocks: logical block numbers covered, in submission order.
        units: matching 1-based in-stripe unit indices.
        payload: data being written (block, tuple of blocks, or None).
        status: ``"pending"`` then one of ``"ok" | "aborted" |
            "crashed" | "failed"``: ``"aborted"`` once
            ``RetryPolicy.attempts`` tries ended ⊥, ``"crashed"`` past
            ``max_failovers``, ``"failed"`` on an internal error.
        value: client-visible result (bytes/list for reads, ``"OK"``
            for writes, :data:`~repro.types.ABORT` on exhausted
            retries).
        attempts / retries / failovers: per-op retry accounting.
        submitted_at / finished_at: simulated invocation/response times.
        coordinator: brick that served the final attempt.
    """

    __slots__ = (
        "kind", "register_id", "blocks", "units", "payload", "status",
        "value", "error", "attempts", "retries", "failovers",
        "submitted_at", "finished_at", "coordinator",
    )

    def __init__(
        self,
        kind: str,
        register_id: int,
        blocks: Tuple[int, ...],
        units: Tuple[int, ...],
        payload,
        submitted_at: float,
    ) -> None:
        self.kind = kind
        self.register_id = register_id
        self.blocks = blocks
        self.units = units
        self.payload = payload
        self.submitted_at = submitted_at
        self.status = "pending"
        self.value = None
        self.error: Optional[BaseException] = None
        self.attempts = 0
        self.retries = 0
        self.failovers = 0
        self.finished_at: Optional[float] = None
        self.coordinator: Optional[ProcessId] = None

    @property
    def done(self) -> bool:
        """True once the operation has a terminal status."""
        return self.status != "pending"

    @property
    def ok(self) -> bool:
        """True if the operation completed with a usable value."""
        return self.status == "ok"

    @property
    def is_write(self) -> bool:
        return self.kind.startswith("write")

    @property
    def result(self):
        """The client-visible outcome.

        Reads return bytes (single block) or a list of bytes; writes
        return ``"OK"``.  Exhausted retries return
        :data:`~repro.types.ABORT`.  A hard failure (failovers past the
        policy's budget, or an internal error) raises.
        """
        if not self.done:
            raise StorageError(
                f"operation {self.kind}@r{self.register_id} still pending; "
                "drain() the session first"
            )
        if self.status in ("crashed", "failed"):
            if isinstance(self.error, BaseException):
                raise StorageError(
                    f"{self.kind}@r{self.register_id} failed: {self.error!r}"
                ) from self.error
            raise StorageError(f"{self.kind}@r{self.register_id} failed")
        return self.value

    def __repr__(self) -> str:
        return (
            f"SessionOp({self.kind}, register={self.register_id}, "
            f"blocks={list(self.blocks)}, status={self.status})"
        )


class VolumeSession:
    """A pipelined, retrying, failing-over client of one logical volume.

    Args:
        volume: the :class:`~repro.core.volume.LogicalVolume` to drive.
        max_inflight: operations kept running concurrently (>= 1).
        retry: retry/backoff policy; defaults to
            :data:`DEFAULT_SESSION_RETRY`.
        route: the pid of a preferred coordinator, or ``None``.  A
            pinned coordinator is preferred while alive; otherwise (and
            with ``None``) the session rotates round-robin over live
            bricks, spreading coordination load as the paper's
            decentralized design intends.  A crashed coordinator
            always fails over to the next live brick.
        seed: jitter RNG seed; defaults to a value derived from the
            cluster seed, so identically-seeded runs are bit-identical.
    """

    def __init__(
        self,
        volume,
        max_inflight: int = 8,
        retry: Optional[RetryPolicy] = None,
        route: Optional[ProcessId] = None,
        seed: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.volume = volume
        self.cluster = volume.cluster
        self.env = self.cluster.env
        self.transport = self.cluster.transport
        self.max_inflight = max_inflight
        self.retry = retry or DEFAULT_SESSION_RETRY
        self.route = route
        if seed is None:
            seed = (self.cluster.config.seed * 2654435761 + 0x5E5510) % 2**31
        self._seed = seed
        #: Jitter RNG, seeded from ``_seed`` at the first retry: most
        #: sessions never retry and need not hold its state.
        self._rng: Optional[random.Random] = None
        self.stats: SessionStats = self.cluster.metrics.begin_session(
            now=self.transport.now()
        )
        self.ops: List[SessionOp] = []
        self._queue: deque = deque()
        self._inflight: Dict[Process, SessionOp] = {}
        self._busy_registers: set = set()
        self._pump: Optional[Process] = None
        self._rr = 0

    # -- submission ----------------------------------------------------------

    def submit_read(self, logical_block: int) -> SessionOp:
        """Queue a one-block read; returns its :class:`SessionOp` future."""
        register_id, unit = self.volume.locate(logical_block)
        return self._enqueue(
            "read-block", register_id, (logical_block,), (unit,), None
        )

    def submit_write(self, logical_block: int, data: Block) -> SessionOp:
        """Queue a one-block write; returns its :class:`SessionOp` future."""
        self._check_block(data)
        register_id, unit = self.volume.locate(logical_block)
        return self._enqueue(
            "write-block", register_id, (logical_block,), (unit,), bytes(data)
        )

    def submit_read_range(self, start_block: int, count: int) -> List[SessionOp]:
        """Queue reads of ``count`` consecutive blocks, coalesced per stripe."""
        groups = self._stripe_groups(
            range(start_block, start_block + count), payloads=None
        )
        ops = []
        for register_id, items in groups:
            blocks = tuple(block for block, _unit, _data in items)
            units = tuple(unit for _block, unit, _data in items)
            kind = "read-block" if len(items) == 1 else "read-blocks"
            ops.append(self._enqueue(kind, register_id, blocks, units, None))
        return ops

    def submit_write_range(
        self, start_block: int, data_blocks: Sequence[Block]
    ) -> List[SessionOp]:
        """Queue writes of consecutive blocks, coalesced per stripe.

        Blocks of the range that land in the same stripe become one
        operation: a full-stripe ``write-stripe`` when all ``m`` units
        are covered (Table 1's 4δ/4n large-write path), else an atomic
        ``write-blocks``.
        """
        for data in data_blocks:
            self._check_block(data)
        # Snapshot the payloads: a reused buffer must not rewrite what
        # history() reports as written.
        data_blocks = [bytes(data) for data in data_blocks]
        blocks = range(start_block, start_block + len(data_blocks))
        ops = []
        for register_id, items in self._stripe_groups(blocks, data_blocks):
            covered = tuple(block for block, _unit, _data in items)
            units = tuple(unit for _block, unit, _data in items)
            if len(items) > 1:
                self.stats.coalesced_writes += len(items) - 1
            if len(items) == self.volume.m:
                stripe = [None] * self.volume.m
                for _block, unit, data in items:
                    stripe[unit - 1] = data
                ops.append(self._enqueue(
                    "write-stripe", register_id, covered, units, tuple(stripe)
                ))
            elif len(items) == 1:
                ops.append(self._enqueue(
                    "write-block", register_id, covered, units, items[0][2]
                ))
            else:
                payload = tuple(data for _block, _unit, data in items)
                ops.append(self._enqueue(
                    "write-blocks", register_id, covered, units, payload
                ))
        return ops

    # -- draining ------------------------------------------------------------

    def drain(self) -> List[SessionOp]:
        """Run the simulation until every submitted operation finished.

        Returns this session's operations (completed ones included from
        earlier drains).  Other live sessions on the same cluster make
        progress too — their operations and this session's interleave
        in simulated time.
        """
        while self._pump is not None and not self._pump.triggered:
            self.transport.run_until_complete(self._pump)
        self.stats.finished_at = self.transport.now()
        return list(self.ops)

    async def drain_async(self) -> List[SessionOp]:
        """Await every submitted operation (any transport).

        The async twin of :meth:`drain`: on an
        :class:`~repro.transport.aio.AsyncioTransport` the pump runs in
        wall time and this coroutine suspends without blocking the
        event loop — thousands of sessions drain concurrently.  On a
        :class:`~repro.transport.sim.SimTransport` awaiting simply
        drives virtual time, so substrate-agnostic load drivers work on
        both.
        """
        while self._pump is not None and not self._pump.triggered:
            await self.transport.wait_for(self._pump)
        self.stats.finished_at = self.transport.now()
        return list(self.ops)

    def read(self, logical_block: int):
        """Synchronous pipelined read: submit, drain, return the value."""
        op = self.submit_read(logical_block)
        self.drain()
        return op.result

    def write(self, logical_block: int, data: Block):
        """Synchronous pipelined write: submit, drain, return the status."""
        op = self.submit_write(logical_block, data)
        self.drain()
        return op.result

    def __enter__(self) -> "VolumeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()

    # -- history -------------------------------------------------------------

    def history(self) -> List[OpRecord]:
        """Client-visible operation records for linearizability checking.

        Each multi-block operation expands to one record per covered
        unit (atomic within the operation's invocation/response
        window); full-stripe writes stay single ``WRITE_STRIPE``
        records.  Feed the per-register projection to the Appendix-B
        checkers.  An operation's window spans all its retries, so an
        earlier partial attempt that a reader rolls forward counts as
        part of the final one; a third party's write in between can
        then make the value come back (see the module docstring).
        """
        status_map = {
            "ok": OpStatus.OK,
            "aborted": OpStatus.ABORTED,
            "crashed": OpStatus.CRASHED,
            "failed": OpStatus.CRASHED,
            "pending": OpStatus.PENDING,
        }
        ids = itertools.count(1)
        records: List[OpRecord] = []
        for op in self.ops:
            status = status_map[op.status]
            if op.kind == "write-stripe":
                records.append(OpRecord(
                    op_id=next(ids), kind=OpKind.WRITE_STRIPE,
                    block_index=None, value=list(op.payload),
                    t_inv=op.submitted_at, t_resp=op.finished_at,
                    status=status, coordinator=op.coordinator,
                    register_id=op.register_id,
                ))
                continue
            for position, unit in enumerate(op.units):
                if op.is_write:
                    kind = OpKind.WRITE_BLOCK
                    value = (
                        op.payload if op.kind == "write-block"
                        else op.payload[position]
                    )
                else:
                    kind = OpKind.READ_BLOCK
                    if op.status != "ok":
                        value = None
                    elif op.kind == "read-block":
                        value = op.value
                    else:
                        value = op.value[position]
                records.append(OpRecord(
                    op_id=next(ids), kind=kind, block_index=unit,
                    value=value, t_inv=op.submitted_at,
                    t_resp=op.finished_at, status=status,
                    coordinator=op.coordinator,
                    register_id=op.register_id,
                ))
        return records

    # -- internals -----------------------------------------------------------

    def _check_block(self, data: Block) -> None:
        if len(data) != self.volume.block_size:
            raise ConfigurationError(
                f"data must be exactly {self.volume.block_size} bytes, "
                f"got {len(data)}"
            )

    def _stripe_groups(self, blocks, payloads):
        """Group logical blocks by the stripe register they land in.

        Returns ``[(register_id, [(block, unit, data), ...]), ...]`` in
        first-touch order; ``data`` is None when ``payloads`` is None.
        """
        groups: Dict[int, List[Tuple[int, int, Optional[Block]]]] = {}
        order: List[int] = []
        for offset, block in enumerate(blocks):
            register_id, unit = self.volume.locate(block)
            data = payloads[offset] if payloads is not None else None
            if register_id not in groups:
                groups[register_id] = []
                order.append(register_id)
            groups[register_id].append((block, unit, data))
        return [(register_id, groups[register_id]) for register_id in order]

    def _enqueue(self, kind, register_id, blocks, units, payload) -> SessionOp:
        op = SessionOp(
            kind, register_id, blocks, units, payload,
            submitted_at=self.transport.now(),
        )
        self.ops.append(op)
        self._queue.append(op)
        self.stats.ops_submitted += 1
        if self._pump is None or self._pump.triggered:
            self._pump = self.transport.spawn(self._pump_loop())
        return op

    def _next_dispatchable(self) -> Optional[SessionOp]:
        """Pop the first queued op whose register has nothing in flight.

        The session never races its own operations on one stripe:
        dispatch is out-of-order across registers but in submission
        order per register, so a pipeline full of writes to the same
        block does not abort-storm itself — conflicts are left to
        genuinely concurrent clients.
        """
        for index, op in enumerate(self._queue):
            if op.register_id not in self._busy_registers:
                del self._queue[index]
                return op
        return None

    def _pump_loop(self):
        """Keep up to ``max_inflight`` operations running until drained."""
        while self._queue or self._inflight:
            while self._queue and len(self._inflight) < self.max_inflight:
                op = self._next_dispatchable()
                if op is None:
                    break
                self._busy_registers.add(op.register_id)
                self._inflight[self.transport.spawn(self._run_op(op))] = op
            self.stats.note_inflight(len(self._inflight))
            yield self.transport.any_of(list(self._inflight))
            for process in [p for p in self._inflight if p.triggered]:
                self._busy_registers.discard(self._inflight[process].register_id)
                del self._inflight[process]
        return None

    def _pick_coordinator(
        self, op: SessionOp, avoid: Optional[ProcessId] = None
    ) -> Optional[ProcessId]:
        """Choose the coordinating brick for the next attempt.

        Health-aware: prefers the pinned coordinator while it is alive,
        transport-reachable, and not the brick just failed away from;
        otherwise rotates round-robin over live bricks, preferring
        ``"up"`` peers over ``"suspect"`` ones and avoiding ``"down"``
        peers while any alternative exists.  With at most ``f`` bricks
        unreachable this always finds a quorum-capable route, so a
        killed TCP listener degrades throughput rather than stalling
        the session.  When *every* live brick is transport-down, one is
        returned anyway: the attempt runs, its phases expire into ⊥, and
        it is charged to ``RetryPolicy.attempts`` like any other, so the
        backoff between attempts is the reconnect prober's time to
        work.  Returns ``None`` only when no brick is up at all.
        """
        live = self.cluster.live_processes()
        if not live:
            return None
        state = self.transport.peer_state
        pinned = self.route
        if (
            pinned is not None and pinned in live and pinned != avoid
            and state(pinned) != "down"
        ):
            return pinned
        if avoid in live and len(live) > 1:
            live = [pid for pid in live if pid != avoid]
        for wanted in (("up",), ("up", "suspect")):
            candidates = [pid for pid in live if state(pid) in wanted]
            if candidates:
                break
        else:
            candidates = live  # all transport-down: the attempt ends ⊥
        pid = candidates[self._rr % len(candidates)]
        self._rr += 1
        return pid

    def _spawn_attempt(self, op: SessionOp, pid: ProcessId) -> Process:
        register = self.cluster.register(op.register_id, pid)
        if op.kind == "read-block":
            return register.read_block_async(op.units[0])
        if op.kind == "read-blocks":
            return register.read_blocks_async(list(op.units))
        if op.kind == "write-block":
            return register.write_block_async(op.units[0], op.payload)
        if op.kind == "write-blocks":
            return register.write_blocks_async(
                dict(zip(op.units, op.payload))
            )
        if op.kind == "write-stripe":
            return register.write_stripe_async(list(op.payload))
        raise ConfigurationError(f"unknown session op kind {op.kind!r}")

    def _run_op(self, op: SessionOp):
        """Drive one operation to completion: retry, back off, fail over.

        Every pass is one attempt, sent or not (no brick up), and the op
        ends ``"aborted"`` once an attempt ends ⊥ with
        ``RetryPolicy.attempts`` spent; ``max_failovers`` bounds the
        coordinator crashes it rides out.
        """
        policy = self.retry
        delay = policy.backoff
        avoid: Optional[ProcessId] = None
        try:
            while True:
                pid = self._pick_coordinator(op, avoid=avoid)
                avoid = None
                op.attempts += 1
                if pid is None:
                    result = ABORT  # no brick is up: ⊥ without a spawn
                else:
                    op.coordinator = pid
                    try:
                        result = yield self._spawn_attempt(op, pid)
                    except Interrupt:
                        # Coordinator crashed mid-operation.
                        if not self._note_failover(op):
                            return
                        avoid = pid
                        continue
                    except CorruptionDetected:
                        # The coordinator tripped over a quarantined
                        # local register.  Retryable in exactly the
                        # abort sense: a different coordinator — or a
                        # scrub repair in the meantime — can complete
                        # the operation.
                        result = ABORT
                        avoid = pid
                if result is not ABORT:
                    self._finalize_ok(op, result)
                    return
                # ⊥: the attempt may have landed at a minority that a
                # reader can roll forward; the retry is a new operation
                # (Section 4).
                if op.attempts >= policy.attempts:
                    op.status = "aborted"
                    op.value = ABORT
                    self.stats.aborts_exhausted += 1
                    self._finish(op)
                    return
                op.retries += 1
                self.stats.retries += 1
                if self._rng is None:
                    self._rng = random.Random(self._seed)
                wait = delay * (1.0 + _JITTER * self._rng.random())
                delay *= _BACKOFF_GROWTH
                yield self.transport.timer(wait)
        except Exception as error:
            # Never kill the pump.  A TerminalTransportError (pump died,
            # transport stopped) lands here too: no retry can succeed.
            op.status = "failed"
            op.error = error
            self.stats.ops_failed += 1
            self._finish(op, completed=False)

    def _note_failover(self, op: SessionOp) -> bool:
        """Count a failover; finalize the op past the policy's budget."""
        op.failovers += 1
        self.stats.failovers += 1
        if op.failovers > self.retry.max_failovers:
            op.status = "crashed"
            op.error = StorageError(
                f"{op.kind} failed over {op.failovers} times without "
                "completing"
            )
            self.stats.ops_failed += 1
            self._finish(op, completed=False)
            return False
        return True

    def _finalize_ok(self, op: SessionOp, result) -> None:
        op.status = "ok"
        if op.is_write:
            op.value = result  # "OK"
        elif op.kind == "read-block":
            op.value = self._materialize(result)
        else:  # read-blocks: order per-unit replies by submission order
            op.value = [
                self._materialize(result[unit]) for unit in op.units
            ]
        self._finish(op)

    def _materialize(self, block) -> Block:
        """nil blocks read as zeros — standard disk semantics."""
        if block is None:
            return bytes(self.volume.block_size)
        return bytes(block)

    def _finish(self, op: SessionOp, completed: bool = True) -> None:
        op.finished_at = self.transport.now()
        if completed:
            self.stats.ops_completed += 1

    def __repr__(self) -> str:
        return (
            f"VolumeSession(max_inflight={self.max_inflight}, "
            f"submitted={self.stats.ops_submitted}, "
            f"inflight={len(self._inflight)}, queued={len(self._queue)})"
        )
