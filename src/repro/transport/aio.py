"""AsyncioTransport: wall-clock timers and socket (or loopback) frames.

The protocol layer is written as sim-kernel generators, and that
machinery is substrate-independent: an :class:`AsyncioTransport` embeds
its own :class:`~repro.sim.kernel.Environment` and runs it from asyncio
loop callbacks in *wall* time.  The kernel's virtual clock is clamped
to the scaled wall clock — one unit is one millisecond, so an event
armed "8 units out" fires roughly 8 ms later.

``loopback`` mode injects messages straight into the shared event queue
(``repro serve`` hosts a cluster plus thousands of sessions this way).
In ``tcp`` mode process ``pid`` listens at ``base_port + pid - 1`` and
messages travel as length-prefixed binary frames
(:mod:`repro.transport.wire`); a process's message to itself is
injected as on loopback.  No task runs per event or per frame:

* **Inbox** — injected messages are appended to one pending
  :class:`~repro.transport.base.DeliveryBatch`, queued at the kernel's
  current instant by the first of them and delivered, in global send
  order, by one kernel step; a message sent while it delivers opens the
  next inbox.  Crash markers and cuts are re-checked per message.
* **Pump** — one loop handle, :meth:`AsyncioTransport._run_due`, steps
  up to ``_STEPS_PER_YIELD`` due kernel events (an inbox is one step,
  however many messages it carries) and re-arms itself with
  ``call_soon`` (more is due) or ``call_later`` (the queue head's wall
  time).  New work only moves that handle forward when it makes the
  queue head earlier; kicks from inside a batch are no-ops, so at most
  one handle is ever live.
* **Reader** — an accepted connection is an asyncio protocol whose
  ``data_received`` advances the clock once, feeds a
  :class:`~repro.transport.wire.FrameParser` and appends every frame
  the chunk completed to the inbox.
* **Writer** — frames wait in a per-destination list; while the peer
  is connected, one ``call_soon`` flush per loop iteration writes each
  destination's frames with a single ``write``.  A supervisor task per
  destination connects and reconnects with capped exponential backoff
  and *full jitter* (``uniform(0, min(1 s, 50 ms * 2^attempt))``), so a
  restarted brick is re-adopted without a thundering herd; one connect
  attempt is bounded by 2 s, and a connection whose buffer stays above
  its high-water mark (``pause_writing``) for 2 s is aborted.

At most 1024 frames wait per destination: overflow while a peer is
unreachable or not reading is *dropped and counted* (``outbox_drops``),
as are an aborted stall's queued frames and the batch that filled its
buffer.  Peer health walks ``up → suspect → down``: the first failure
marks a peer suspect, 3 consecutive failed connection attempts mark it
down, and a successful connect snaps it back to up; the backoff loop
keeps probing a down peer.  :meth:`peer_state` exposes the verdict for
health-aware routing.

A died pump (a protocol invariant violation, or a bug) is surfaced
*promptly*: ``send`` / ``set_timer`` / ``timer`` / ``spawn`` / ``stop``
raise :class:`~repro.errors.TerminalTransportError` once the pump is
dead, and ``wait_for`` re-raises the original error — no caller is left
hanging on a transport that will never make progress again.

Timers use the sim's tolerances (retransmit 8 units, grace 2 units →
8 ms / 2 ms of wall clock); the replica reply cache absorbs duplicates
that early retransmissions cause.  ``run`` / ``run_until_complete``
raise: use ``await start()`` / ``wait_for`` / ``stop()`` or ``repro
serve`` instead.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigurationError, SimulationError, TerminalTransportError
from ..types import ProcessId
from ..sim.kernel import Environment, Event, Timeout
from ..sim.network import Message
from .base import DeliveryBatch, TimerHandle, Transport
from . import wire

__all__ = ["AsyncioTransport"]

_MODES = ("loopback", "tcp")
#: Most kernel events one pump callback steps before it lets the loop
#: run other callbacks (socket reads, client coroutines).  It bounds
#: steps, not messages: an inbox step delivers every message sent since
#: the previous one.
_STEPS_PER_YIELD = 200
#: ``_pump_at`` with no pump handle armed, and with one due now.
_IDLE = float("inf")
_DUE_NOW = float("-inf")
#: How long ``stop()`` waits for connections to flush before cancelling.
_DRAIN_TIMEOUT_S = 2.0
#: Kernel time units per wall second: one unit is one millisecond, so
#: protocol tolerances written in sim units become sane socket timings.
_TIME_SCALE = 1000.0
#: Most frames queued per destination and not yet written; overflow is
#: dropped and counted (``outbox_drops``).
_OUTBOX_LIMIT = 1024
#: Reconnect backoff window: the sleep before attempt k is uniform in
#: ``[0, min(cap, base * 2^(k-1))]`` (full jitter).
_RECONNECT_BASE_S = 0.05
_RECONNECT_CAP_S = 1.0
#: Deadlines on one connect attempt and on one paused (full) buffer.
_CONNECT_TIMEOUT_S = 2.0
_WRITE_TIMEOUT_S = 2.0
#: Consecutive failed connection attempts before a suspect peer is down.
_DOWN_AFTER = 3
#: Seed of the backoff-jitter RNG: load-shedding randomness, not
#: protocol randomness, but a seed keeps even chaos runs reproducible
#: in aggregate.
_RECONNECT_SEED = 0
#: Valid TCP ports for a brick's listening socket.
_PORTS = range(1, 65536)


class _FrameReader:
    """An accepted connection (an asyncio protocol by duck typing, so
    the sim never imports asyncio): each chunk read is parsed and its
    frames appended to the inbox.  Garbage on the port (an undecodable
    body, an implausible length) is one counted drop and the end of
    that connection.
    """

    __slots__ = ("_owner", "_parser", "_conn")

    def __init__(self, owner: "AsyncioTransport") -> None:
        self._owner = owner
        self._parser = wire.FrameParser()
        self._conn = None

    def connection_made(self, conn) -> None:
        self._conn = conn
        self._owner._accepted.add(conn)

    def data_received(self, data: bytes) -> None:
        owner = self._owner
        owner._advance_clock()
        try:
            for src, dst, payload, size in self._parser.feed(data):
                owner._inject(Message(src, dst, payload, size))
        except ConfigurationError:
            if owner.metrics is not None:
                owner.metrics.count_drop()
            self._conn.close()

    def eof_received(self) -> None:
        return None  # asyncio closes the connection

    def connection_lost(self, _exc: Optional[BaseException]) -> None:
        self._owner._accepted.discard(self._conn)


class _Link:
    """The sending end of one destination's connection: in ``_links``
    while it takes writes, out of the flush while paused (a pause past
    ``_WRITE_TIMEOUT_S`` aborts it); ``lost`` resolves when it is gone.
    """

    __slots__ = ("_owner", "dst", "conn", "lost", "paused", "batch", "_stall")

    def __init__(self, owner: "AsyncioTransport", dst: ProcessId) -> None:
        self._owner = owner
        self.dst = dst
        self.conn = None
        self.lost = owner._loop.create_future()
        self.paused = False
        #: Frames in the last write (the one that fills a stalled buffer).
        self.batch = 0
        self._stall = None

    def connection_made(self, conn) -> None:
        self.conn = conn
        self._owner._links[self.dst] = self
        self._owner._schedule_flush()

    def data_received(self, data: bytes) -> None:
        pass  # peers never write back on a sending connection

    def eof_received(self) -> None:
        self._detach()  # queued frames wait for the reconnect

    def pause_writing(self) -> None:
        self.paused = True
        self._stall = self._owner._loop.call_later(
            _WRITE_TIMEOUT_S, self._stalled
        )

    def resume_writing(self) -> None:
        self.paused = False
        self._stall.cancel()
        self._stall = None
        self._owner._schedule_flush()

    def _stalled(self) -> None:
        """The peer stopped reading: abort, and count what is lost."""
        owner = self._owner
        self._detach()
        outbox = owner._outboxes.get(self.dst, [])
        owner._count_frame_drop(self.dst, len(outbox) + self.batch)
        outbox.clear()
        self.conn.abort()

    def _detach(self) -> None:
        if self._owner._links.get(self.dst) is self:
            del self._owner._links[self.dst]

    def connection_lost(self, _exc: Optional[BaseException]) -> None:
        if self._stall is not None:
            self._stall.cancel()
        self._detach()
        if not self.lost.done():  # cancelled with its supervisor
            self.lost.set_result(None)


class AsyncioTransport(Transport):
    """Wall-clock transport over asyncio, loopback or TCP framing.

    Args:
        mode: ``"loopback"`` (in-process, default) or ``"tcp"``.
        host: bind/connect address for ``tcp`` mode.
        base_port: process ``pid`` listens on ``base_port + pid - 1``;
            in ``tcp`` mode every such port must lie in 1..65535.
        metrics: optional metric sink (message/drop counting), shared
            with the cluster when one adopts this transport.
    """

    def __init__(
        self,
        mode: str = "loopback",
        host: str = "127.0.0.1",
        base_port: int = 7420,
        metrics: Any = None,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(
                f"unknown asyncio transport mode {mode!r}; valid: {_MODES}"
            )
        super().__init__()
        self.mode = mode
        self.host = host
        self.base_port = base_port
        self.metrics = metrics
        self.env = Environment()
        self._endpoints: Dict[ProcessId, Callable[[Any], None]] = {}
        self._running = False
        self._origin: Optional[float] = None
        self._loop = None
        #: The one live pump handle, and the kernel time it is due at
        #: (``_IDLE`` with none armed; ``_DUE_NOW`` while one is due now
        #: or running, and while the transport is stopped or dead).
        self._pump_handle = None
        self._pump_at = _DUE_NOW
        self._pump_error: Optional[BaseException] = None
        #: The pending inbox: every message injected since it was
        #: queued, delivered by one kernel step (None while none waits).
        self._inbox: Optional[DeliveryBatch] = None
        #: One asyncio future per pending ``wait_for``; failed on pump
        #: death or ``stop()`` so no waiter outlives the pump.
        self._waiters: set = set()
        self._servers: Dict[ProcessId, Any] = {}
        self._accepted: set = set()  # accepted (reading) connections
        #: Per destination: frames not yet written, the writable link,
        #: and its supervisor task; one flush handle serves them all.
        self._outboxes: Dict[ProcessId, List[bytes]] = {}
        self._links: Dict[ProcessId, _Link] = {}
        self._writer_tasks: Dict[ProcessId, Any] = {}
        self._flush_handle = None
        self._backoff_rng = random.Random(_RECONNECT_SEED)
        #: Peer health machine state (tcp mode): pid -> up/suspect/down.
        self._peer_health: Dict[ProcessId, str] = {}
        self._peer_failures: Dict[ProcessId, int] = {}
        #: Successful re-connections after at least one failure.
        self.reconnects = 0
        #: Health-state transitions (up->suspect, suspect->down, ->up).
        self.peer_transitions = 0
        #: Frames dropped per destination (outbox overflow + lost writes).
        self.outbox_drops: Dict[ProcessId, int] = {}

    # -- clock -------------------------------------------------------------

    def _wall_units(self) -> float:
        if self._origin is None:
            return self.env.now
        return (time.monotonic() - self._origin) * _TIME_SCALE

    def _advance_clock(self) -> float:
        """Raise the kernel clock toward the wall clock, never past the
        queue head: ``step()`` treats a popped event with ``time < now``
        as corruption, so due events run before the clock moves on.
        Returns the wall reading it used.
        """
        wall = self._wall_units()
        now = wall
        if self.env._queue:
            now = min(wall, self.env._queue[0][0])
        if now > self.env._now:
            self.env._now = now
        return wall

    def now(self) -> float:
        """Scaled wall clock (never behind the kernel clock).

        The kernel clock stalls at the queue head under backlog; the
        wall clock keeps timestamps and latencies honest.  Timers arm
        against the kernel clock, so they fire no *later* than asked —
        an early retransmit is harmless (the reply cache absorbs it).
        """
        wall = self._advance_clock()
        now = self.env._now
        return wall if wall > now else now

    # -- pump-death surfacing ----------------------------------------------

    def _raise_if_pump_dead(self) -> None:
        """Fail fast once the pump has died: no timer or queued message
        would ever run, so scheduling more would turn a crash into a
        silent hang.  :meth:`wait_for` re-raises the original exception;
        here it is chained under a :class:`TerminalTransportError`.
        """
        if self._pump_error is not None:
            raise TerminalTransportError(
                f"transport pump died: {self._pump_error!r}"
            ) from self._pump_error

    # -- scheduling overrides (stamp against the advanced clock) -----------

    def set_timer(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        self._raise_if_pump_dead()
        self._advance_clock()
        handle = TimerHandle(callback, Timeout(self.env, delay))
        self._kick()
        return handle

    def timer(self, delay: float, value: Any = None) -> Timeout:
        self._raise_if_pump_dead()
        self._advance_clock()
        return super().timer(delay, value)

    def spawn(self, generator):
        self._raise_if_pump_dead()
        self._advance_clock()
        return super().spawn(generator)

    # -- the pump ----------------------------------------------------------

    def _kick(self) -> None:
        """Move the pump handle forward if the queue head is earlier."""
        queue = self.env._queue
        if queue and queue[0][0] < self._pump_at:
            self._arm()

    def _arm(self) -> None:
        """Replace the pump handle with one for the queue head."""
        if self._pump_handle is not None:
            self._pump_handle.cancel()
        due = self.env._queue[0][0]
        delay_s = (due - self._wall_units()) / _TIME_SCALE
        if delay_s > 0:
            self._pump_handle = self._loop.call_later(delay_s, self._run_due)
            self._pump_at = due
        else:
            self._pump_handle = self._loop.call_soon(self._run_due)
            self._pump_at = _DUE_NOW

    def _run_due(self) -> None:
        """Step the due kernel events, at most a batch, then re-arm once.

        Kicks from inside the batch see ``_DUE_NOW`` and do nothing, so
        the re-arm at its end leaves exactly one live handle.
        """
        self._pump_handle = None
        self._pump_at = _DUE_NOW
        env = self.env
        queue = env._queue
        try:
            wall = self._wall_units()
            for _ in range(_STEPS_PER_YIELD):
                if not queue or queue[0][0] > wall:
                    break
                env.step()
            self._advance_clock()
        except Exception as exc:  # surfaced by send/set_timer/stop/wait_for
            self._pump_error = exc
            self._fail_waiters(exc)
            return
        self._pump_at = _IDLE
        self._kick()

    # -- messaging ---------------------------------------------------------

    def register(
        self, process_id: ProcessId, deliver: Callable[[Any], None]
    ) -> None:
        if self._running and self.mode == "tcp":
            raise ConfigurationError(
                "tcp transport: register all endpoints before start()"
            )
        self._endpoints[process_id] = deliver

    def unregister(self, process_id: ProcessId) -> None:
        """Detach an endpoint and reap its outbox (remaining frames are
        counted drops), writer task and health record, so a transport
        that churns endpoints stays bounded.
        """
        self._endpoints.pop(process_id, None)
        self._down.discard(process_id)
        self._peer_health.pop(process_id, None)
        self._peer_failures.pop(process_id, None)
        outbox = self._outboxes.pop(process_id, None)
        if outbox:
            self._count_frame_drop(process_id, len(outbox))
        task = self._writer_tasks.pop(process_id, None)
        if task is not None:
            task.cancel()

    def peer_state(self, process_id: ProcessId) -> str:
        """Health verdict: the crash marker wins, then the tcp machine."""
        if process_id in self._down:
            return "down"
        return self._peer_health.get(process_id, "up")

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        self._raise_if_pump_dead()
        metrics = self.metrics
        if metrics is not None:
            metrics.count_message(size)
        if src in self._down or dst in self._down:
            if metrics is not None:
                metrics.count_drop()
            return
        copies = 1
        if self._faulted:
            copies = self._link_copies(
                src, dst, payload, size, self._chaos_rng
            )
            if not copies:
                return
        if self.mode == "tcp" and self._running and src != dst:
            frame = wire.encode_frame(src, dst, payload, size)
            self._enqueue_frame(dst, frame)
            if copies == 2:
                self._enqueue_frame(dst, frame)
            return
        # Loopback, a process's message to itself (its coordinator and
        # its replica share the host) and pre-start tcp (e.g. setup
        # writes): append to the inbox; the pump delivers it next cycle.
        message = Message(src, dst, payload, size)
        self._inject(message)
        if copies == 2:
            self._inject(message)

    def _inject(self, message: Message) -> None:
        """Append ``message`` to the inbox, queueing one if none waits.

        The inbox is stamped at the kernel's own clock, which is never
        advanced here.  Advanced first, the clock could reach the queue
        head — under backlog an armed retransmit timer — and that timer
        would then fire ahead of the replies queued in the inbox.
        """
        inbox = self._inbox
        if inbox is None:
            inbox = self._inbox = DeliveryBatch(self.env, 0.0, self._on_inbox)
            self._kick()
        inbox.messages.append(message)

    def _on_inbox(self, inbox: DeliveryBatch) -> None:
        # Detach before delivering: a handler's sends open a fresh inbox.
        self._inbox = None
        for message in inbox.messages:
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        # Crash markers and cuts may have changed in flight, on the
        # socket or in the queue: a message a cut now separates is lost.
        if message.dst in self._down or (
            self._cut and self._cut_off(message.src, message.dst)
        ):
            if self.metrics is not None:
                self.metrics.count_drop()
            return
        deliver = self._endpoints.get(message.dst)
        if deliver is not None:
            deliver(message)

    # -- tcp plumbing ------------------------------------------------------

    def _count_frame_drop(self, dst: ProcessId, frames: int = 1) -> None:
        """Account ``frames`` frames that will never reach ``dst``."""
        self.outbox_drops[dst] = self.outbox_drops.get(dst, 0) + frames
        if self.metrics is not None:
            for _ in range(frames):
                self.metrics.count_drop()

    def _enqueue_frame(self, dst: ProcessId, frame: bytes) -> None:
        outbox = self._outboxes.get(dst)
        if outbox is None:
            outbox = self._outboxes[dst] = []
            self._writer_tasks[dst] = self._loop.create_task(
                self._write_loop(dst)
            )
        if len(outbox) >= _OUTBOX_LIMIT:
            # Fire-and-forget semantics with honest books: an
            # unreachable peer's backlog is bounded, and every frame
            # shed past the bound is a counted drop, not a silent one.
            self._count_frame_drop(dst)
            return
        outbox.append(frame)
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if self._flush_handle is None:
            self._flush_handle = self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Write each writable link's queued frames with one ``write``."""
        self._flush_handle = None
        outboxes = self._outboxes
        for dst, link in self._links.items():
            outbox = outboxes.get(dst)
            if outbox and not link.paused:
                link.batch = len(outbox)
                link.conn.write(b"".join(outbox))
                outbox.clear()

    # -- peer health machine -----------------------------------------------

    def _set_peer_health(self, dst: ProcessId, state: str) -> None:
        previous = self._peer_health.get(dst, "up")
        if previous != state:
            self._peer_health[dst] = state
            self.peer_transitions += 1

    def _note_peer_failure(self, dst: ProcessId) -> None:
        failures = self._peer_failures.get(dst, 0) + 1
        self._peer_failures[dst] = failures
        self._set_peer_health(
            dst, "down" if failures >= _DOWN_AFTER else "suspect"
        )

    def _note_peer_up(self, dst: ProcessId) -> None:
        had_failed = self._peer_failures.get(dst, 0) > 0
        self._peer_failures[dst] = 0
        if had_failed:
            self.reconnects += 1
        self._set_peer_health(dst, "up")

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with full jitter.

        Full jitter (uniform over ``[0, cap]`` rather than around it)
        de-synchronizes the reconnect probes of many writers chasing
        one restarted brick — the AWS-style herd-avoidance shape.
        """
        cap = min(
            _RECONNECT_CAP_S, _RECONNECT_BASE_S * (2 ** max(0, attempt - 1))
        )
        return cap * self._backoff_rng.random()

    async def _write_loop(self, dst: ProcessId) -> None:
        """Supervise one destination until shutdown or cancellation:
        connect, hold the link until it is lost, reconnect with backoff;
        the health machine sees every failure and recovery.
        """
        import asyncio

        attempt = 0
        while self._running:
            try:
                conn, link = await asyncio.wait_for(
                    self._loop.create_connection(
                        lambda: _Link(self, dst),
                        self.host,
                        self.base_port + dst - 1,
                    ),
                    timeout=_CONNECT_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError):
                attempt += 1
                self._note_peer_failure(dst)
                await asyncio.sleep(self._backoff_delay(attempt))
                continue
            self._note_peer_up(dst)
            try:
                await link.lost
            finally:
                conn.close()
            if not self._running:
                return
            attempt = 1
            self._note_peer_failure(dst)

    # -- per-brick server lifecycle (fault-injection surface) --------------

    async def start_server(self, pid: ProcessId) -> None:
        """(Re)open brick ``pid``'s listening socket (tcp mode).

        The kill-a-brick chaos primitive's other half: a server stopped
        with :meth:`stop_server` comes back here, and pending writers
        re-adopt it through their reconnect loops.
        """
        import asyncio

        if self.mode != "tcp":
            raise ConfigurationError("per-brick servers exist only in tcp mode")
        if pid in self._servers:
            return
        self._servers[pid] = await asyncio.get_running_loop().create_server(
            lambda: _FrameReader(self),
            host=self.host,
            port=self.base_port + pid - 1,
        )

    async def stop_server(self, pid: ProcessId) -> None:
        """Kill brick ``pid``'s listening socket and its accepted conns.

        Models a brick's network presence dying without the protocol
        being told (no :meth:`set_down`): subsequent frames to it pile
        into the bounded outbox, writers reconnect with backoff, and
        the peer health machine walks up → suspect → down.
        """
        import asyncio

        server = self._servers.pop(pid, None)
        if server is None:
            return
        server.close()
        port = self.base_port + pid - 1
        for conn in list(self._accepted):
            sockname = conn.get_extra_info("sockname")
            if sockname and sockname[1] == port:
                conn.close()
        await server.wait_closed()
        await asyncio.sleep(0)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets (tcp mode) and arm the event pump.

        Must run on the loop that will host the workload: the pump's
        handles, the writers and the servers all live on it.
        """
        import asyncio

        if self._running:
            return
        if self.mode == "tcp":
            self._check_ports()
        self._loop = asyncio.get_running_loop()
        self._pump_error = None
        # Align wall time with whatever virtual time already elapsed
        # (e.g. synchronous setup writes before start()).
        self._origin = time.monotonic() - self.env._now / _TIME_SCALE
        if self.mode == "tcp":
            for pid in sorted(self._endpoints):
                await self.start_server(pid)
        self._running = True
        self._pump_at = _IDLE
        self._kick()

    def _check_ports(self) -> None:
        """Refuse a port range that cannot hold every brick, before any
        socket opens: port 0 would bind an ephemeral port no writer can
        reach, and past 65535 ``bind`` raises a raw ``OverflowError``.
        """
        for pid in self._endpoints:
            port = self.base_port + pid - 1
            if port not in _PORTS:
                raise ConfigurationError(
                    f"tcp transport: brick {pid} would listen on port "
                    f"{port}; base_port={self.base_port} must keep every "
                    f"brick in {_PORTS.start}..{_PORTS.stop - 1}"
                )

    async def stop(self) -> None:
        """Stop the pump, flush and close connections, close servers.

        Live links get :data:`_DRAIN_TIMEOUT_S` to send what is queued;
        unconnected peers' supervisors are cancelled at once, and every
        frame left is a counted drop.  A pump death is re-raised (as
        :class:`TerminalTransportError`) *after* cleanup.
        """
        import asyncio

        if not self._running:
            self._raise_if_pump_dead()
            return
        self._running = False
        self._fail_waiters(
            TerminalTransportError("transport stopped while waiting")
        )
        self._pump_at = _DUE_NOW
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        self._flush()
        for dst, task in self._writer_tasks.items():
            if dst in self._links:
                self._links[dst].conn.close()  # queued bytes go out first
            else:
                task.cancel()
        if self._writer_tasks:
            _done, pending = await asyncio.wait(
                self._writer_tasks.values(), timeout=_DRAIN_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        for dst, outbox in self._outboxes.items():
            if outbox:
                self._count_frame_drop(dst, len(outbox))
        self._outboxes.clear()
        self._writer_tasks.clear()
        # Close accepted connections first so their servers close
        # without waiting on them.
        for conn in list(self._accepted):
            conn.close()
        await asyncio.sleep(0)
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        self._raise_if_pump_dead()

    def _fail_waiters(self, error: BaseException) -> None:
        """Raise ``error`` in every ``wait_for`` still pending."""
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_exception(error)

    async def wait_for(self, event: Event) -> Any:
        """Await a kernel event from asyncio code: its value, or its
        failure raised.  Also re-raises the error that killed the pump,
        and raises :class:`TerminalTransportError` if the transport stops
        first.  One asyncio future per wait: the event's callback
        resolves it, pump death or ``stop()`` fails it.
        """
        import asyncio

        if not self._running:
            raise SimulationError("transport not started; await start() first")
        if self._pump_error is not None:
            raise self._pump_error
        waiter = asyncio.get_running_loop().create_future()

        def resolve(_event: Event) -> None:
            if not waiter.done():  # cancelled, or failed by stop()/pump death
                waiter.set_result(None)

        event._add_callback(resolve)
        self._waiters.add(waiter)
        self._kick()
        try:
            await waiter
        finally:
            self._waiters.discard(waiter)
        if event._failed:
            event._defused = True
            value = event.value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"event failed with {value!r}")
        return event.value

    # -- synchronous driving is meaningless on a wall clock ----------------

    def run(self, until: Optional[float] = None) -> None:
        raise SimulationError(
            "AsyncioTransport cannot be driven synchronously; "
            "use 'await transport.start()' and the async session API, "
            "or the 'repro serve' CLI"
        )

    def run_until_complete(self, process, limit: float = 1e12) -> Any:
        raise SimulationError(
            "AsyncioTransport cannot be driven synchronously; "
            "use 'await transport.wait_for(...)' instead"
        )
