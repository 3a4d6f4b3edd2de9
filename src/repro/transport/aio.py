"""AsyncioTransport: wall-clock timers and socket (or loopback) frames.

The protocol layer is written as sim-kernel generators, and that
machinery is substrate-independent: an :class:`AsyncioTransport` embeds
its own :class:`~repro.sim.kernel.Environment` and pumps it from an
asyncio task in *wall* time.  The kernel's virtual clock is clamped to
the scaled wall clock — one unit is one millisecond, so an event armed
"8 units out" fires roughly 8 ms later.

Two delivery modes:

* ``loopback`` — messages are injected straight into the shared event
  queue (one process, no sockets).  This is what ``repro serve`` uses
  to host a cluster plus thousands of concurrent sessions.
* ``tcp`` — every process id gets its own listening socket at
  ``base_port + pid - 1``; messages between processes travel as
  length-prefixed binary frames (:mod:`repro.transport.wire`) over
  per-destination connections with a writer task each.  A process's
  message to itself (a coordinator to its own brick's replica) is
  injected into the event queue as on loopback.  Both per-connection
  loops pay asyncio per socket wakeup, not per frame: the writer sends
  everything queued in one ``write``, the reader parses every frame one
  ``read`` completed.

The TCP path has a hardened connection lifecycle:

* **Reconnect with backoff**: each destination's writer task is a
  supervisor loop — a failed connect or a connection lost mid-write is
  retried with capped exponential backoff and *full jitter*
  (``delay = uniform(0, min(1 s, 50 ms * 2^attempt))``), so a restarted
  brick is re-adopted without a thundering herd.  One connect attempt
  and one blocked drain are each bounded by 2 s.
* **Bounded outboxes**: per-destination queues hold at most 1024
  frames; overflow while a peer is unreachable is *dropped and
  counted* (``outbox_drops``), never silently buffered forever —
  fire-and-forget semantics with honest accounting.
* **Peer health**: ``up → suspect → down`` per destination.  The first
  delivery failure marks a peer suspect; 3 consecutive failed
  connection attempts mark it down; any successful connect snaps it
  back to up.  The backoff loop doubles as the probe timer —
  a down peer keeps being probed at the capped interval while the
  transport runs.  :meth:`peer_state` exposes the verdict through the
  :class:`~repro.transport.base.Transport` surface for health-aware
  routing.

A died pump (a protocol invariant violation, or a bug) is surfaced
*promptly*: ``send`` / ``set_timer`` / ``timer`` / ``spawn`` / ``stop``
raise :class:`~repro.errors.TerminalTransportError` once the pump is
dead, and ``wait_for`` re-raises the original error — no caller is left
hanging on a transport that will never make progress again.

Timers use the same tolerances as the sim (retransmit 8 units, grace
2 units → 8 ms / 2 ms of wall clock): generous on loopback, and the
replica reply cache absorbs any duplicate deliveries that early
retransmissions cause.

The synchronous driving entry points (``run`` / ``run_until_complete``)
raise: wall-clock time cannot be "run"; use ``await start()`` /
``wait_for`` / ``stop()`` or the ``repro serve`` CLI instead.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    ConfigurationError,
    SimulationError,
    TerminalTransportError,
)
from ..types import ProcessId
from ..sim.kernel import Environment, Event, Timeout
from ..sim.network import Message
from .base import TimerHandle, Transport
from . import wire

__all__ = ["AsyncioTransport"]

_MODES = ("loopback", "tcp")
#: How long the pump dozes when the queue is empty and nothing woke it.
_IDLE_POLL_S = 0.25
#: Cooperative-yield granularity while draining a busy queue.
_STEPS_PER_YIELD = 200
#: How long ``stop()`` waits for writer tasks to drain before cancelling.
_DRAIN_TIMEOUT_S = 2.0
#: Most bytes one socket wakeup hands the frame parser.
_READ_CHUNK = 256 * 1024
#: Kernel time units per wall second: one unit is one millisecond, so
#: protocol tolerances written in sim units become sane socket timings.
_TIME_SCALE = 1000.0
#: Most frames queued per unreachable destination; overflow is dropped
#: and counted (``outbox_drops``).
_OUTBOX_LIMIT = 1024
#: Reconnect backoff window: the sleep before attempt k is uniform in
#: ``[0, min(cap, base * 2^(k-1))]`` (full jitter).
_RECONNECT_BASE_S = 0.05
_RECONNECT_CAP_S = 1.0
#: Deadlines on one connect attempt and on draining one blocked write.
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


class _Delivery(Event):
    """One message handed to the pump: the message rides in ``_value``.

    Exactly one heap entry at the current instant, so messages are
    delivered in send order; a slotted event and a bound callback are
    all it allocates besides the heap tuple.
    """

    __slots__ = ()

    def __init__(self, transport: "AsyncioTransport", message: Message) -> None:
        super().__init__(transport.env)
        self._value = message
        self.callbacks.append(transport._on_delivery)
        transport.env._queue_event(self)


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
        self._pump_task = None
        self._pump_error: Optional[BaseException] = None
        self._wake = None  # asyncio.Event, created on the running loop
        #: One asyncio future per pending ``wait_for``; failed on pump
        #: death or ``stop()`` so no waiter outlives the pump.
        self._waiters: set = set()
        self._servers: Dict[ProcessId, Any] = {}
        self._conn_writers: List[Any] = []
        self._outboxes: Dict[ProcessId, Any] = {}
        self._writer_tasks: Dict[ProcessId, Any] = {}
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

    def _advance_clock(self) -> None:
        """Raise the kernel clock toward the wall clock.

        Never past the queue head: ``step()`` treats a popped event with
        ``time < now`` as corruption, and events scheduled between
        advances must land at or after the clock.  The pump executes any
        due events before the clock moves over them.
        """
        wall = self._wall_units()
        if self.env._queue:
            wall = min(wall, self.env._queue[0][0])
        if wall > self.env._now:
            self.env._now = wall

    def now(self) -> float:
        """Scaled wall clock (never behind the kernel clock).

        The kernel clock itself is clamped to the queue head so queued
        events replay correctly, which makes it stall under backlog;
        reporting the wall clock here keeps timestamps and latency
        measurements honest.  Timers still arm relative to the kernel
        clock, so under backlog they fire no *later* than requested —
        an early retransmit is harmless (the replica reply cache
        absorbs duplicates).
        """
        self._advance_clock()
        wall = self._wall_units()
        return wall if wall > self.env._now else self.env.now

    # -- pump-death surfacing ----------------------------------------------

    def _raise_if_pump_dead(self) -> None:
        """Fail fast once the pump has died.

        A dead pump means no timer will ever fire and no queued message
        will ever be dispatched; letting callers keep scheduling work
        against it turns a crash into a silent hang.  Callers sitting
        in :meth:`wait_for` get the original exception; everyone else
        gets it chained under a :class:`TerminalTransportError` here.
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
        timeout = Timeout(self.env, delay, value)
        self._kick()
        return timeout

    def spawn(self, generator):
        self._raise_if_pump_dead()
        self._advance_clock()
        return super().spawn(generator)

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

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
        """Detach an endpoint and reap its connection state.

        The peer's outbox (remaining frames counted as drops), writer
        task, and health record all go with it — a long-lived transport
        that churns endpoints stays bounded.
        """
        self._endpoints.pop(process_id, None)
        self._down.discard(process_id)
        self._peer_health.pop(process_id, None)
        self._peer_failures.pop(process_id, None)
        outbox = self._outboxes.pop(process_id, None)
        if outbox is not None:
            while not outbox.empty():
                if outbox.get_nowait() is not None:
                    self._count_frame_drop(process_id)
        task = self._writer_tasks.pop(process_id, None)
        if task is not None and not task.done():
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
                src, dst, payload, size, self._window_drop
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
        # writes): inject into the shared queue; the pump dispatches it
        # next cycle.
        message = Message(src, dst, payload, size)
        self._advance_clock()
        _Delivery(self, message)
        if copies == 2:
            _Delivery(self, message)
        self._kick()

    def _on_delivery(self, delivery: _Delivery) -> None:
        self._deliver(delivery._value)

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

    def _count_frame_drop(self, dst: ProcessId) -> None:
        """Account one frame that will never reach ``dst``."""
        self.outbox_drops[dst] = self.outbox_drops.get(dst, 0) + 1
        if self.metrics is not None:
            self.metrics.count_drop()

    def _enqueue_frame(self, dst: ProcessId, frame: bytes) -> None:
        import asyncio

        outbox = self._outboxes.get(dst)
        if outbox is None:
            outbox = asyncio.Queue(maxsize=_OUTBOX_LIMIT)
            self._outboxes[dst] = outbox
            self._writer_tasks[dst] = asyncio.get_event_loop().create_task(
                self._write_loop(dst, outbox)
            )
        try:
            outbox.put_nowait(frame)
        except asyncio.QueueFull:
            # Fire-and-forget semantics with honest books: an
            # unreachable peer's backlog is bounded, and every frame
            # shed past the bound is a counted drop, not a silent one.
            self._count_frame_drop(dst)

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

    async def _write_loop(self, dst: ProcessId, outbox) -> None:
        """Supervise one destination: connect, drain, reconnect forever.

        The pre-hardening writer died on the first ``ConnectionError``
        while its outbox silently kept accepting frames; this loop is
        the fix — the connection is re-established with backoff, each
        frame lost mid-write is a *counted* drop, and the peer health
        machine tracks every failure and recovery.  The loop exits only
        on the stop sentinel, transport shutdown, or cancellation.
        """
        import asyncio

        attempt = 0
        while self._running:
            writer = None
            try:
                port = self.base_port + dst - 1
                _reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, port),
                    timeout=_CONNECT_TIMEOUT_S,
                )
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError):
                attempt += 1
                self._note_peer_failure(dst)
                try:
                    await asyncio.sleep(self._backoff_delay(attempt))
                except asyncio.CancelledError:
                    raise
                continue
            self._note_peer_up(dst)
            attempt = 0
            try:
                if not await self._drain_outbox(dst, outbox, writer):
                    return
            finally:
                writer.close()
            attempt = 1
            self._note_peer_failure(dst)

    async def _drain_outbox(self, dst: ProcessId, outbox, writer) -> bool:
        """Write ``outbox`` to one live connection, a batch per wakeup.

        Everything queued goes out in a single ``write``, so asyncio is
        paid per socket wakeup rather than per frame.  ``drain()`` is
        always awaited — it is where a lost connection surfaces — but
        only a write buffer above its high-water mark can block, so only
        then does it run under the ``_WRITE_TIMEOUT_S`` deadline (a task,
        a timer and a cancel).  Returns False on the stop sentinel, True
        when the connection was lost; every frame of the failed batch is
        a counted drop.
        """
        import asyncio

        stream = writer.transport
        _low, high_water = stream.get_write_buffer_limits()
        while True:
            batch = [await outbox.get()]
            while not outbox.empty():
                batch.append(outbox.get_nowait())
            stopping = None in batch
            if stopping:
                batch = batch[:batch.index(None)]
            try:
                writer.write(b"".join(batch))
                if stream.get_write_buffer_size() > high_water:
                    await asyncio.wait_for(
                        writer.drain(), timeout=_WRITE_TIMEOUT_S
                    )
                else:
                    await writer.drain()
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError):
                # The in-flight batch is lost with the connection; the
                # supervisor loop reconnects.
                for _frame in batch:
                    self._count_frame_drop(dst)
                return True
            if stopping:
                return False

    async def _serve_connection(self, reader, writer) -> None:
        """Deliver one accepted connection's frames, a batch per wakeup.

        One ``read`` per socket wakeup; every frame it completed is
        queued for the pump, which is kicked once per batch.  Garbage on
        the port (an undecodable body, an implausible length) is one
        counted drop and the end of that connection.
        """
        self._conn_writers.append(writer)
        parser = wire.FrameParser()
        try:
            while True:
                try:
                    chunk = await reader.read(_READ_CHUNK)
                except ConnectionError:
                    return
                if not chunk:
                    return
                self._advance_clock()
                try:
                    for src, dst, payload, size in parser.feed(chunk):
                        _Delivery(self, Message(src, dst, payload, size))
                except ConfigurationError:
                    if self.metrics is not None:
                        self.metrics.count_drop()
                    return
                finally:
                    self._kick()
        finally:
            try:
                self._conn_writers.remove(writer)
            except ValueError:
                pass
            writer.close()

    # -- per-brick server lifecycle (fault-injection surface) --------------

    async def start_server(self, pid: ProcessId) -> None:
        """(Re)open brick ``pid``'s listening socket (tcp mode).

        The kill-a-brick chaos primitive's other half: a server stopped
        with :meth:`stop_server` comes back here, and pending writers
        re-adopt it through their reconnect loops.
        """
        import asyncio

        if self.mode != "tcp":
            raise ConfigurationError(
                "per-brick servers exist only in tcp mode"
            )
        if pid in self._servers:
            return
        server = await asyncio.start_server(
            self._serve_connection,
            host=self.host,
            port=self.base_port + pid - 1,
        )
        self._servers[pid] = server

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
        await server.wait_closed()
        port = self.base_port + pid - 1
        for writer in list(self._conn_writers):
            sockname = writer.get_extra_info("sockname")
            if sockname and sockname[1] == port:
                writer.close()
        await asyncio.sleep(0)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets (tcp mode) and start the event pump.

        Must run on the loop that will host the workload; asyncio
        primitives are created here because Python 3.9 binds them to
        the loop current at construction.
        """
        import asyncio

        if self._running:
            return
        if self.mode == "tcp":
            self._check_ports()
        self._wake = asyncio.Event()
        self._pump_error = None
        # Align wall time with whatever virtual time already elapsed
        # (e.g. synchronous setup writes before start()).
        self._origin = time.monotonic() - self.env._now / _TIME_SCALE
        if self.mode == "tcp":
            for pid in sorted(self._endpoints):
                server = await asyncio.start_server(
                    self._serve_connection,
                    host=self.host,
                    port=self.base_port + pid - 1,
                )
                self._servers[pid] = server
        self._running = True
        self._pump_task = asyncio.get_event_loop().create_task(self._pump())

    def _check_ports(self) -> None:
        """Refuse a port range that cannot hold every brick.

        ``base_port`` comes from outside the program (``repro serve
        --port``).  Port 0 would bind an ephemeral port no writer can
        reach, and past 65535 ``bind`` raises a raw ``OverflowError``;
        both are refused before any socket is opened.
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
        """Stop the pump, drain writers, and close servers.

        Writer tasks get :data:`_DRAIN_TIMEOUT_S` to flush their
        outboxes gracefully; stragglers (e.g. a writer stuck in backoff
        against a dead peer) are cancelled and their queued frames
        counted as drops.  If the pump died, the failure is re-raised
        (as :class:`TerminalTransportError`) *after* cleanup, so a
        caller that never sat in ``wait_for`` still hears about it.
        """
        import asyncio

        if not self._running:
            self._raise_if_pump_dead()
            return
        self._running = False
        self._fail_waiters(
            TerminalTransportError("transport stopped while waiting")
        )
        self._kick()
        if self._pump_task is not None:
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        for outbox in self._outboxes.values():
            try:
                outbox.put_nowait(None)
            except asyncio.QueueFull:
                pass  # the writer is saturated; it will be cancelled
        tasks = [t for t in self._writer_tasks.values() if not t.done()]
        if tasks:
            _done, pending = await asyncio.wait(
                tasks, timeout=_DRAIN_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
            for task in pending:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        for dst, outbox in self._outboxes.items():
            while not outbox.empty():
                if outbox.get_nowait() is not None:
                    self._count_frame_drop(dst)
        self._outboxes.clear()
        self._writer_tasks.clear()
        # Close accepted connections first so their reader coroutines
        # exit on EOF instead of being cancelled at loop shutdown.
        for writer in list(self._conn_writers):
            writer.close()
        await asyncio.sleep(0)
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        self._wake = None
        self._raise_if_pump_dead()

    async def _pump(self) -> None:
        """Drive the kernel: execute due events, sleep until the next."""
        import asyncio

        steps = 0
        try:
            while self._running:
                wall = self._wall_units()
                queue = self.env._queue
                if queue and queue[0][0] <= wall:
                    self.env.step()
                    steps += 1
                    if steps % _STEPS_PER_YIELD == 0:
                        await asyncio.sleep(0)
                    continue
                self._advance_clock()
                if queue:
                    delay_s = (queue[0][0] - wall) / _TIME_SCALE
                    delay_s = min(max(delay_s, 0.0), _IDLE_POLL_S)
                else:
                    delay_s = _IDLE_POLL_S
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay_s)
                except asyncio.TimeoutError:
                    pass
        except BaseException as exc:  # surfaced by send/set_timer/stop/wait_for
            self._pump_error = exc
            self._fail_waiters(exc)

    def _fail_waiters(self, error: BaseException) -> None:
        """Raise ``error`` in every ``wait_for`` still pending."""
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_exception(error)

    async def wait_for(self, event: Event) -> Any:
        """Await a kernel event from asyncio code.

        The transport-level twin of ``run_until_complete``: returns the
        event's value, or raises its failure exception.  Also re-raises
        any error that killed the pump (a protocol invariant violation
        aborts the workload instead of hanging it), and raises
        :class:`TerminalTransportError` if the transport stops first.
        One asyncio future per wait: the event's kernel callback
        resolves it, the pump's death or ``stop()`` fails it.
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
