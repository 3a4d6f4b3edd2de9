"""The transport abstraction: one protocol API, many substrates.

The paper defines FAB purely in terms of messages between coordinators
and bricks; nothing in Algorithms 1-3 depends on *how* a message moves
or what a clock is.  :class:`Transport` captures exactly the surface the
protocol code needs — ``send``, ``set_timer`` / ``cancel_timer``,
``now``, ``spawn``, plus the event/condition primitives the coroutine
machinery is written against — so the same coordinator, replica,
session, and daemon code runs unchanged on

* :class:`~repro.transport.sim.SimTransport` — the deterministic
  discrete-event kernel and fair-loss network (every campaign
  invariant, fault injector, and benchmark), and
* :class:`~repro.transport.aio.AsyncioTransport` — wall-clock timers
  and length-prefixed frames over an in-process loopback or real TCP
  sockets (the ``repro serve`` mode).

Link faults — crash markers, partitions, drop windows and a seeded
:class:`~repro.transport.chaos.ChaosPolicy` — are state of the
:class:`Transport` itself, defined once here and applied by each
substrate inside its own ``send`` and delivery, so a fault plan means
the same thing on every substrate.

:class:`Endpoint` is the per-process handle on a transport: it owns the
process id, the inbound dispatch table, the up/down lifecycle with
crash/recovery hooks, and the set of protocol coroutines whose fate is
tied to the process (a crash interrupts them mid-operation).
:class:`Node`, a brick, extends it with stable storage.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import (
    Any, Callable, Dict, Generator, Iterable, List, Optional, Set,
)

from ..errors import StorageError
from ..types import ProcessId
from ..sim.kernel import AnyOf, Environment, Event, Process, Timeout
from ..sim.monitor import Metrics
from ..sim.node import StableStore
from .chaos import (
    ChaosPolicy, ChaosStats, LinkChaos, _check_probability,
    corruption_detected,
)

__all__ = ["Transport", "TimerHandle", "Endpoint", "Node"]


class TimerHandle:
    """A cancellable timer armed via :meth:`Transport.set_timer`.

    The sim kernel cannot remove entries from its heap, so cancellation
    is a tombstone: the underlying event still pops at its due time, but
    a cancelled handle has already let go of its callback and detached
    from the event, so whatever the callback closed over is free at
    once rather than when the timer would have fired.  Both substrates
    share this shape, so protocol code cancels timers identically
    everywhere.
    """

    __slots__ = ("_callback", "_timer", "cancelled")

    def __init__(self, callback: Callable[[], None], timer: Timeout) -> None:
        self._callback: Optional[Callable[[], None]] = callback
        self._timer: Optional[Timeout] = timer
        self.cancelled = False
        timer._add_callback(self._fire)

    def cancel(self) -> None:
        """Disarm the timer (idempotent; a fired timer stays fired)."""
        self.cancelled = True
        self._callback = None
        timer, self._timer = self._timer, None
        if timer is not None and timer.callbacks:
            timer.callbacks.remove(self._fire)

    def _fire(self, _event: Optional[Event] = None) -> None:
        callback, self._callback, self._timer = self._callback, None, None
        if callback is not None:
            callback()


class DeliveryBatch(Event):
    """Messages that one kernel event delivers, in the order appended.

    The first message creates and schedules the batch ``delay`` units
    out; later messages just append to it while it waits in the heap,
    so a fan-out of k messages costs one heap push and one step.  The
    ``deliver`` callback must detach the batch before delivering: a
    handler's sends then open a fresh batch instead of appending to the
    one already firing.  The sim keys its batches by ``(due, dst)``; the
    asyncio inbox is one unkeyed batch at the current instant.
    """

    __slots__ = ("key", "messages")

    def __init__(
        self,
        env: Environment,
        delay: float,
        deliver: Callable[["DeliveryBatch"], None],
        key: Any = None,
    ) -> None:
        super().__init__(env)
        self.key = key
        self.messages: List[Any] = []
        self._value = None
        env._schedule(self, delay)
        self.callbacks.append(deliver)


class Transport(ABC):
    """The substrate surface the protocol layer is written against.

    Every transport embeds an :class:`~repro.sim.kernel.Environment`
    (exposed as ``env``): the generator/event machinery the protocol
    coroutines run on is substrate-independent — only *when* events are
    pumped differs.  ``SimTransport`` drives it in virtual time;
    ``AsyncioTransport`` pumps it from an asyncio task in wall time.

    The link faults live here too.  A substrate's ``send`` checks the
    crash markers inline and asks :meth:`_link_copies` only while
    ``_faulted``; its delivery re-checks crash markers and cuts, so a
    fault that appears while a message is in flight catches it.
    """

    #: The event substrate protocol coroutines run on.
    env: Environment
    #: Shared metric sink (message/bandwidth counting).
    metrics: Any

    def __init__(self) -> None:
        #: Crash markers: every message to or from these is lost.
        self._down: Set[ProcessId] = set()
        #: Groups a fault plan cut off from everyone else, until healed.
        self._cut: List[frozenset] = []
        #: Loss probability of an open drop window (0 when closed).
        self._window_drop = 0.0
        #: The seeded per-message faults :meth:`set_chaos` installed.
        self._link = LinkChaos()
        self._policy: Optional[ChaosPolicy] = None
        self._chaos_rng = random.Random(ChaosPolicy().seed)
        #: True while any cut, drop window or policy is installed: the
        #: one flag a substrate's send reads on the fault-free path.
        self._faulted = False
        #: What the link faults did.
        self.stats = ChaosStats()

    # -- messaging ---------------------------------------------------------

    @abstractmethod
    def register(
        self, process_id: ProcessId, deliver: Callable[[Any], None]
    ) -> None:
        """Attach an endpoint; ``deliver`` is invoked per arriving message."""

    @abstractmethod
    def unregister(self, process_id: ProcessId) -> None:
        """Detach an endpoint (messages to it are silently lost)."""

    @abstractmethod
    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        """Send one message (fire-and-forget, may be lost)."""

    def set_down(self, process_id: ProcessId, down: bool) -> None:
        """Mark an endpoint crashed; messages to/from it are lost."""
        if down:
            self._down.add(process_id)
        else:
            self._down.discard(process_id)

    # -- peer health -------------------------------------------------------

    def peer_state(self, process_id: ProcessId) -> str:
        """The transport's reachability verdict for one peer.

        One of ``"up"`` (reachable as far as the transport knows),
        ``"suspect"`` (recent delivery failures; a reconnect prober is
        working on it), or ``"down"`` (probing has given up for now, or
        the peer is marked crashed).  Substrates without a connection
        lifecycle report ``"up"`` for everything not explicitly marked
        down — the sim network either delivers or fair-loses, it never
        half-connects.

        Sessions use this for health-aware routing: prefer ``"up"``
        coordinators, tolerate ``"suspect"``, avoid ``"down"``.
        """
        return "down" if process_id in self._down else "up"

    # -- link faults (driven by repro.campaign.schedule.apply_event) --------

    def partition(self, group: Iterable[ProcessId]) -> None:
        """Drop every message crossing ``group``'s boundary until healed,
        including messages to endpoints registered later."""
        self._cut.append(frozenset(group))
        self._faults_changed()

    def heal(self) -> None:
        """Withdraw every partition."""
        self._cut = []
        self._faults_changed()

    def is_partitioned(self, a: ProcessId, b: ProcessId) -> bool:
        """True iff a cut-off group separates ``a`` and ``b``."""
        for group in self._cut:
            if (a in group) != (b in group):
                return True
        return False

    def set_drop_probability(self, probability: float) -> None:
        """Open (``probability > 0``) or close a drop window; while open,
        each message is lost with at least ``probability``."""
        _check_probability("drop probability", probability)
        self._window_drop = probability
        self._faults_changed()

    def set_chaos(self, policy: ChaosPolicy) -> None:
        """Install seeded per-message faults (``policy.default``) on
        every link, drawn from an RNG seeded by ``policy.seed``."""
        self._policy = policy
        self._link = policy.default
        self._chaos_rng = random.Random(policy.seed)
        self._faults_changed()

    def _faults_changed(self) -> None:
        self._faulted = (
            bool(self._cut) or self._window_drop > 0.0
            or self._policy is not None
        )

    def _cut_off(self, src: ProcessId, dst: ProcessId) -> bool:
        """True, counted as a partition drop, iff a cut separates them."""
        if self.is_partitioned(src, dst):
            self.stats.partition_dropped += 1
            return True
        return False

    def _link_copies(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int,
        window: float,
    ) -> int:
        """How many copies of one send the link faults let through: 0-2.

        A cut kills the send; then the policy RNG draws a drop (at least
        ``window``, the part of the drop window the substrate does not
        draw itself), a corruption and a duplicate, in that order.  The
        substrate has counted the send as a message; a kill counts a
        drop, and a duplicate counts a second message.
        """
        link, rng, stats = self._link, self._chaos_rng, self.stats
        if self._cut and self._cut_off(src, dst):
            return self._lost()
        drop = max(link.drop, window)
        if drop > 0.0 and rng.random() < drop:
            if window > link.drop:
                stats.window_dropped += 1
            else:
                stats.dropped += 1
            return self._lost()
        if (
            link.corrupt > 0.0 and rng.random() < link.corrupt
            and corruption_detected(rng, src, dst, payload, size)
        ):
            stats.corrupted += 1
            return self._lost()
        if link.duplicate > 0.0 and rng.random() < link.duplicate:
            stats.duplicated += 1
            stats.forwarded += 2
            if self.metrics is not None:
                self.metrics.count_message(size)
            return 2
        stats.forwarded += 1
        return 1

    def _lost(self) -> int:
        if self.metrics is not None:
            self.metrics.count_drop()
        return 0

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """Current transport time (sim units, or scaled wall clock)."""
        return self.env.now

    def set_timer(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """Arm ``callback`` to run ``delay`` time units from now.

        Returns a :class:`TimerHandle`; :meth:`cancel_timer` (or
        ``handle.cancel()``) disarms it.
        """
        handle = TimerHandle(callback, Timeout(self.env, delay))
        self._kick()
        return handle

    def cancel_timer(self, handle: TimerHandle) -> None:
        """Disarm a timer previously armed with :meth:`set_timer`."""
        handle.cancel()

    def timer(self, delay: float, value: Any = None) -> Timeout:
        """A yieldable event triggering ``delay`` time units from now."""
        timeout = Timeout(self.env, delay, value)
        self._kick()
        return timeout

    # -- coroutine primitives ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self.env)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: any child triggered."""
        return self.env.any_of(events)

    def spawn(self, generator: Generator) -> Process:
        """Start a protocol coroutine; returns its Process event.

        Prefer :meth:`Endpoint.spawn` for coroutines whose fate should
        be tied to a process (interrupted when it crashes).
        """
        process = self.env.process(generator)
        self._kick()
        return process

    # -- synchronous driving ----------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Advance the transport synchronously (sim substrates only)."""
        self.env.run(until)

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Drive the transport until ``process`` finishes; return its value.

        Only meaningful on synchronously driven substrates; a wall-clock
        transport raises :class:`~repro.errors.SimulationError` and
        callers must use the async API instead.
        """
        return self.env.run_until_complete(process, limit)

    # -- internals ---------------------------------------------------------

    def _kick(self) -> None:
        """Wake the pump after scheduling work (no-op in virtual time)."""


class Endpoint:
    """One process's handle on a transport.

    Replaces raw ``ProcessId`` plumbing: protocol components hold an
    endpoint and speak only through it — sends are suppressed while the
    process is down, inbound payloads dispatch by type, and coroutines
    spawned here are interrupted if the process crashes (producing
    exactly the partial operations the paper's recovery path handles).

    Args:
        transport: the substrate this endpoint lives on.
        process_id: this process's id in ``1..n``.
        metrics: metric sink; defaults to the transport's.
    """

    def __init__(
        self,
        transport: Transport,
        process_id: ProcessId,
        metrics: Any = None,
    ) -> None:
        self.transport = transport
        self.process_id = process_id
        self.metrics = metrics if metrics is not None else transport.metrics
        self._up = True
        self._handlers: Dict[type, Callable[[ProcessId, Any], None]] = {}
        #: Live owned coroutines in spawn order (a dict, so reaping one
        #: is O(1) however many run).
        self._owned_processes: Dict[Process, None] = {}
        self._crash_count = 0
        self._crash_hooks: List[Callable[[], None]] = []
        self._recovery_hooks: List[Callable[[], None]] = []
        transport.register(process_id, self._on_message)

    @property
    def env(self) -> Environment:
        """The transport's event substrate (legacy accessor)."""
        return self.transport.env

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """True while the process is running."""
        return self._up

    @property
    def crash_count(self) -> int:
        """Number of crashes suffered so far."""
        return self._crash_count

    def crash(self) -> None:
        """Crash the process: lose volatile state, kill owned coroutines.

        Idempotent while down.  Stable storage (on endpoints that have
        it) survives.
        """
        if not self._up:
            return
        for hook in self._crash_hooks:
            hook()
        self._up = False
        self._crash_count += 1
        self.transport.set_down(self.process_id, True)
        owned, self._owned_processes = self._owned_processes, {}
        for process in owned:
            process.interrupt("crash")

    def recover(self) -> None:
        """Restart the process; volatile state must be rebuilt by hooks."""
        if self._up:
            return
        self._up = True
        self.transport.set_down(self.process_id, False)
        for hook in self._recovery_hooks:
            hook()

    def on_crash(self, hook: Callable[[], None]) -> None:
        """Register a hook run at the start of each crash.

        Hooks run while the process is still formally up — before
        volatile state is torn down and owned coroutines are
        interrupted — so they can snapshot state for post-recovery
        checks (e.g. the campaign engine's log/journal
        recovery-equivalence invariant).
        """
        self._crash_hooks.append(hook)

    def on_recovery(self, hook: Callable[[], None]) -> None:
        """Register a hook run after each recovery (state reload)."""
        self._recovery_hooks.append(hook)

    # -- messaging ---------------------------------------------------------

    def register_handler(
        self, payload_type: type, handler: Callable[[ProcessId, Any], None]
    ) -> None:
        """Dispatch arriving payloads of ``payload_type`` to ``handler``."""
        self._handlers[payload_type] = handler

    def send(self, dst: ProcessId, payload: Any, size: int = 0) -> None:
        """Send a message from this process (dropped if it is down)."""
        if not self._up:
            return
        self.transport.send(self.process_id, dst, payload, size)

    def _on_message(self, message: Any) -> None:
        if not self._up:
            return
        handler = self._handlers.get(type(message.payload))
        if handler is not None:
            handler(message.src, message.payload)

    # -- process ownership -------------------------------------------------

    def spawn(self, generator: Generator) -> Process:
        """Run a protocol coroutine owned by this process.

        If the process crashes, the coroutine is interrupted — modelling
        a coordinator that dies mid-operation.  Finished coroutines are
        reaped on completion, so long-lived endpoints keep
        ``_owned_processes`` bounded by the number of genuinely
        concurrent operations.
        """
        if not self._up:
            raise StorageError(
                f"node {self.process_id} is down; cannot spawn a process"
            )
        process = self.transport.spawn(generator)
        self._owned_processes[process] = None
        process._add_callback(self._reap)
        return process

    def _reap(self, process: Process) -> None:
        """Completion callback: forget a finished coroutine (a crash may
        have dropped it already)."""
        self._owned_processes.pop(process, None)


class Node(Endpoint):
    """A brick: transport endpoint + stable storage + crash lifecycle.

    All messaging, timers, and process ownership come from
    :class:`Endpoint`; this class adds the
    :class:`~repro.sim.node.StableStore` that survives crashes.

    Args:
        transport: the substrate the endpoint rides on, e.g. a
            :class:`~repro.transport.sim.SimTransport` over a kernel
            and network.
        process_id: this node's id in ``1..n``.
        metrics: metric sink; defaults to the transport's.
    """

    def __init__(
        self,
        *,
        transport: Transport,
        process_id: ProcessId,
        metrics: Optional[Metrics] = None,
    ) -> None:
        super().__init__(transport, process_id, metrics)
        self.stable = StableStore()
