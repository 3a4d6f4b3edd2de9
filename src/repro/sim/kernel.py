"""A deterministic discrete-event simulation kernel.

Processes are Python generators that ``yield`` events; the environment
advances simulated time and resumes processes when the events they wait
on trigger.  The design follows the classic SimPy architecture but is
self-contained, deterministic (FIFO tie-breaking at equal timestamps),
and adds first-class process interruption — which we use to model
coordinator crashes in the middle of a protocol operation.

Example::

    env = Environment()

    def pinger():
        yield env.timeout(5)
        return "pong"

    proc = env.process(pinger())
    env.run()
    assert env.now == 5 and proc.value == "pong"
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "Interrupt",
]

#: Sentinel distinguishing "never triggered" from "triggered with None".
_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when it is interrupted (e.g. its node crashed).

    Attributes:
        cause: arbitrary value describing why (e.g. ``"crash"``).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are created untriggered; :meth:`succeed` or :meth:`fail`
    triggers them exactly once, after which waiting processes resume in
    the order they registered.

    Event records are ``__slots__``-based: the kernel allocates one per
    message delivery, timeout, and process step, so avoiding a
    ``__dict__`` per instance measurably cuts simulator overhead.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_failed",
        "_processed",
        "_defused",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._failed = False
        self._processed = False
        #: Set when a failed event's exception was delivered to a waiter.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has fired (its callbacks have been run).

        Note the distinction from merely *scheduled*: a
        :class:`Timeout` knows its value at construction but does not
        trigger until its due time arrives.
        """
        return self._processed

    @property
    def _scheduled(self) -> bool:
        """True once a value/exception has been attached (pre-trigger)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and not self._failed

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        self._value = value
        self.env._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._failed = True
        self.env._queue_event(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run on the next scheduling round.
            self.env._call_soon(lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, delay)


class AnyOf(Event):
    """Triggers when any child event triggers.

    Succeeds with the (event, value) pair of the first child; fails if
    the first child to trigger failed.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.triggered:
                self.env._call_soon(lambda e=event: self._on_child(e))
            else:
                event._add_callback(self._on_child)
        if not self._events:
            self.succeed([])

    def _on_child(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self.succeed((event, event.value))


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event that triggers when the generator
    returns (with the return value) or raises (failed).  Yielding a
    process therefore waits for its completion.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupt_pending")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process target must be a generator, got {type(generator)!r}"
            )
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt_pending: Optional[Interrupt] = None
        # Kick off on the next scheduling round.
        start = Event(env)
        start._value = None
        env._schedule(start, 0)
        start._add_callback(self._resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Used to model crashes: a coordinator whose node fails stops
        mid-protocol, leaving a partial operation behind.  Interrupting
        a finished process is a no-op.
        """
        if self._scheduled:
            return
        interrupt = Interrupt(cause)
        if self._waiting_on is not None:
            waited = self._waiting_on
            self._waiting_on = None
            # Detach: the event may still trigger but must not resume us.
            if waited.callbacks is not None:
                try:
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self.env._call_soon(lambda: self._throw(interrupt))
        else:
            # Not yet waiting (e.g. just created): deliver at first resume.
            self._interrupt_pending = interrupt

    def _throw(self, interrupt: Interrupt) -> None:
        if self._scheduled:
            return
        try:
            target = self._generator.throw(interrupt)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: dies silently.
            if not self._scheduled:
                self._value = interrupt
                self._failed = True
                self._defused = True
                self.env._queue_event(self)
            return
        except BaseException as error:
            self.fail(error)
            return
        self._wait_on(target)

    def _resume(self, event: Optional[Event]) -> None:
        if self._scheduled:
            return
        if self._interrupt_pending is not None:
            interrupt = self._interrupt_pending
            self._interrupt_pending = None
            self._throw(interrupt)
            return
        self._waiting_on = None
        try:
            if event is None or event._value is _PENDING:
                target = self._generator.send(None)
            elif event._failed:
                event._defused = True
                target = self._generator.throw(event.value)
            else:
                target = self._generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            if not self._scheduled:
                self._value = interrupt
                self._failed = True
                self._defused = True
                self.env._queue_event(self)
            return
        except BaseException as error:
            self.fail(error)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._generator.throw(
                SimulationError(f"process yielded non-event {target!r}")
            )
            return
        if self._interrupt_pending is not None:
            # The process was interrupted while it was *running* (e.g.
            # its node crashed inside one of its own sends).  Deliver
            # the interrupt now that it has yielded — the event it just
            # started waiting on may never fire (the node is dead), so
            # deferring to the next resume could leave a zombie.
            interrupt = self._interrupt_pending
            self._interrupt_pending = None
            self.env._call_soon(lambda: self._throw(interrupt))
            return
        self._waiting_on = target
        target._add_callback(self._resume)


class Environment:
    """The simulation environment: clock plus event queue.

    Time is a float in abstract units; the network layer interprets one
    unit as it pleases (the benchmarks use milliseconds).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List = []  # heap of (time, seq, callback-ish)
        self._seq = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Kernel events processed so far."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Heap pushes so far.

        Every schedule is one O(log q) push, so this is the kernel's
        heap-traffic axis: the network's batched delivery sweeps show up
        here as fewer pushes per fan-out round.
        """
        return self._seq

    # -- event constructors --------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process from a generator; returns the Process event."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: any child triggered."""
        return AnyOf(self, events)

    # -- scheduling internals ------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def _queue_event(self, event: Event) -> None:
        heapq.heappush(self._queue, (self._now, self._seq, event))
        self._seq += 1

    def _call_soon(self, func: Callable[[], None]) -> None:
        marker = Event(self)
        marker._value = None

        def runner(_event: Event) -> None:
            func()

        marker.callbacks = [runner]
        heapq.heappush(self._queue, (self._now, self._seq, marker))
        self._seq += 1

    # -- main loop ------------------------------------------------------

    def step(self) -> None:
        """Process one queued event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        self._events_processed += 1
        event._processed = True
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._failed and not event._defused and not isinstance(event, Process):
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        while self._queue:
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                self._now = until
                return
            self.step()
        if until is not None and until > self._now:
            self._now = until

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes; return its value.

        Raises:
            SimulationError: if the queue drains or ``limit`` is reached
                before the process completes, or re-raises the process's
                failure exception.
        """
        while not process.triggered:
            if not self._queue:
                raise SimulationError("deadlock: process pending, queue empty")
            if self._queue[0][0] > limit:
                raise SimulationError(f"time limit {limit} exceeded")
            self.step()
        if process._failed:
            value = process.value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"process failed with {value!r}")
        return process.value
