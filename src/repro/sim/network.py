"""A fair-loss asynchronous network (paper Section 2).

Channels may reorder or drop messages but never (undetectably) corrupt
them, and they are fair-lossy: a message retransmitted forever to a
correct process is delivered infinitely often.  We model this with
per-message independent drop probability, randomized latency (which
yields reordering), optional duplication, and explicit partitions.

Delivery calls the destination node's ``deliver`` hook; nodes that are
crashed simply lose the message, which is indistinguishable from a drop
— exactly the asynchrony the protocol must cope with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import ConfigurationError, SimulationError
from ..types import ProcessId
from .kernel import Environment, Event
from .monitor import Metrics

__all__ = ["NetworkConfig", "Message", "Network"]


@dataclass
class NetworkConfig:
    """Tunable network behaviour.

    Attributes:
        min_latency / max_latency: one-way delay bounds; each message
            draws uniformly from the range.  ``delta`` — the paper's
            maximum one-way delay — equals ``max_latency``.
        drop_probability: independent per-message loss probability.
        duplicate_probability: probability a delivered message is
            delivered twice.
        jitter_seed: seed for the network's private RNG, making runs
            reproducible.
    """

    min_latency: float = 1.0
    max_latency: float = 1.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.min_latency < 0 or self.max_latency < self.min_latency:
            raise ConfigurationError(
                f"need 0 <= min_latency <= max_latency, got "
                f"{self.min_latency}, {self.max_latency}"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ConfigurationError(
                "duplicate_probability must be in [0, 1], got "
                f"{self.duplicate_probability}"
            )

    @property
    def delta(self) -> float:
        """The paper's δ: the maximum one-way messaging delay."""
        return self.max_latency


class Message:
    """A network message.

    ``__slots__``-based (one is allocated per send on the hot path).

    Attributes:
        src / dst: endpoint process ids.
        payload: arbitrary protocol payload (a messages.py dataclass).
        size: payload size in bytes for bandwidth accounting.
    """

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.payload == other.payload
            and self.size == other.size
        )

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, size={self.size!r})"
        )


class _DeliverySweep(Event):
    """All messages bound for one destination at one instant.

    One heap entry per (due-time, destination) batch: the first message
    creates and schedules the sweep, later same-key sends just append.
    On a quorum round's reply fan-in this turns n pushes + n pops into
    one of each, while keeping per-destination delivery order exactly
    the send order, so any run remains deterministic.
    """

    __slots__ = ("key", "messages")

    def __init__(
        self, network: "Network", key, delay: float
    ) -> None:
        super().__init__(network.env)
        self.key = key
        self.messages: List[Message] = []
        self._value = None
        network.env._schedule(self, delay)
        self.callbacks.append(network._on_sweep)


class Network:
    """Routes messages between registered endpoints with fair-loss semantics.

    Args:
        env: the simulation environment.
        config: network behaviour knobs; copied, so mid-run changes
            (:meth:`set_drop_probability`) never reach the caller's
            instance or another network built from it.
        metrics: optional metric sink for message/bandwidth counting.
    """

    def __init__(
        self,
        env: Environment,
        config: Optional[NetworkConfig] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.env = env
        self.config = replace(config) if config else NetworkConfig()
        self.metrics = metrics or Metrics()
        self._rng = random.Random(self.config.jitter_seed)
        #: Open (due-time, dst) sweep batches; entries leave on firing.
        self._sweeps: Dict[tuple, _DeliverySweep] = {}
        self._endpoints: Dict[ProcessId, Callable[[Message], None]] = {}
        self._partitions: Set[frozenset] = set()
        self._down: Set[ProcessId] = set()
        self._send_observers: List[Callable[[Message], None]] = []

    # -- observation -------------------------------------------------------

    def add_send_observer(self, observer: Callable[[Message], None]) -> None:
        """Attach a per-send observer (e.g. a message tracer).

        The default path pays nothing for observation: only when an
        observer is attached does the network construct per-message
        trace records.  Observers see every send attempt, including
        messages the network later drops.
        """
        self._send_observers.append(observer)

    def remove_send_observer(self, observer: Callable[[Message], None]) -> None:
        """Detach a previously attached observer (no-op if absent)."""
        try:
            self._send_observers.remove(observer)
        except ValueError:
            pass

    # -- membership ------------------------------------------------------

    def register(
        self, process_id: ProcessId, deliver: Callable[[Message], None]
    ) -> None:
        """Attach an endpoint; ``deliver`` is invoked per arriving message."""
        if process_id in self._endpoints:
            raise SimulationError(f"endpoint {process_id} already registered")
        self._endpoints[process_id] = deliver

    def unregister(self, process_id: ProcessId) -> None:
        """Detach an endpoint (messages to it are silently lost)."""
        self._endpoints.pop(process_id, None)

    # -- failure surface ---------------------------------------------------

    def set_down(self, process_id: ProcessId, down: bool) -> None:
        """Mark an endpoint crashed; messages to/from it are lost."""
        if down:
            self._down.add(process_id)
        else:
            self._down.discard(process_id)

    def partition(self, group_a: Set[ProcessId], group_b: Set[ProcessId]) -> None:
        """Install a bidirectional partition between two groups."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def heal_partition(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, a: ProcessId, b: ProcessId) -> bool:
        """True iff a partition separates ``a`` and ``b``."""
        return frozenset((a, b)) in self._partitions

    def set_drop_probability(self, probability: float) -> None:
        """Change the per-message loss probability mid-run (validated).

        :class:`~repro.transport.sim.SimTransport` uses this for a fault
        plan's drop windows; assigning ``config.drop_probability``
        directly would skip the config's range validation.
        """
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {probability}"
            )
        self.config.drop_probability = probability

    # -- sending -----------------------------------------------------------

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        """Send one message (fire-and-forget, may be lost).

        Local delivery (``src == dst``) still goes through the event
        queue (with latency) so a coordinator talking to its own replica
        behaves like any other pair — the paper makes no locality
        assumption.
        """
        message = Message(src, dst, payload, size)
        if self._send_observers:
            for observer in self._send_observers:
                observer(message)
        self.metrics.count_message(size)
        if src in self._down or dst in self._down:
            self.metrics.count_drop()
            return
        if self.is_partitioned(src, dst):
            self.metrics.count_drop()
            return
        if (
            self.config.drop_probability > 0
            and self._rng.random() < self.config.drop_probability
        ):
            self.metrics.count_drop()
            return
        self._deliver_later(message)
        if (
            self.config.duplicate_probability > 0
            and self._rng.random() < self.config.duplicate_probability
        ):
            self._deliver_later(message)

    def _deliver_later(self, message: Message) -> None:
        latency = self._rng.uniform(
            self.config.min_latency, self.config.max_latency
        )
        # The kernel schedules at now + delay with the same float
        # arithmetic, so messages sharing (due, dst) land in one sweep.
        key = (self.env.now + latency, message.dst)
        sweep = self._sweeps.get(key)
        if sweep is None:
            sweep = _DeliverySweep(self, key, latency)
            self._sweeps[key] = sweep
        sweep.messages.append(message)

    def _on_sweep(self, event: Event) -> None:
        # Detach before delivering: a handler may send again with zero
        # latency, which must open a fresh sweep, not append to this
        # already-firing one.
        self._sweeps.pop(event.key, None)
        for message in event.messages:
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        # Re-check state at delivery time: the destination may have
        # crashed, or a partition may have appeared, while the message
        # was in flight.  A *source* crash after send does NOT retract
        # the message — a coordinator's writes sent just before it died
        # still land, which is precisely how partial writes arise
        # (paper Figure 5).
        if message.dst in self._down:
            self.metrics.count_drop()
            return
        if self.is_partitioned(message.src, message.dst):
            self.metrics.count_drop()
            return
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            self.metrics.count_drop()
            return
        endpoint(message)
