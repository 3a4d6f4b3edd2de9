"""SimTransport: the deterministic discrete-event substrate.

The paper's channel model (Section 2) on the kernel
:class:`Environment`: channels may reorder or drop messages but never
(undetectably) corrupt them, and they are fair-lossy — a message
retransmitted forever to a correct process is delivered infinitely
often.  Each send draws an independent loss and a uniform latency (which
yields reordering); crashed endpoints and partitions lose messages too.

Delivery calls the destination's ``deliver`` hook; a crashed node
simply loses the message, which is indistinguishable from a drop —
exactly the asynchrony the protocol must cope with.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from ..errors import ConfigurationError, SimulationError
from ..types import ProcessId
from ..sim.kernel import Environment, Event
from ..sim.monitor import Metrics
from ..sim.network import Message, NetworkConfig
from .base import Transport

__all__ = ["SimTransport"]


class _DeliverySweep(Event):
    """All messages bound for one destination at one instant.

    One heap entry per (due-time, destination) batch: the first message
    creates and schedules the sweep, later same-key sends just append.
    On a quorum round's reply fan-in this turns n pushes + n pops into
    one of each, while keeping per-destination delivery order exactly
    the send order, so any run remains deterministic.
    """

    __slots__ = ("key", "messages")

    def __init__(self, transport: "SimTransport", key, delay: float) -> None:
        super().__init__(transport.env)
        self.key = key
        self.messages: List[Message] = []
        self._value = None
        transport.env._schedule(self, delay)
        self.callbacks.append(transport._on_sweep)


class SimTransport(Transport):
    """Fair-loss message routing between registered endpoints, in
    virtual time.

    Args:
        env: event kernel to ride on; a fresh one is created if omitted.
        config: network behaviour (latency window, loss probability,
            jitter seed); copied, so a drop window never reaches the
            caller's instance or another transport built from it.
        metrics: sink for message/bandwidth counting.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        config: Optional[NetworkConfig] = None,
        metrics: Any = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.config = replace(config) if config else NetworkConfig()
        self.metrics = metrics or Metrics()
        self._rng = random.Random(self.config.jitter_seed)
        #: The configured loss: the floor a drop window sits on.
        self._base_drop = self.config.drop_probability
        #: Open (due-time, dst) sweep batches; entries leave on firing.
        self._sweeps: Dict[tuple, _DeliverySweep] = {}
        self._endpoints: Dict[ProcessId, Callable[[Message], None]] = {}
        self._down: Set[ProcessId] = set()
        #: Groups a fault plan cut off from everyone else, until healed.
        self._cut: List[frozenset] = []

    # -- membership --------------------------------------------------------

    def register(
        self, process_id: ProcessId, deliver: Callable[[Message], None]
    ) -> None:
        if process_id in self._endpoints:
            raise SimulationError(f"endpoint {process_id} already registered")
        self._endpoints[process_id] = deliver

    def unregister(self, process_id: ProcessId) -> None:
        self._endpoints.pop(process_id, None)

    # -- failure surface ---------------------------------------------------

    def set_down(self, process_id: ProcessId, down: bool) -> None:
        if down:
            self._down.add(process_id)
        else:
            self._down.discard(process_id)

    def peer_state(self, process_id: ProcessId) -> str:
        """``"down"`` iff the process is marked crashed; never suspect.

        The sim has no connection lifecycle — a message either arrives
        (after latency) or is fair-lost — so the only health signal it
        can give is the crash marker.
        """
        return "down" if process_id in self._down else "up"

    def partition(self, group: Iterable[ProcessId]) -> None:
        """Drop every message crossing ``group``'s boundary until healed,
        including messages to endpoints registered later."""
        self._cut.append(frozenset(group))

    def heal(self) -> None:
        self._cut = []

    def is_partitioned(self, a: ProcessId, b: ProcessId) -> bool:
        """True iff a cut-off group separates ``a`` and ``b``."""
        for group in self._cut:
            if (a in group) != (b in group):
                return True
        return False

    def set_drop_probability(self, probability: float) -> None:
        """Open or close a drop window: loss becomes ``max(probability,
        the configured loss)``."""
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {probability}"
            )
        self.config.drop_probability = max(probability, self._base_drop)

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
        self.metrics.count_message(size)
        if src in self._down or dst in self._down:
            self.metrics.count_drop()
            return
        if self._cut and self.is_partitioned(src, dst):
            self.metrics.count_drop()
            return
        drop = self.config.drop_probability
        if drop > 0 and self._rng.random() < drop:
            self.metrics.count_drop()
            return
        self._deliver_later(Message(src, dst, payload, size))

    def _deliver_later(self, message: Message) -> None:
        # random.uniform's own formula, without its call overhead: the
        # draws are unchanged.
        config = self.config
        low = config.min_latency
        latency = low + (config.max_latency - low) * self._rng.random()
        # The kernel schedules at now + delay with the same float
        # arithmetic, so messages sharing (due, dst) land in one sweep.
        key = (self.env._now + latency, message.dst)
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
        endpoint = self._endpoints.get(message.dst)
        if (
            endpoint is None
            or message.dst in self._down
            or (self._cut and self.is_partitioned(message.src, message.dst))
        ):
            self.metrics.count_drop()
            return
        endpoint(message)

    # -- async bridge ------------------------------------------------------

    async def wait_for(self, event) -> Any:
        """Await an event by stepping the sim synchronously.

        Lets substrate-agnostic async code (``VolumeSession.
        drain_async``) run on the sim too: the "await" simply drives
        virtual time forward until the event triggers.
        """
        return self.env.run_until_complete(event)
