"""SimTransport: the deterministic discrete-event substrate.

The paper's channel model (Section 2) on the kernel
:class:`Environment`: channels may reorder or drop messages but never
(undetectably) corrupt them, and they are fair-lossy — a message
retransmitted forever to a correct process is delivered infinitely
often.  Each send draws an independent loss — the configured one, or an
open drop window's if that is higher — and a uniform latency (which
yields reordering), both from the jitter RNG; crashed endpoints,
partitions and a chaos policy (:class:`~repro.transport.base.Transport`)
lose messages too.

Delivery calls the destination's ``deliver`` hook; a crashed node
simply loses the message, which is indistinguishable from a drop —
exactly the asynchrony the protocol must cope with.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable, Dict, Optional

from ..errors import SimulationError
from ..types import ProcessId
from ..sim.kernel import Environment
from ..sim.monitor import Metrics
from ..sim.network import Message, NetworkConfig
from .base import DeliveryBatch, Transport

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """Fair-loss message routing between registered endpoints, in
    virtual time.

    Args:
        env: event kernel to ride on; a fresh one is created if omitted.
        config: network behaviour (latency window, loss probability,
            jitter seed); copied, so the caller's instance and another
            transport built from it stay independent.
        metrics: sink for message/bandwidth counting.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        config: Optional[NetworkConfig] = None,
        metrics: Any = None,
    ) -> None:
        super().__init__()
        self.env = env if env is not None else Environment()
        self.config = replace(config) if config else NetworkConfig()
        self.metrics = metrics or Metrics()
        self._rng = random.Random(self.config.jitter_seed)
        #: The configured loss: the floor a drop window sits on.
        self._loss = self.config.drop_probability
        #: Open delivery sweeps, one batch per (due-time, dst): on a
        #: quorum round's reply fan-in n pushes + n pops become one of
        #: each, and each destination still sees its send order, so any
        #: run stays deterministic.  Entries leave on firing.
        self._sweeps: Dict[tuple, DeliveryBatch] = {}
        self._endpoints: Dict[ProcessId, Callable[[Message], None]] = {}

    # -- membership --------------------------------------------------------

    def register(
        self, process_id: ProcessId, deliver: Callable[[Message], None]
    ) -> None:
        if process_id in self._endpoints:
            raise SimulationError(f"endpoint {process_id} already registered")
        self._endpoints[process_id] = deliver

    def unregister(self, process_id: ProcessId) -> None:
        self._endpoints.pop(process_id, None)

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
        metrics = self.metrics
        metrics.count_message(size)
        if src in self._down or dst in self._down:
            metrics.count_drop()
            return
        if self._faulted:
            self._send_faulted(src, dst, payload, size)
            return
        drop = self._loss
        if drop > 0 and self._rng.random() < drop:
            metrics.count_drop()
            return
        self._deliver_later(Message(src, dst, payload, size))

    def _send_faulted(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int
    ) -> None:
        """``send`` while a link fault is installed.

        The link faults decide the copies; each copy then takes the
        channel's own loss draw, at least the drop window's, before its
        latency draw — the jitter RNG sees the same sequence as on a
        fault-free send.
        """
        window = self._window_drop
        loss = self._loss
        drop = max(loss, window)
        for _copy in range(self._link_copies(src, dst, payload, size, 0.0)):
            if drop > 0 and self._rng.random() < drop:
                if window > loss:
                    self.stats.window_dropped += 1
                self.metrics.count_drop()
                continue
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
            sweep = DeliveryBatch(self.env, latency, self._on_sweep, key)
            self._sweeps[key] = sweep
        sweep.messages.append(message)

    def _on_sweep(self, event: DeliveryBatch) -> None:
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
            or (self._cut and self._cut_off(message.src, message.dst))
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
