"""SimTransport: the deterministic discrete-event substrate.

A thin adapter over the existing kernel :class:`Environment` and
fair-loss :class:`Network`.  Everything delegates; no scheduling
decision is made here.  That is the point — the transport extraction
must not perturb simulator semantics, so a fixed-seed campaign produces
bit-identical violation/ops counters before and after the refactor.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..types import ProcessId
from ..sim.kernel import Environment
from ..sim.network import Network, NetworkConfig
from .base import Transport

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """Deterministic transport over the sim kernel and network.

    Args:
        env: event kernel to ride on; a fresh one is created if omitted.
        network: existing :class:`Network` to delegate to.  When given,
            ``config`` is ignored and the network's metrics sink is
            adopted.
        config: network behaviour (latency window, drop/duplicate
            probability, jitter seed) when building a fresh network.
        metrics: metric sink for the fresh network.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        network: Optional[Network] = None,
        config: Optional[NetworkConfig] = None,
        metrics: Any = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        if network is not None:
            self.network = network
        else:
            self.network = Network(self.env, config, metrics)
        self.metrics = self.network.metrics
        #: The network's configured loss: the floor a drop window sits on.
        self._base_drop = self.network.config.drop_probability

    # -- messaging ---------------------------------------------------------

    def register(
        self, process_id: ProcessId, deliver: Callable[[Any], None]
    ) -> None:
        self.network.register(process_id, deliver)

    def unregister(self, process_id: ProcessId) -> None:
        self.network.unregister(process_id)

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, size: int = 0
    ) -> None:
        self.network.send(src, dst, payload, size)

    def set_down(self, process_id: ProcessId, down: bool) -> None:
        self.network.set_down(process_id, down)

    def peer_state(self, process_id: ProcessId) -> str:
        """``"down"`` iff the process is marked crashed; never suspect.

        The sim network has no connection lifecycle — a message either
        arrives (after latency) or is fair-lost — so the only health
        signal it can give is the crash marker.
        """
        return "down" if process_id in self.network._down else "up"

    # -- link faults: the network's own partition and loss setters ---------

    def partition(self, group: Iterable[ProcessId]) -> None:
        group = set(group)
        self.network.partition(group, set(self.network._endpoints) - group)

    def heal(self) -> None:
        self.network.heal_partition()

    def set_drop_probability(self, probability: float) -> None:
        self.network.set_drop_probability(max(probability, self._base_drop))

    # -- async bridge ------------------------------------------------------

    async def wait_for(self, event) -> Any:
        """Await an event by stepping the sim synchronously.

        Lets substrate-agnostic async code (``VolumeSession.
        drain_async``) run on the sim too: the "await" simply drives
        virtual time forward until the event triggers.
        """
        return self.env.run_until_complete(event)
