"""One protocol API, two substrates.

The FAB coordinator/replica/session code speaks only the
:class:`Transport` protocol; pick a substrate by name:

* ``"sim"`` — deterministic discrete-event kernel + fair-loss network
  (:class:`SimTransport`); every campaign invariant and benchmark runs
  here with semantics identical to the pre-abstraction code.
* ``"asyncio"`` — wall-clock timers, in-process loopback delivery
  (:class:`AsyncioTransport`); hosts real concurrent clients
  (``repro serve``).
* ``"asyncio-tcp"`` — same, but messages travel as length-prefixed
  binary frames over real TCP sockets.

Every substrate takes the same link faults, defined once on
:class:`Transport`: crash markers, a fault plan's partitions and drop
windows, and seeded per-message chaos (duplicate/corrupt) that
:meth:`Transport.set_chaos` installs from a
:class:`~repro.transport.chaos.ChaosPolicy`.

``AsyncioTransport`` (and the wire codec) import lazily: the wire
module depends on :mod:`repro.core.messages`, which would make the
``repro.core`` package circular if imported eagerly here.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from .base import Endpoint, TimerHandle, Transport
from .chaos import ChaosPolicy, ChaosStats
from .sim import SimTransport

__all__ = [
    "Transport",
    "TimerHandle",
    "Endpoint",
    "SimTransport",
    "AsyncioTransport",
    "ChaosPolicy",
    "ChaosStats",
    "make_transport",
    "TRANSPORT_KINDS",
]

TRANSPORT_KINDS = ("sim", "asyncio", "asyncio-tcp")


def make_transport(
    kind: str = "sim",
    network_config: Any = None,
    metrics: Any = None,
) -> Transport:
    """Build a transport by name (the ``transport=`` knob's backend).

    Args:
        kind: one of :data:`TRANSPORT_KINDS`.
        network_config: sim-only :class:`~repro.sim.network.
            NetworkConfig` (latency window, jitter seed).
        metrics: metric sink shared with the owning cluster.

    A TCP cluster on other than the default host and ports builds its
    :class:`~repro.transport.aio.AsyncioTransport` directly and hands it
    to the cluster.

    Raises:
        ConfigurationError: unknown ``kind``, or sim-only options passed
            to a wall-clock substrate.
    """
    if kind == "sim":
        return SimTransport(config=network_config, metrics=metrics)
    if kind in ("asyncio", "asyncio-tcp"):
        if network_config is not None:
            raise ConfigurationError(
                "network= simulation knobs apply only to transport='sim'"
            )
        from .aio import AsyncioTransport

        mode = "tcp" if kind == "asyncio-tcp" else "loopback"
        return AsyncioTransport(mode=mode, metrics=metrics)
    raise ConfigurationError(
        f"unknown transport {kind!r}; "
        f"valid kinds: {', '.join(TRANSPORT_KINDS)}"
    )


def __getattr__(name: str):
    if name == "AsyncioTransport":
        from .aio import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
